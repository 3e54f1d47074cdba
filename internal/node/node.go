// Package node implements a live cooperative-exchange peer: the same
// incentive mechanisms the simulator studies (internal/incentive), run over
// a real message transport (internal/transport) with verified piece storage
// (internal/piece) and, for T-Chain, real encryption with escrowed keys
// (internal/tchain).
//
// A Node pushes pieces to strategy-chosen neighbors, throttled by a token
// bucket; receivers verify every piece against the swarm manifest. Under
// T-Chain the payload travels sealed and the key is released only after the
// sender observes reciprocation (a repaying piece, or a witness receipt for
// a forwarded seal) — a receiver that reneges keeps ciphertext it can never
// read.
//
// Simplifications relative to a full deployment, recorded in DESIGN.md:
// the reputation algorithm's global scores live in a shared
// reputation.Ledger (standing in for EigenTrust's gossip), and membership is
// the simulator's: a tracker's bootstrap list plus peer exchange on the
// handshake (membership.go), not a DHT.
package node

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/reputation"
	"repro/internal/stats"
	"repro/internal/tchain"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// Config parameterizes a node.
type Config struct {
	// ID is the node's swarm-unique identity. It must not be negative:
	// negative incentive.PeerIDs are pseudo-peers (NoPeer, the simulator's
	// seeder) that no strategy can pick.
	ID int
	// Algorithm is the incentive mechanism to run.
	Algorithm algo.Algorithm
	// Store holds this node's pieces (pre-seeded for a seed node).
	Store *piece.Store
	// Transport provides connectivity.
	Transport transport.Transport
	// ListenAddr is where to accept inbound connections.
	ListenAddr string
	// Bootstrap addresses are dialed at startup, at most MaxNeighbors of
	// them: a tracker's answer (Cluster is one) or an operator's -peer list.
	Bootstrap []string
	// MaxNeighbors caps the links this node dials — its bootstrap list and
	// the peer-exchange refills — as sim.Config.MaxNeighbors caps a
	// newcomer's; links other nodes dial to it are not capped, as in the
	// simulator. 0 means incentive.DefaultMaxNeighbors.
	MaxNeighbors int
	// UploadRate throttles uploads in bytes/second; 0 means unthrottled,
	// paced only by what each link asks for (maxInFlight at a time).
	UploadRate float64
	// DecisionInterval is the upload-scheduler tick (default 20 ms).
	DecisionInterval time.Duration
	// FreeRide makes the node receive without ever uploading or
	// reciprocating — the attack behaviour from Section IV-C.
	FreeRide bool
	// SeedMode marks this node as the swarm's origin server: it serves
	// plaintext unconditionally, matching the paper's model of the seeder
	// as an unconditional u_S/N contribution in every mechanism
	// (including T-Chain, where ordinary peers seal and demand
	// reciprocation). Without an altruistic origin a two-party T-Chain
	// swarm cannot even start: reciprocation toward a peer that needs
	// nothing is infeasible.
	SeedMode bool
	// Identity is the node's attestation keypair. When set, the node signs
	// a receipt for every verified piece it stores (crediting the sender
	// with proof instead of trust), advertises its public key in the
	// handshake, and refuses unsigned T-Chain receipts. Nil runs the
	// legacy unsigned protocol — crediting is then a bare claim, exactly
	// the trust model the paper analyzes.
	Identity *attest.Key
	// Directory is the admitted-identity set attestations are verified
	// against. Nil with Identity set creates a private open directory that
	// pins peer keys trust-on-first-use from their Hello frames; clusters
	// share one sealed directory instead (closed membership, no Sybils).
	Directory *attest.Directory
	// AttestScheme selects the per-piece receipt signature. Zero with
	// Identity set defaults to SchemeEd25519 (self-contained signatures,
	// right for cross-process swarms); in-process clusters pass
	// SchemeSession, the pairwise-MAC fast path. Under SchemeSession a
	// T-Chain witness receipt sent over an established link to an origin
	// whose session secret the directory holds is MAC'd to that link
	// (attest.SchemeLink); every other witness receipt is Ed25519.
	AttestScheme attest.Scheme
	// Ledger is the shared global-reputation service; nil creates a
	// private one (reputation scores then stay local), verifying against
	// Directory when Identity is set and accepting bare claims otherwise.
	Ledger *reputation.Ledger
	// Tracer enables causal tracing of the live data path (see
	// internal/tracing and trace.go). Cluster nodes share one collector so
	// cross-node spans land in a single ring; nil disables tracing
	// entirely, leaving the hot paths untouched.
	Tracer *tracing.Collector
	// Log receives the node's structured events (peer churn, attestation
	// refusals, shutdown drains) with trace/span IDs attached where a
	// trace is live. Nil discards everything — what in-process clusters
	// run with, and the only mode the hot paths are benchmarked in;
	// coopnode passes a stderr handler at Warn.
	Log *slog.Logger
}

func (c *Config) validate() error {
	if c.Store == nil {
		return errors.New("node: Store required")
	}
	if c.Transport == nil {
		return errors.New("node: Transport required")
	}
	if c.UploadRate < 0 {
		return fmt.Errorf("node: UploadRate %g negative", c.UploadRate)
	}
	if c.ID < 0 {
		return fmt.Errorf("node: ID %d negative", c.ID)
	}
	if c.MaxNeighbors < 0 {
		return fmt.Errorf("node: MaxNeighbors %d negative", c.MaxNeighbors)
	}
	return nil
}

// maxQueuedData bounds the bulk payload frames (Piece, SealedPiece) queued
// per peer: enough to keep a healthy connection's writer busy, small enough
// that a stalled peer pins at most maxQueuedData pieces of memory and the
// upload scheduler stops pushing to it (see enqueue).
const maxQueuedData = 16

// stopFlushTimeout bounds how long Stop waits, in total across all peers,
// for queued outbound frames to reach the wire before connections are
// closed under the writers. A variable so the shutdown-accounting test can
// shrink the window.
var stopFlushTimeout = 2 * time.Second

// remote is one connected neighbor. Outbound messages go through a
// per-peer queue drained by a dedicated writer goroutine, so the read
// loops never block on a slow peer (two mutually full pipes would
// otherwise deadlock the swarm); enqueue is the one way in.
type remote struct {
	n    *Node // owning node: its metrics, tracer and ID for span attribution
	id   int
	conn transport.Conn
	have *piece.Bitfield
	addr string
	// arrival orders the links this node accepted (1, 2, …, in accept
	// order); 0 marks one it dialed. Peer exchange lists a dialer only the
	// neighbours that arrived before it (see peerExchangeLocked).
	arrival uint64
	// linkKeyed: a witness receipt for this peer's seals can be MAC'd to
	// this link (see newRemote) instead of signed with the identity key.
	linkKeyed bool
	// frozen: the conn hands over the sender's frozen payloads
	// (transport.FrozenPayloads), so handlePiece adopts a verified piece
	// instead of copying it.
	frozen bool

	// asked is the queue of the pieces we asked this peer for (see
	// askLocked), wants the queue of those it asked us for (see
	// wantLocked); both are guarded by Node.mu and die with the link.
	asked asks
	wants asks

	outMu     sync.Mutex
	outCond   *sync.Cond
	outbox    []protocol.Message
	spare     []protocol.Message // previous drained batch, recycled
	outData   int                // bulk frames enqueued or being written
	writing   bool               // a drained batch is on its way to the wire
	outClosed bool
	// announced is this link's cursor into the node's gain log (guarded by
	// outMu): the peer has been told, by the handshake Bitfield or a
	// Have/HaveBatch, of everything before it. takeBatch announces the rest,
	// with requests: what askLocked asked of this peer since the last drain.
	announced int32
	requests  []int32

	// traced carries the span bookkeeping for traced frames currently in
	// the outbox (see trace.go); it is swapped out alongside the batch so
	// writeLoop can record outbox.wait and wire.send once the drain lands.
	// choked marks a backpressure refusal whose recovery (the queue
	// draining back below the bound) should emit an unchoke instant. All
	// three stay nil/false when tracing is off.
	traced      []tracedFrame
	tracedSpare []tracedFrame
	choked      bool

	// opened is handleKey's plaintext scratch, reused across the keys this
	// link delivers; only the link's reader goroutine touches it.
	opened []byte
}

// newRemote wires the outbound queue of n's link to peer id. announced is
// the gain-log position the Bitfield we sent this peer was current to (see
// handshakeBitfield): the writer announces every gain from there on. The
// link is keyed for witness receipts when per-piece receipts already ride
// session MACs and the directory holds the peer's session secret — the
// peer then holds ours the same way, an in-process registration both ends
// made; a peer known only by the public key in its Hello is not. Whether
// the conn's payloads are frozen is asked here, once per link.
func newRemote(n *Node, id int, conn transport.Conn, addr string, arrival uint64, announced int32) *remote {
	numPieces := n.cfg.Store.Manifest().NumPieces()
	r := &remote{
		n: n, id: id, conn: conn, addr: addr, arrival: arrival,
		have:      piece.NewBitfield(numPieces),
		announced: announced,
		frozen:    transport.PayloadsFrozen(conn),
	}
	r.outCond = sync.NewCond(&r.outMu)
	if n.identity != nil && n.attScheme == attest.SchemeSession {
		ident, admitted := n.directory.Lookup(int32(id))
		r.linkKeyed = admitted && ident.HasSession
	}
	return r
}

// frameClass is what enqueue needs to know of a frame: whether the bulk
// bound may refuse it, and whether it wakes the writer at once. Only a frame
// a counterpart may be blocked on does; the rest ride the next drain, which
// the flushLinks closing each tick causes if nothing sooner does.
type frameClass uint8

const (
	tickPush      frameClass = iota // a piece or seal tryUpload pushes: bulk, sent as the tick ends
	forwardedSeal                   // bulk, wakes: the seal's origin waits on the witness's receipt
	reply                           // a repayment, key, witness receipt or Nodes: control, wakes
	receiptCopy                     // the sender's proof copy (protocol.Attest): control, waits
)

func (c frameClass) bulk() bool  { return c == tickPush || c == forwardedSeal }
func (c frameClass) wakes() bool { return c == forwardedSeal || c == reply }

// enqueue is the only way into the peer's outbox; it never blocks and
// reports whether the frame was accepted. Bulk frames (ordinary Piece and
// SealedPiece uploads) are bounded by maxQueuedData, the node's
// backpressure signal: at the bound the frame is refused and counted in
// node_backpressure_refusals_total, the caller treats the peer as
// saturated and puts back the request it was serving. Control
// frames — receipts and their signed copies, keys, and repayment pieces,
// whose loss would strand the counterpart's escrowed key — are never
// refused and never counted in outData. (Piece announcements are not outbox
// entries at all: the writer reads them off the node's gain log.) class
// says which a frame is, and whether it signals the writer. A closed outbox
// drops either class silently. ut, when non-nil, traces the frame: the
// writer bookkeeping rides along and request.queued is recorded on
// acceptance; the clock is read only then.
func (r *remote) enqueue(m protocol.Message, class frameClass, ut *uploadTrace) bool {
	var enqNs int64
	if ut != nil {
		enqNs = spanNow()
	}
	r.outMu.Lock()
	bulk := class.bulk()
	if r.outClosed || (bulk && r.outData >= maxQueuedData) {
		if !r.outClosed {
			r.n.metrics.backpressure.Add(1)
			if r.n.tracer != nil && !r.choked {
				// First refusal of a saturated stretch; writeLoop emits the
				// matching unchoke once the queue drains below the bound.
				r.choked = true
				instant(r.n.tracer, tracing.SpanChoke, r.n.cfg.ID, r.id, -1)
			}
		}
		r.outMu.Unlock()
		return false
	}
	if bulk {
		r.outData++
	}
	r.outbox = append(r.outbox, m)
	if ut != nil {
		r.traced = append(r.traced, ut.frame(enqNs))
	}
	if class.wakes() {
		r.outCond.Signal()
	}
	r.outMu.Unlock()
	if ut != nil {
		r.n.tracer.Record(ut.queuedSpan(r.n.cfg.ID, enqNs))
	}
	return true
}

// dataBacklogged reports whether the bulk queue is at capacity — the
// upload scheduler's cheap pre-check before it burns a decision on a peer
// that cannot absorb another piece.
func (r *remote) dataBacklogged() bool {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	return r.outData >= maxQueuedData
}

// unannounced reports whether the node has gained pieces this peer has not
// been told of, or asked it for pieces in no frame yet (outMu held).
func (r *remote) unannounced() bool { return r.n.gainLen.Load() != r.announced || len(r.requests) > 0 }

// pending reports whether the link has anything to send: queued frames, or
// gains and requests for its next announcement (outMu held).
func (r *remote) pending() bool { return len(r.outbox) > 0 || r.unannounced() }

// flush signals the writer if anything is pending — the announcements, tick
// pushes and receipt copies that were left without a signal of their own.
// The check and the signal share one outMu section, so the signal cannot
// fall between the writer's own check and its Wait.
func (r *remote) flush() {
	r.outMu.Lock()
	if r.pending() {
		r.outCond.Signal()
	}
	r.outMu.Unlock()
}

// flushed reports whether every frame handed to this remote has reached
// the wire: nothing queued, nothing gained and unannounced, and no drained
// batch mid-Send. A closed outbox counts as flushed — its writer is gone
// and waiting would be pointless.
func (r *remote) flushed() bool {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	return r.outClosed || (!r.pending() && !r.writing)
}

// queued returns how many frames are waiting to be written: the outbox,
// plus one for the announcement the next drain will make of any gains past
// the cursor and unsent requests.
func (r *remote) queued() int {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	if r.unannounced() {
		return len(r.outbox) + 1
	}
	return len(r.outbox)
}

// queuedFrames sums the frames waiting in the given peers' outboxes.
func queuedFrames(remotes []*remote) int64 {
	var q int64
	for _, r := range remotes {
		q += int64(r.queued())
	}
	return q
}

// closeOutbox stops the writer goroutine.
func (r *remote) closeOutbox() {
	r.outMu.Lock()
	r.outClosed = true
	r.outMu.Unlock()
	r.outCond.Broadcast()
}

// takeBatch blocks until the link has something to send — queued frames,
// or gains past the announced cursor — and swaps all of it out as one batch
// (the previous batch's slices are recycled, so steady state allocates
// nothing per queued frame). Everything gained since the cursor and every
// unsent request leave as one frame: a Have for a single index and no
// request, otherwise a HaveBatch whose Indices is a window of the gain log
// itself — the published prefix is immutable, so every link shares it
// uncopied — and whose Requests is the link's window of the request log.
// That frame leads the batch: it tells the peer what to push us next, so it
// does not wait behind the pieces queued before it. nData is the batch's bulk frames, which stay
// counted in outData until recycle. ok is false once the outbox is closed
// and nothing remains.
func (r *remote) takeBatch() (batch []protocol.Message, traced []tracedFrame, nData int, ok bool) {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	for !r.pending() && !r.outClosed {
		r.outCond.Wait()
	}
	if r.unannounced() {
		gained := r.n.gainLen.Load()
		window := r.n.gainLog[r.announced:gained:gained]
		var frame protocol.Message = protocol.HaveBatch{Indices: window, Requests: r.requests}
		if len(window) == 1 && len(r.requests) == 0 {
			frame = protocol.Have{Index: window[0]}
		}
		r.outbox = slices.Insert(r.outbox, 0, frame)
		r.announced, r.requests = gained, nil
	}
	if len(r.outbox) == 0 {
		return nil, nil, 0, false // closed and fully drained
	}
	batch, r.outbox = r.outbox, r.spare[:0]
	traced, r.traced = r.traced, r.tracedSpare[:0]
	r.writing = true
	return batch, traced, r.outData, true
}

// recycle ends a drain: it hands takeBatch's slices back for reuse and
// releases the batch's bulk budget — only now, so enqueue's bound covers
// frames being written, not just frames waiting. It reports whether that
// ended a backpressure stretch enqueue marked (tracing only).
func (r *remote) recycle(batch []protocol.Message, traced []tracedFrame, nData int) (unchoked bool) {
	clear(batch) // drop payload references before recycling the slice
	r.outMu.Lock()
	defer r.outMu.Unlock()
	r.spare = batch[:0]
	r.tracedSpare = traced[:0]
	r.outData -= nData
	r.writing = false
	if r.choked && r.outData < maxQueuedData {
		r.choked = false
		return true
	}
	return false
}

// writeLoop drains the outbox to the connection until closed or the
// connection dies. Each drain is one takeBatch, handed to the transport's
// batch path when available — one flush, one syscall per drain on TCP.
func (r *remote) writeLoop() {
	nm, tr, self := r.n.metrics, r.n.tracer, r.n.cfg.ID
	batcher, _ := r.conn.(transport.BatchSender)
	for {
		batch, traced, nData, ok := r.takeBatch()
		if !ok {
			return
		}
		// The clock is read only when the drain carries traced frames, so
		// untraced operation (tracing off, or nothing sampled) never pays
		// for a timestamp here.
		var drainNs int64
		if len(traced) > 0 {
			drainNs = spanNow()
		}
		var err error
		if batcher != nil {
			err = batcher.SendBatch(batch)
		} else {
			for _, m := range batch {
				if err = r.conn.Send(m); err != nil {
					break
				}
			}
		}
		if err == nil {
			// nData is exactly the batch's bulk frames (Piece, SealedPiece);
			// the rest are control frames, so the class split costs nothing
			// beyond the bookkeeping writeLoop already does.
			nm.framesBulk.Add(int64(nData))
			nm.framesControl.Add(int64(len(batch) - nData))
			nm.drains.Add(1)
			if len(traced) > 0 {
				doneNs := spanNow()
				for _, tf := range traced {
					// outbox.wait: accepted by the queue → this drain began.
					tr.Record(tracing.Span{
						TraceID: tf.traceID, SpanID: tf.wait, ParentID: tf.queued,
						Name: tracing.SpanOutboxWait, Node: self, Peer: tf.peer, Piece: tf.piece,
						Start: tf.enqNs, Dur: drainNs - tf.enqNs,
					})
					// wire.send: the whole drain's encode+flush window — frames
					// share one batched syscall, so they share the span bounds.
					tr.Record(tracing.Span{
						TraceID: tf.traceID, SpanID: tf.send, ParentID: tf.wait,
						Name: tracing.SpanWireSend, Node: self, Peer: tf.peer, Piece: tf.piece,
						Start: drainNs, Dur: doneNs - drainNs,
					})
				}
			}
		}
		if r.recycle(batch, traced, nData) {
			instant(tr, tracing.SpanUnchoke, self, r.id, -1)
		}
		if err != nil {
			r.closeOutbox()
			return
		}
	}
}

// pendingSeal is a sealed piece waiting for its key. tc is the trace
// continuation context the seal arrived under (zero = untraced): when the
// key finally lands, handleKey resumes the trace there, so the decrypt and
// verify appear in the same causal story as the seal's wire hop.
type pendingSeal struct {
	sealed tchain.Sealed
	index  int
	tc     tracing.Context
}

// sealRef names a parked seal: the neighbor that sealed it and the KeyID
// that neighbor's escrow issued. Every escrow counts from 0, so the KeyID
// alone names a different seal at each origin.
type sealRef struct {
	origin int
	keyID  uint64
}

// Stats is a snapshot of a node's counters, assembled from the metrics
// core (see Stats for the consistency model).
type Stats struct {
	ID             int
	Pieces         int
	Complete       bool
	UploadedBytes  float64
	CreditedBytes  float64 // verified plaintext received (first deliveries only)
	SealedPending  int     // ciphertext pieces awaiting keys
	Neighbors      int
	FramesSent     int64 // wire frames written across all peers
	Drains         int64 // writer drains behind FramesSent: one flush (on TCP, one write) each
	FramesReceived int64 // wire frames dispatched across all peers
}

// Node is a live peer. Create with New, run with Start, stop with Stop.
type Node struct {
	cfg      Config
	strategy incentive.Strategy
	// escrow is everything this node knows about the seals it has pushed:
	// keys, who owes for them, grace deadlines and who has ever reciprocated.
	// Its lock is a leaf — taken under mu by sweepGrace, never the reverse —
	// and it dies with the node, so nothing is released, or kept reachable,
	// after Stop.
	escrow *tchain.Escrow
	ledger *reputation.Ledger

	// identity/directory/verifier are the attestation plumbing (nil when
	// Config.Identity is nil): the key that signs our receipts, the
	// admitted-identity set, and the stateless checker for receipts and
	// acks (the crediting replay windows live in the ledger's policy).
	identity  *attest.Key
	directory *attest.Directory
	verifier  *attest.Verifier
	attScheme attest.Scheme

	mu           sync.Mutex
	stopping     bool
	now          int64                    // the latest tick's instant (see tick); 0 before the first
	links        []*remote                // the neighbour set, ascending by peer ID (see linkLocked)
	conns        map[transport.Conn]int64 // every live conn, incl. pre-handshake: its close-by instant, 0 for none
	pendingSeals map[sealRef]pendingSeal
	rng          *rand.Rand
	// contacts and dialing are the membership state (membership.go):
	// peer-exchange hints for links not yet made, at most 2×MaxNeighbors of
	// them, and the addresses of this node's outbound connections, each held
	// from the dial until the link ends — the dial budget MaxNeighbors caps.
	contacts []contact
	dialing  map[string]bool

	// myBits mirrors the store's holdings under mu, so the decision loop
	// never takes the store's lock or clones a bitfield on the hot path:
	// interest is read off myBits and each link's have. noteGainedLocked
	// keeps it in sync with verified Puts.
	myBits *piece.Bitfield
	// gainLog lists the pieces verified since New in verification order,
	// and gainLen is how many are published. It is append-only:
	// noteGainedLocked writes the next slot under mu and then advances
	// gainLen, so gainLog[:gainLen] never changes and the per-peer writers
	// read it — and hand windows of it to Mem receivers — without a lock.
	// Sized at New for every piece the store lacked; never reallocated.
	gainLog []int32
	gainLen atomic.Int32
	// credited counts the first deliveries whose receipts are credited;
	// completeCh closes when it reaches len(gainLog), so a node reads
	// complete only once every piece is held and every receipt for one is
	// booked, whichever handler goroutine credits last.
	credited   atomic.Int32
	completeCh chan struct{}
	// neighborScratch backs the strategy view's Neighbors result; it is
	// reused across decisions (valid until the next view call, per
	// incentive.NodeView's contract) and protected by mu.
	neighborScratch []incentive.PeerID
	// The requester's state (see request), under mu: how many links hold
	// each piece, the pieces asked of some link and not yet held, an rng
	// stream apart from the strategy's, and the log that backs the request
	// windows the links' writers send (see askLocked).
	avail   *piece.Availability
	pending *piece.Bitfield
	reqRng  *rand.Rand
	reqLog  []int32
	// heldReceipts are witness receipts waiting for the link to their
	// origin, which a dial of ours is bringing up (see releaseReceipts).
	heldReceipts []witnessed

	metrics *nodeMetrics // never nil after New

	// tracer is the causal-trace collector (nil = tracing off, the
	// zero-overhead default); log is never nil (a discard logger stands in
	// when Config.Log is nil) and logDebug caches its debug-level Enabled
	// answer so hot-path Debug sites can skip argument evaluation entirely.
	// pieceTrace maps piece index -> continuation context (under mu): a
	// piece that arrived on a traced frame hands its trace to this node's
	// next onward upload of it, which is what stitches multi-hop stories
	// together. Allocated only when tracing is on.
	tracer     *tracing.Collector
	log        *slog.Logger
	logDebug   bool
	pieceTrace []tracing.Context

	listener transport.Listener
	accepted uint64 // links accepted so far; acceptLoop's alone
	done     chan struct{}
	closed   sync.Once
	stopErr  error // set inside closed.Do, read after wg.Wait
	wg       sync.WaitGroup
	start    time.Time // tick instants count from here
	budget   float64   // throttled tick's token bucket: bytes it may push
}

// New builds a node; call Start to bring it online.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DecisionInterval <= 0 {
		cfg.DecisionInterval = 20 * time.Millisecond
	}
	if cfg.MaxNeighbors == 0 {
		cfg.MaxNeighbors = incentive.DefaultMaxNeighbors
	}
	var verifier *attest.Verifier
	directory := cfg.Directory
	if cfg.Identity != nil {
		if cfg.AttestScheme == attest.SchemeNone {
			cfg.AttestScheme = attest.SchemeEd25519
		}
		if directory == nil {
			directory = attest.NewDirectory()
		}
		// Registering ourselves is idempotent for a cluster-shared
		// directory and necessary for a private one: the ledger verifies
		// our own signed receipts before crediting.
		directory.Register(int32(cfg.ID), cfg.Identity.Identity())
		verifier = attest.NewVerifier(directory)
	}
	ledger := cfg.Ledger
	if ledger == nil {
		if verifier != nil {
			// The private ledger shares this node's verifier: Credit spends
			// replay windows there, while the node's own uses (receipt and
			// ack checks, the /verify audit endpoint) are stateless.
			ledger = reputation.NewLedger(verifier)
		} else {
			ledger = reputation.NewLedger(attest.AcceptAll{})
		}
	}
	// The live T-Chain node enforces reciprocation at the protocol layer
	// (seal/forward/receipt/key), so its strategy only needs the
	// opportunistic-seeding component — which is altruism's uniform pick.
	strategyAlgo := cfg.Algorithm
	if strategyAlgo == algo.TChain {
		strategyAlgo = algo.Altruism
	}
	strategy, err := incentive.New(strategyAlgo, incentive.Params{}, ledger)
	if err != nil {
		return nil, err
	}
	myBits := cfg.Store.Bitfield()
	n := &Node{
		cfg:          cfg,
		strategy:     strategy,
		escrow:       tchain.NewEscrow(),
		ledger:       ledger,
		identity:     cfg.Identity,
		directory:    directory,
		verifier:     verifier,
		attScheme:    cfg.AttestScheme,
		conns:        make(map[transport.Conn]int64),
		pendingSeals: make(map[sealRef]pendingSeal),
		dialing:      make(map[string]bool),
		rng:          stats.NewRNG(int64(cfg.ID)*7919 + 17),
		reqRng:       stats.NewRNG(int64(cfg.ID)*7919 + 18),
		myBits:       myBits,
		gainLog:      make([]int32, myBits.Size()-myBits.Count()),
		done:         make(chan struct{}),
		completeCh:   make(chan struct{}),
		tracer:       cfg.Tracer,
		log:          cfg.Log,
		budget:       float64(cfg.Store.Manifest().PieceSize), // an immediate first send
	}
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	n.log = n.log.With("node", cfg.ID)
	// Cache the debug-level decision: slog evaluates call arguments before
	// the handler's Enabled check, so per-piece Debug sites must be guarded
	// or they allocate (traceHex, attr boxing) even into a discard handler.
	n.logDebug = n.log.Enabled(context.Background(), slog.LevelDebug)
	if n.tracer != nil {
		n.pieceTrace = make([]tracing.Context, cfg.Store.Manifest().NumPieces())
	}
	n.metrics = &nodeMetrics{peerDown: make(map[int]*atomic.Int64)}
	if len(n.gainLog) == 0 {
		close(n.completeCh) // a seed
	}
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() int { return n.cfg.ID }

// StoreHandle returns the node's piece store (e.g., to assemble the file
// after completion).
func (n *Node) StoreHandle() *piece.Store { return n.cfg.Store }

// Addr returns the bound listen address (valid after Start).
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr()
}

// Start binds the listener, dials the bootstrap peers (at most
// MaxNeighbors), and launches the accept and upload loops.
func (n *Node) Start() error {
	l, err := n.cfg.Transport.Listen(n.cfg.ListenAddr)
	if err != nil {
		return err
	}
	n.listener = l
	n.start = time.Now()

	n.wg.Add(1)
	go n.acceptLoop()

	// Dialed in order, before the upload tick can refill: an acceptor
	// answers with the neighbours that arrived before us (peerExchangeLocked).
	// While a tracker's list holds every live node, each of those is on it
	// and already marked here, so peer exchange adds no dial to a full mesh.
	for _, addr := range n.cfg.Bootstrap {
		n.mu.Lock()
		reserved := n.reserveDialLocked(addr)
		n.mu.Unlock()
		if reserved {
			n.dial(addr) // bootstrap peers are best-effort
		}
	}

	n.wg.Add(1)
	go n.uploadLoop()
	return nil
}

// Stop tears the node down and waits for all its goroutines. It is
// idempotent — every call waits for the full teardown — and returns the
// first teardown error (listener close); repeat calls return that same
// error.
func (n *Node) Stop() error {
	n.closed.Do(func() {
		close(n.done)
		if n.listener != nil {
			n.stopErr = n.listener.Close()
		}
		n.mu.Lock()
		n.stopping = true
		n.mu.Unlock()
		remotes := n.remotes()
		// Let the writer goroutines put already-queued frames on the wire
		// before the connections go away. A caller that stops the node the
		// instant its download completes — the CLI does exactly this — may
		// close before the writers have even been scheduled, and the tail
		// of the conversation (receipt copies, in particular: the proof a
		// seeder keeps of its uploads) would be dropped on the floor. The
		// deadline is shared across peers so a wedged link cannot stall
		// shutdown.
		initial := queuedFrames(remotes)
		deadline := time.Now().Add(stopFlushTimeout)
		for _, r := range remotes {
			for !r.flushed() && time.Now().Before(deadline) {
				// The flush tick died with n.done: signal the writer here, on
				// every poll, since a handler still mid-frame may queue one
				// more receipt copy or gain behind the last signal.
				r.flush()
				time.Sleep(200 * time.Microsecond)
			}
		}
		// Shutdown drain accounting: what the window flushed versus what the
		// connection teardown is about to drop (receipt copies, in
		// particular — the proof a seeder keeps of its uploads).
		remaining := queuedFrames(remotes)
		n.metrics.stopDrainFrames.Add(max(initial-remaining, 0))
		n.metrics.stopDrainDropped.Add(remaining)
		n.log.Info("node stopped",
			"drained_frames", max(initial-remaining, 0),
			"dropped_frames", remaining)
		n.mu.Lock()
		for conn := range n.conns {
			conn.Close()
		}
		n.mu.Unlock()
	})
	n.wg.Wait()
	return n.stopErr
}

// stopped reports whether Stop has begun.
func (n *Node) stopped() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// remotes snapshots the neighbor set, for callers that go on to block,
// poll or close connections and so must not hold mu while they do.
func (n *Node) remotes() []*remote {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.links)
}

// byID orders links by peer ID, for slices.BinarySearchFunc over n.links.
func byID(r *remote, id int) int { return cmp.Compare(r.id, id) }

// linkedLocked returns the link to peer id, or nil (mu held).
func (n *Node) linkedLocked(id int) *remote {
	if i, ok := slices.BinarySearchFunc(n.links, id, byID); ok {
		return n.links[i]
	}
	return nil
}

// linkLocked enters r into the neighbour set at its ID's place (mu held),
// and reports false, entering nothing, when a link to that peer exists.
// n.links stays in ascending ID order, so every walk of it — a decision's
// candidate list, a witness pick, a peer exchange — hands the rng the same
// order on every run; only linkLocked and unlinkLocked change it.
func (n *Node) linkLocked(r *remote) bool {
	i, dup := slices.BinarySearchFunc(n.links, r.id, byID)
	if dup {
		return false
	}
	n.links = slices.Insert(n.links, i, r)
	return true
}

// unlinkLocked drops r from the neighbor set and the strategy's books (mu
// held), unless a newer link to the same peer has already replaced it. Its
// holdings leave the availability and what we asked of it returns to the
// pool; everything else per-peer — its requests, outbox — lives on r and
// goes with it.
func (n *Node) unlinkLocked(r *remote) {
	i, ok := slices.BinarySearchFunc(n.links, r.id, byID)
	if !ok || n.links[i] != r {
		return
	}
	n.links = slices.Delete(n.links, i, i+1)
	n.strategy.Forget(incentive.PeerID(r.id))
	if n.avail == nil {
		return
	}
	n.avail.RemoveBitfield(r.have)
	for r.asked.n > 0 {
		n.unaskLocked(r, int(r.asked.q[0].idx))
	}
}

// WaitCompleteContext blocks until the node holds the full file, every
// piece's receipt credited, or the context is done. It returns nil on
// completion and ctx.Err() otherwise, so callers compose cancellation,
// deadlines, and timeouts the standard way.
func (n *Node) WaitCompleteContext(ctx context.Context) error {
	select {
	case <-n.completeCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the node's counters: every field reads the
// same atomic word a node_ series in Metrics exposes over /metrics.
//
// Consistency model: each individual value is tear-free (every counter is
// one atomic word), but the fields are read one after another
// while the node keeps running, so cross-field invariants may be off by
// the handful of events that landed between reads — e.g. Pieces may
// already include a piece whose CreditedBytes increment is read a
// microsecond later. Snapshots are exact once the node is stopped or
// complete. Metrics makes the same promise per series.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Stats{
		ID:             n.cfg.ID,
		Pieces:         n.cfg.Store.Count(),
		Complete:       n.cfg.Store.Complete(),
		UploadedBytes:  float64(n.metrics.uploadedBytes.Load()),
		CreditedBytes:  float64(n.metrics.creditedBytes.Load()),
		SealedPending:  len(n.pendingSeals),
		Neighbors:      len(n.links),
		FramesSent:     n.metrics.framesControl.Load() + n.metrics.framesBulk.Load(),
		Drains:         n.metrics.drains.Load(),
		FramesReceived: n.metrics.framesIn.Load(),
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return
		}
		n.accepted++
		arrival := n.accepted
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(conn, arrival)
		}()
	}
}
