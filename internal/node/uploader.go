package node

import (
	"math/rand"
	"time"

	"repro/internal/algo"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/protocol"
)

// nodeView adapts the node's state to incentive.NodeView. All methods are
// called with n.mu held (the upload loop and message handlers lock before
// consulting the strategy), so the interest query reads myBits and the
// link's have directly — no store lock, no bitfield clone — and Neighbors
// reuses node-owned scratch per the NodeView contract ("valid only until
// the next call on the view").
type nodeView struct {
	n *Node
}

var _ incentive.NodeView = nodeView{}

func (v nodeView) Self() incentive.PeerID { return incentive.PeerID(v.n.cfg.ID) }
func (v nodeView) Now() float64           { return float64(v.n.now) / 1e9 }
func (v nodeView) RNG() *rand.Rand        { return v.n.rng }

// Neighbors returns the linked peers in n.links' ascending ID order, so a
// decision's draws pick the same peer from the same rng state on every run.
func (v nodeView) Neighbors() []incentive.PeerID { return v.n.neighborsLocked(false, false) }

// WantingNeighbors and AnyWanting are incentive's optional one-pass
// capabilities: the generic filter's list (Neighbors, then WantsFromMe) in
// its order, built without a lookup per candidate.
func (v nodeView) WantingNeighbors() ([]incentive.PeerID, bool) {
	return v.n.neighborsLocked(false, true), true
}
func (v nodeView) AnyWanting() (wanting, ok bool) { return v.n.anyWantingLocked(false), true }

// uploadView is the view tryUpload decides through (mu held): the node
// view, except that its lists leave out every link whose in-flight window
// is full, so a strategy's draw lands on a link that can take a piece now.
// It embeds nodeView rather than adding a field so it stays one pointer
// wide, which an interface holds without allocating.
type uploadView struct{ nodeView }

func (v uploadView) Neighbors() []incentive.PeerID { return v.n.neighborsLocked(true, false) }
func (v uploadView) WantingNeighbors() ([]incentive.PeerID, bool) {
	return v.n.neighborsLocked(true, true), true
}
func (v uploadView) AnyWanting() (wanting, ok bool) { return v.n.anyWantingLocked(true), true }

// eligibleLocked reports whether link r passes a view's filter at n.now (mu
// held): its window has room when roomOnly is set, and it lacks a piece we
// hold when wanting is set.
func (n *Node) eligibleLocked(r *remote, roomOnly, wanting bool) bool {
	return (!roomOnly || r.inFlight(n.now) < maxInFlight) && (!wanting || r.have.Needs(n.myBits))
}

// neighborsLocked lists the IDs of the links that pass the filter, in
// ascending order, into neighborScratch (mu held).
func (n *Node) neighborsLocked(roomOnly, wanting bool) []incentive.PeerID {
	out := n.neighborScratch[:0]
	for _, r := range n.links {
		if n.eligibleLocked(r, roomOnly, wanting) {
			out = append(out, incentive.PeerID(r.id))
		}
	}
	n.neighborScratch = out
	return out
}

// anyWantingLocked reports whether any link passes the wanting filter,
// stopping at the first that does (mu held).
func (n *Node) anyWantingLocked(roomOnly bool) bool {
	for _, r := range n.links {
		if n.eligibleLocked(r, roomOnly, true) {
			return true
		}
	}
	return false
}

// WantsFromMe reports whether linked peer p lacks a piece we hold, reading
// the two holdings up to the first word where one does.
func (v nodeView) WantsFromMe(p incentive.PeerID) bool {
	r := v.n.linkedLocked(int(p))
	return r != nil && r.have.Needs(v.n.myBits)
}

// view returns the strategy view; callers must hold n.mu.
func (n *Node) view() incentive.NodeView { return nodeView{n: n} }

// resendCooldown is how long a (peer, piece) send suppresses duplicates
// while we wait for the peer's Have.
const resendCooldown = 3 * time.Second

// reciprocationGrace is how long a seal's key stays strictly escrowed for a
// *trusted* receiver — one that has genuinely reciprocated before — ahead of
// the endgame fallback releasing it (see sweepGrace): when the swarm is
// drained and nobody needs anything, the obligation is unfulfillable through
// no fault of the receiver. Untrusted receivers get no grace: reciprocate or
// starve.
const reciprocationGrace = 2 * time.Second

// uploadLoop is the runtime around tick: it owns the DecisionInterval
// ticker and hands tick each tick's own instant as nanoseconds since Start.
func (n *Node) uploadLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.DecisionInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case t := <-ticker.C:
			n.tick(t.Sub(n.start).Nanoseconds())
		}
	}
}

// maxInFlight is how many pieces we pushed to one link and it has not yet
// announced before the upload view leaves that link out: the window, not the
// tick, paces an unthrottled node.
const maxInFlight = 8

// tick is one decision step at now, nanoseconds since Start. It sets n.now,
// which decisions between ticks read, closes transient conns past their
// linger, sweeps the grace queue, refills, pushes strategy-chosen pieces
// until the strategy names no link with room or a pick is refused —
// throttled, also while a token bucket refilled at UploadRate covers a
// piece — and ends by flushing the links, which sends those pushes. A
// free-rider skips only the pushes: it still owes announcements and
// receipts, and still needs links to download over.
func (n *Node) tick(now int64) {
	n.mu.Lock()
	elapsed := now - n.now
	n.now = now
	for conn, closeBy := range n.conns {
		if closeBy != 0 && now >= closeBy {
			conn.Close()
			delete(n.conns, conn)
		}
	}
	n.mu.Unlock()
	n.sweepGrace(now)
	n.refill()
	if !n.cfg.FreeRide {
		n.push(now, elapsed)
	}
	n.flushLinks()
}

// push is the tick's uploads at now, elapsed after the previous tick.
func (n *Node) push(now, elapsed int64) {
	if n.cfg.UploadRate <= 0 {
		for n.tryUpload(now) {
		}
		return
	}
	pieceSize := float64(n.cfg.Store.Manifest().PieceSize)
	n.budget = min(n.budget+n.cfg.UploadRate*float64(elapsed)/1e9, 4*pieceSize)
	for n.budget >= pieceSize && n.tryUpload(now) {
		n.budget -= pieceSize
	}
}

// flushLinks is the flush clock for traffic no counterpart is blocked on:
// the tick's pushes, piece announcements (gains past a link's announced
// cursor) and receipt copies signal no writer when they arise, and this
// pass, closing each tick, signals every link that has any, so a link's
// writer wakes once a tick and drains them together — one walk of n.links
// under mu (outMu nests inside it), nothing allocated, no idle link woken.
// Frames a counterpart is waiting on signal their writer from enqueue, and
// whatever drain they cause carries the link's pending frames with it.
func (n *Node) flushLinks() {
	n.mu.Lock()
	for _, r := range n.links {
		r.flush()
	}
	n.mu.Unlock()
}

// tryUpload asks the strategy for a receiver among the links whose window
// has room and pushes one piece at now; reports whether a send happened. A
// pick that bypasses Neighbors (a T-Chain obligation, BitTorrent's ranked
// contributors) can still name a full window, and it is refused, as is a
// receiver whose bulk queue is full, before any piece work: that ends the
// tick's pushes instead of piling frames onto a link that has not caught up.
func (n *Node) tryUpload(now int64) bool {
	n.mu.Lock()
	receiverID := n.strategy.NextReceiver(uploadView{nodeView{n}})
	if receiverID == incentive.NoPeer {
		n.mu.Unlock()
		return false
	}
	r := n.linkedLocked(int(receiverID))
	if r == nil {
		n.mu.Unlock()
		return false
	}
	if r.inFlight(now) >= maxInFlight || r.dataBacklogged() {
		n.mu.Unlock()
		return false
	}
	idx := n.pickWantedLocked(r, r.cooling) // inFlight brought it up to now
	if idx < 0 {
		n.mu.Unlock()
		return false
	}
	r.cool(idx, now)
	// Trace decision while mu still guards pieceTrace: continue the trace
	// this piece arrived under, or let the sampler mint a fresh one. Nil
	// means untraced — the send path then runs the pre-tracing code exactly.
	var ut *uploadTrace
	if n.tracer != nil {
		ut = n.uploadTraceLocked(idx, r.id)
	}
	n.mu.Unlock()

	data, err := n.cfg.Store.GetRef(idx)
	if err != nil {
		return false
	}
	if n.cfg.Algorithm == algo.TChain && !n.cfg.SeedMode {
		return n.sendSealed(r, idx, data, now, ut)
	}
	return n.sendPiece(r, idx, data, protocol.NoRepay, ut)
}

// pickWantedLocked returns a uniformly random piece we hold that r lacks
// and exclude does not mark, or -1 (mu held). The upload scheduler excludes
// r's cooling set; the reciprocation path falls back to nil (see
// pickRepaymentLocked).
func (n *Node) pickWantedLocked(r *remote, exclude *piece.Bitfield) int {
	return piece.SelectRandomMissing(n.rng, r.have, n.myBits, exclude)
}

// pickRepaymentLocked picks the piece that repays one of r's seals at now,
// or -1 (mu held), and starts its resend cooldown so the upload scheduler
// does not seal r the same piece a moment later. A piece outside r's
// cooling set is preferred — one we sealed to r just now
// would arrive twice — but when every wanted piece is cooling any of them
// will do: a recently pushed piece is still a valid (and verifiable)
// repayment.
func (n *Node) pickRepaymentLocked(r *remote, now int64) int {
	idx := n.pickWantedLocked(r, r.coolingAt(now))
	if idx < 0 {
		idx = n.pickWantedLocked(r, nil)
	}
	if idx >= 0 {
		r.cool(idx, now)
	}
	return idx
}

// pushStamp is one coolLog entry: piece idx was pushed at tick instant at.
type pushStamp struct {
	at  int64
	idx int
}

// coolingAt returns r's cooling set as of tick instant now (mu held), after
// unmarking every piece whose resendCooldown has run out — those stamps are
// a prefix of the log. The spent prefix is dropped once it outweighs the
// live stamps, so the log stays within twice its live length at amortized
// O(1) per push.
func (r *remote) coolingAt(now int64) *piece.Bitfield {
	for r.coolHead < len(r.coolLog) && now-r.coolLog[r.coolHead].at >= int64(resendCooldown) {
		idx := r.coolLog[r.coolHead].idx
		r.cooling.Clear(idx)
		if !r.have.Has(idx) {
			r.flying--
		}
		r.coolHead++
	}
	if r.coolHead > len(r.coolLog)/2 {
		r.coolLog = r.coolLog[:copy(r.coolLog, r.coolLog[r.coolHead:])]
		r.coolHead = 0
	}
	return r.cooling
}

// inFlight counts the pieces we pushed to r within resendCooldown that r
// has not announced, as of tick instant now (mu held).
func (r *remote) inFlight(now int64) int {
	r.coolingAt(now)
	return r.flying
}

// markHave records r's announcement of piece idx (mu held); a piece it had
// not announced leaves the window if it was cooling.
func (r *remote) markHave(idx int) {
	if r.have.Set(idx) && r.cooling.Has(idx) {
		r.flying--
	}
}

// cool starts piece idx's resend cooldown at now (mu held); a piece already
// cooling keeps its stamp. now must not precede an earlier stamp: both
// callers, tryUpload and pickRepaymentLocked, take it from the tick, whose
// instants only grow.
func (r *remote) cool(idx int, now int64) {
	if r.cooling.Set(idx) {
		r.coolLog = append(r.coolLog, pushStamp{at: now, idx: idx})
		if !r.have.Has(idx) {
			r.flying++
		}
	}
}

// sendPiece pushes plaintext and reports whether the frame was accepted
// (repaysKeyID = NoRepay for ordinary uploads). Ordinary uploads are tick
// pushes; repayment pieces travel as replies, control frames that wake the
// writer — dropping one would strand the counterpart's escrowed key
// forever. Accounting only happens for accepted frames. ut, when non-nil,
// traces the push (see trace.go); the frame then carries the trace context
// to the receiver.
func (n *Node) sendPiece(r *remote, idx int, data []byte, repaysKeyID uint64, ut *uploadTrace) bool {
	msg := protocol.Piece{Index: int32(idx), RepaysKeyID: repaysKeyID, Data: data}
	if ut != nil {
		msg.Trace = ut.tc
	}
	class := reply // a repayment: the counterpart's key waits on it
	if repaysKeyID == protocol.NoRepay {
		class = tickPush
	}
	if !r.enqueue(msg, class, ut) {
		return false
	}
	n.noteSent(r, len(data))
	return true
}

// noteSent accounts one accepted payload push to r: the upload counter,
// then the strategy's view of it.
func (n *Node) noteSent(r *remote, bytes int) {
	n.metrics.uploadedBytes.Add(int64(bytes))
	n.mu.Lock()
	n.strategy.OnSent(n.view(), incentive.PeerID(r.id), float64(bytes))
	n.mu.Unlock()
}

// sendSealed pushes an encrypted piece at now, booked in the escrow as owed
// by r; the key stays there until r reciprocates — a repaying piece, or any
// witness's receipt for a forward — or the endgame sweep lets it go. ut,
// when non-nil, traces the push.
func (n *Node) sendSealed(r *remote, idx int, data []byte, now int64, ut *uploadTrace) bool {
	sealed, err := n.escrow.SealFor(data, r.id, idx, now+int64(reciprocationGrace))
	if err != nil {
		return false
	}
	msg := protocol.SealedPiece{
		Index:      int32(idx),
		KeyID:      sealed.KeyID,
		Nonce:      sealed.Nonce,
		Ciphertext: sealed.Ciphertext,
		OriginID:   int32(n.cfg.ID),
		OriginAddr: n.Addr(),
	}
	if ut != nil {
		msg.Trace = ut.tc
	}
	if !r.enqueue(msg, tickPush, ut) {
		// Queue full: unwind the seal as if it never happened, so the escrow
		// does not accumulate unsent obligations.
		n.escrow.Revoke(sealed.KeyID)
		return false
	}
	n.noteSent(r, len(data))
	return true
}

// sweepGrace is the endgame fallback, run by tick at now: the escrow
// releases what trusted receivers still owe past their reciprocationGrace,
// and each key goes out on the link that makes its receiver "still linked"
// — looked up in the section that said so.
func (n *Node) sweepGrace(now int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range n.escrow.Sweep(now, func(id int) bool { return n.linkedLocked(id) != nil }) {
		n.metrics.graceReleases.Add(1)
		n.linkedLocked(k.Receiver).sendKey(k)
	}
}
