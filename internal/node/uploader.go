package node

import (
	"math/rand"
	"slices"
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
// view, except that its lists leave out every link that holds no request of
// ours to serve, so a strategy's draw lands on a link that asked for a piece.
// It embeds nodeView rather than adding a field so it stays one pointer
// wide, which an interface holds without allocating.
type uploadView struct{ nodeView }

func (v uploadView) Neighbors() []incentive.PeerID { return v.n.neighborsLocked(true, false) }
func (v uploadView) WantingNeighbors() ([]incentive.PeerID, bool) {
	return v.n.neighborsLocked(true, true), true
}
func (v uploadView) AnyWanting() (wanting, ok bool) { return v.n.anyWantingLocked(true), true }

// eligibleLocked reports whether link r passes a view's filter (mu held):
// it holds a request we can serve when requested is set, and it lacks a
// piece we hold when wanting is set.
func (n *Node) eligibleLocked(r *remote, requested, wanting bool) bool {
	return (!requested || r.wants.n > 0) && (!wanting || r.have.Needs(n.myBits))
}

// neighborsLocked lists the IDs of the links that pass the filter, in
// ascending order, into neighborScratch (mu held).
func (n *Node) neighborsLocked(requested, wanting bool) []incentive.PeerID {
	out := n.neighborScratch[:0]
	for _, r := range n.links {
		if n.eligibleLocked(r, requested, wanting) {
			out = append(out, incentive.PeerID(r.id))
		}
	}
	n.neighborScratch = out
	return out
}

// anyWantingLocked reports whether any link passes the wanting filter,
// stopping at the first that does (mu held).
func (n *Node) anyWantingLocked(requested bool) bool {
	for _, r := range n.links {
		if n.eligibleLocked(r, requested, true) {
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

// resendCooldown is how long a request may wait to be served before its
// piece returns to the pool, to be asked of any link that holds it.
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

// maxInFlight is how many pieces a node asks one link for at a time: the
// length of each request queue, and so the window that paces an
// unthrottled sender, which uploads only what it was asked for.
const maxInFlight = 8

// tick is one decision step at now, nanoseconds since Start. It sets n.now,
// which decisions between ticks read, closes transient conns past their
// linger, sweeps the grace queue, refills, renews its requests, serves
// strategy-chosen requests until the strategy names no requesting link or a
// pick is refused — throttled, also while a token bucket refilled at
// UploadRate covers a piece — and ends by flushing the links, which sends
// those pushes and requests. A free-rider skips only the pushes.
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
	n.request(now)
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

// tryUpload asks the strategy for a receiver among the links holding a
// request of ours and serves that link's oldest request at now; reports
// whether a send happened. A pick that bypasses Neighbors (BitTorrent's
// ranked contributors) can still name a link that asked for nothing, and it
// is refused, as is a receiver whose bulk queue is full, before any piece
// work: that ends the tick's pushes instead of piling frames onto a link
// that has not caught up. A request whose frame is refused anyway goes back
// to the head of the queue.
func (n *Node) tryUpload(now int64) bool {
	n.mu.Lock()
	receiverID := n.strategy.NextReceiver(uploadView{nodeView{n}})
	if receiverID == incentive.NoPeer {
		n.mu.Unlock()
		return false
	}
	r := n.linkedLocked(int(receiverID))
	if r == nil || r.wants.n == 0 || r.dataBacklogged() {
		n.mu.Unlock()
		return false
	}
	head := r.wants.q[0]
	r.wants.drop(0)
	idx := int(head.idx)
	// Trace decision while mu still guards pieceTrace: continue the trace
	// this piece arrived under, or let the sampler mint a fresh one. Nil
	// means untraced — the send path then runs the pre-tracing code exactly.
	var ut *uploadTrace
	if n.tracer != nil {
		ut = n.uploadTraceLocked(idx, r.id)
	}
	n.mu.Unlock()

	data, err := n.cfg.Store.GetRef(idx)
	sent := err == nil
	if sent && n.cfg.Algorithm == algo.TChain && !n.cfg.SeedMode {
		sent = n.sendSealed(r, idx, data, now, ut)
	} else if sent {
		sent = n.sendPiece(r, idx, data, protocol.NoRepay, ut)
	}
	if !sent {
		n.mu.Lock()
		r.wants.unshift(head)
		n.mu.Unlock()
	}
	return sent
}

// ask is one request-queue entry: piece idx, asked (received, on the
// sender's side) at tick instant at.
type ask struct {
	at  int64
	idx int32
}

// asks is a link's request queue, oldest first: at most maxInFlight
// entries, held inline in the remote, so a link costs no allocation for it.
type asks struct {
	q [maxInFlight]ask
	n int
}

// drop removes entry i.
func (a *asks) drop(i int) {
	copy(a.q[i:a.n], a.q[i+1:a.n])
	a.n--
}

// find returns the position of piece idx's entry, or -1.
func (a *asks) find(idx int) int {
	return slices.IndexFunc(a.q[:a.n], func(e ask) bool { return int(e.idx) == idx })
}

// unshift puts e back at the head, unless the queue has filled meanwhile.
func (a *asks) unshift(e ask) {
	if a.n < maxInFlight {
		copy(a.q[1:a.n+1], a.q[:a.n])
		a.q[0], a.n = e, a.n+1
	}
}

// dropPiece removes the entry for piece idx and reports whether there was one.
func (a *asks) dropPiece(idx int) bool {
	if i := a.find(idx); i >= 0 {
		a.drop(i)
		return true
	}
	return false
}

// request runs on the tick at now: on each link, a piece asked
// resendCooldown ago or earlier returns to the pool, and the queue is
// refilled with pieces the link holds that we neither hold nor have asked
// anyone for, rarest among our links first — the simulator's pickPiece rule,
// one draw a pick on the requester's own rng — so no two senders upload a
// piece to us. The availability and the pending set are built the first time
// the node lacks something, so a seed never keeps them.
func (n *Node) request(now int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.myBits.Complete() {
		return
	}
	if n.avail == nil {
		n.avail = piece.NewAvailability(n.myBits.Size())
		n.pending = piece.NewBitfield(n.myBits.Size())
		for _, r := range n.links {
			n.avail.AddBitfield(r.have)
		}
	}
	for _, r := range n.links {
		for r.asked.n > 0 && now-r.asked.q[0].at >= int64(resendCooldown) {
			n.unaskLocked(r, int(r.asked.q[0].idx))
		}
		n.askLocked(r, now)
	}
}

// unaskLocked returns piece idx, asked of r, to the pool (mu held).
func (n *Node) unaskLocked(r *remote, idx int) {
	if r.asked.dropPiece(idx) {
		n.pending.Clear(idx)
	}
}

// askLocked fills r's request queue at now (mu held) and hands the new
// entries to its writer.
func (n *Node) askLocked(r *remote, now int64) {
	from := r.asked.n
	for r.asked.n < maxInFlight {
		idx := n.avail.PickRarestMissing(n.reqRng, n.myBits, r.have, n.pending)
		if idx < 0 {
			break
		}
		n.pending.Set(idx)
		r.asked.q[r.asked.n] = ask{at: now, idx: int32(idx)}
		r.asked.n++
	}
	if r.asked.n == from {
		return
	}
	// The unsent and the new requests are copied to the tail of the request
	// log, which only grows into fresh capacity (a window handed to a Mem
	// link is never written again); the newest maxInFlight of them are the
	// window the writer sends, since any older unsent one has expired.
	if cap(n.reqLog)-len(n.reqLog) < 2*maxInFlight {
		n.reqLog = make([]int32, 0, reqLogChunk)
	}
	r.outMu.Lock()
	start := len(n.reqLog)
	n.reqLog = append(n.reqLog, r.requests...)
	for _, a := range r.asked.q[from:r.asked.n] {
		n.reqLog = append(n.reqLog, a.idx)
	}
	start = max(start, len(n.reqLog)-maxInFlight)
	r.requests = n.reqLog[start:len(n.reqLog):len(n.reqLog)]
	r.outMu.Unlock()
}

// reqLogChunk is how many requests one block of the request log holds.
const reqLogChunk = 1024

// answeredLocked ends the request for piece index, now held (mu held): it is
// no longer pending, and leaves the queue of the link it was asked of.
func (n *Node) answeredLocked(index int) {
	if n.pending == nil || !n.pending.Clear(index) {
		return
	}
	for _, r := range n.links {
		if r.asked.dropPiece(index) {
			return
		}
	}
}

// wantLocked books r's requests (mu held), oldest first. A request is
// ignored for a piece we do not hold, one r holds, or one it has already
// asked for; past maxInFlight outstanding the oldest gives way, since the
// requester returns its oldest requests to the pool first.
func (n *Node) wantLocked(r *remote, requests []int32) {
	for _, idx := range requests {
		i := int(idx)
		if !n.myBits.Has(i) || r.have.Has(i) || r.wants.find(i) >= 0 {
			continue
		}
		if r.wants.n == maxInFlight {
			r.wants.drop(0)
		}
		r.wants.q[r.wants.n] = ask{at: n.now, idx: idx}
		r.wants.n++
	}
}

// markHaveLocked records r's announcement of piece idx (mu held), in the
// availability too; r's request for the piece, if any, is moot.
func (n *Node) markHaveLocked(r *remote, idx int) {
	if !r.have.Set(idx) {
		return
	}
	if n.avail != nil {
		n.avail.AddPiece(idx)
	}
	r.wants.dropPiece(idx)
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
