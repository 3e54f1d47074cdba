package node

import (
	"maps"
	"slices"
	"time"

	"repro/internal/attest"
	"repro/internal/incentive"
	"repro/internal/protocol"
	"repro/internal/tchain"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// trackConn registers conn for Stop's sweep to close, and for tick to close
// linger (0: never) past the latest tick. Once Stop has swept it closes conn
// and reports false. The caller defers untrackConn.
func (n *Node) trackConn(conn transport.Conn, linger time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopping {
		conn.Close()
		return false
	}
	n.conns[conn] = 0
	if linger > 0 {
		n.conns[conn] = n.now + int64(linger)
	}
	return true
}

// untrackConn closes conn and drops it from n.conns.
func (n *Node) untrackConn(conn transport.Conn) {
	conn.Close()
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
}

// handleConn performs the handshake and then dispatches inbound messages
// until the connection dies. arrival is the link's place in this node's
// accept order, 0 when this node dialed it; the dialer speaks first.
func (n *Node) handleConn(conn transport.Conn, arrival uint64) {
	dialer := arrival == 0
	if !n.trackConn(conn, 0) {
		return
	}
	defer n.untrackConn(conn)

	hello := protocol.Hello{
		PeerID:    int32(n.cfg.ID),
		NumPieces: int32(n.cfg.Store.Manifest().NumPieces()),
		Addr:      n.Addr(),
	}
	if n.identity != nil {
		hello.PubKey = n.identity.Public()
	}
	// announced is the gain-log position our Bitfield is current to; the
	// link's writer starts announcing there (see handshakeBitfield).
	var announced int32
	sendHandshake := func() bool {
		var bits protocol.Bitfield
		bits, announced = n.handshakeBitfield()
		return conn.Send(hello) == nil && conn.Send(bits) == nil
	}
	if dialer && !sendHandshake() {
		return
	}
	first, err := conn.Recv()
	if err != nil {
		return
	}
	theirHello, ok := first.(protocol.Hello)
	if !ok {
		// Not a handshake. The one frame a connection may open with instead
		// is a witness receipt from a witness with no link to us (see
		// sendTransientReceipt); anything else, and anything after it, ends
		// the connection. No authenticated link: a signing node accepts
		// Ed25519 only.
		if m, receipt := first.(protocol.AttestedReceipt); receipt && !dialer {
			n.handleAttestedReceipt(nil, m)
		}
		return
	}
	if theirHello.NumPieces != hello.NumPieces {
		return // different swarm
	}
	peerID := int(theirHello.PeerID)
	if peerID < 0 {
		// Negative IDs are the strategies' pseudo-peers. A neighbor
		// announcing -1 *is* incentive.NoPeer: every time the strategy
		// picked it, tryUpload would read "nothing to send" and the tick
		// would stop pushing.
		n.log.Warn("handshake refused: negative peer ID", "peer", peerID)
		return
	}
	if n.directory != nil && len(theirHello.PubKey) > 0 {
		// Pin the peer's key trust-on-first-use. A key that conflicts with
		// the pinned (or registered) one is an imposter — refuse the link; a
		// sealed directory likewise refuses identities it was not told about.
		if err := n.directory.Observe(theirHello.PeerID, theirHello.PubKey); err != nil {
			n.metrics.attestTOFURejected.Add(1)
			n.log.Warn("handshake refused: identity conflicts with directory",
				"peer", peerID, "err", err)
			return
		}
	}
	if !dialer && !sendHandshake() {
		return
	}

	r := newRemote(n, peerID, conn, theirHello.Addr, arrival, announced)
	n.mu.Lock()
	if peerID == n.cfg.ID || !n.linkLocked(r) {
		n.mu.Unlock()
		return // duplicate connection (simultaneous dial) or self-dial
	}
	n.contacts = slices.DeleteFunc(n.contacts, func(c contact) bool { return c.id == peerID })
	var exchange protocol.Message
	var overtaken []*remote
	if !dialer {
		exchange = n.peerExchangeLocked(r)
		overtaken = n.overtakenLocked(r)
	}
	n.mu.Unlock()
	n.log.Debug("peer connected", "peer", peerID, "dialer", dialer)
	if dialer {
		n.releaseReceipts(theirHello.Addr, r)
	}
	if exchange != nil {
		r.enqueue(exchange, reply, nil)
	}
	for _, p := range overtaken {
		p.enqueue(protocol.Nodes{Contacts: []protocol.NodeInfo{{ID: int32(r.id), Addr: r.addr}}}, reply, nil)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		r.writeLoop()
	}()
	defer r.closeOutbox()

	defer func() {
		n.mu.Lock()
		n.unlinkLocked(r)
		n.escrow.Forget(peerID) // under mu: no new link to peerID seals in between
		// Its seals parked here are dead too: its side of this unlink
		// Forgets their keys, and no Key can arrive but on this link.
		maps.DeleteFunc(n.pendingSeals, func(ref sealRef, _ pendingSeal) bool { return ref.origin == peerID })
		n.mu.Unlock()
		n.log.Debug("peer disconnected", "peer", peerID)
	}()

	// The loop ends when the connection does, not when Stop begins: Stop
	// drains the writers first and only then closes every connection. A
	// reader that returned at the first frame after Stop would close the
	// link under a drain still writing (the tail of receipt copies lost),
	// and a TCP socket closed with input unread is reset, not shut.
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		n.metrics.framesIn.Add(1)
		if done := n.dispatch(r, msg); done {
			return
		}
	}
}

// dispatch handles one inbound message; it reports whether the connection
// should close. Messages arrive under the transport's zero-copy contract:
// Piece.Data and Bitfield.Bits may alias connection-owned scratch that the
// next Recv reuses, so their handlers consume them synchronously (Piece via
// Store.Put's verify-and-copy) unless the link's payloads are frozen, as
// over Mem, where a verified Piece.Data is adopted as it is; a
// SealedPiece's ciphertext is the frame's own, parked and forwarded as it
// is and never written to.
func (n *Node) dispatch(r *remote, msg protocol.Message) bool {
	switch m := msg.(type) {
	case protocol.Bitfield:
		// The peer's geometry must be the manifest's before any bit is
		// touched: a larger NumPieces would index past r.have (Set panics,
		// under n.mu) or spin this loop for 2^31 rounds holding the lock.
		size := r.have.Size()
		if int(m.NumPieces) != size || len(m.Bits) < (size+7)/8 {
			return n.dropHostile(r, msg)
		}
		n.mu.Lock()
		for i := 0; i < size; i++ {
			if m.Bits[i/8]&(1<<(uint(i)%8)) != 0 {
				n.markHaveLocked(r, i)
			}
		}
		n.mu.Unlock()

	case protocol.Have:
		if m.Index < 0 || int(m.Index) >= r.have.Size() {
			return n.dropHostile(r, msg)
		}
		n.mu.Lock()
		n.markHaveLocked(r, int(m.Index))
		n.mu.Unlock()

	case protocol.HaveBatch:
		// Every index is checked before the lock is taken, as for a single
		// Have; an honest peer announces a piece once and has at most
		// maxInFlight requests outstanding, so a longer list is hostile too.
		// Both may be windows of the sender's own logs (Mem): read-only.
		size := r.have.Size()
		if len(m.Indices) > size || len(m.Requests) > maxInFlight {
			return n.dropHostile(r, msg)
		}
		for _, list := range [2][]int32{m.Indices, m.Requests} {
			for _, idx := range list {
				if idx < 0 || int(idx) >= size {
					return n.dropHostile(r, msg)
				}
			}
		}
		n.mu.Lock()
		for _, idx := range m.Indices {
			n.markHaveLocked(r, int(idx))
		}
		n.wantLocked(r, m.Requests)
		n.mu.Unlock()

	case protocol.Piece:
		n.handlePiece(r, m)

	case protocol.SealedPiece:
		// A frame may not speak for another peer: the witness attests
		// ForwarderID, and handleKey credits OriginID, so each must be the
		// peer this link authenticated.
		speaker := m.OriginID
		if m.Forwarded {
			speaker = m.ForwarderID
		}
		if int(speaker) != r.id {
			return n.dropHostile(r, msg)
		}
		manifest := n.cfg.Store.Manifest()
		if m.Index < 0 || int(m.Index) >= manifest.NumPieces() {
			return false // malformed index; nothing downstream would accept it
		}
		// A seal is a whole piece: a short one parks and opens to nothing,
		// and a short forward would buy the forwarder's keys for a byte.
		if len(m.Ciphertext) != manifest.PieceLength(int(m.Index)) {
			return n.dropHostile(r, msg)
		}
		n.handleSealed(r, m)

	case protocol.Key:
		n.handleKey(r, m)

	case protocol.Attest:
		n.handleAttest(r, m)

	case protocol.AttestedReceipt:
		n.handleAttestedReceipt(r, m)

	case protocol.Nodes:
		// Hints, not claims: a bad contact costs one failed dial, never the
		// link that carried it.
		n.learnContacts(m.Contacts)

	case protocol.Bye:
		return true
	}
	return false
}

// dropHostile ends the link to a peer whose frame no honest node could
// have sent (an index or geometry outside the manifest, a sealed piece
// speaking for another peer). It always reports true, dispatch's "close
// this connection"; the node itself carries on.
func (n *Node) dropHostile(r *remote, msg protocol.Message) bool {
	n.log.Warn("peer dropped: frame no honest peer sends", "peer", r.id, "frame", msg.MsgType())
	return true
}

// handlePiece verifies and stores a plaintext piece, credits the sender,
// and — if the piece repays a seal the sender owes us — releases that key,
// and only that one. On a link
// whose payloads are frozen (Mem) m.Data is the sender's stored bytes, and
// Store.Adopt keeps them after the same verify; otherwise m.Data may alias
// the connection's decode scratch, and Store.Put copies it into the store
// after verifying, after which the scratch is free for the next Recv.
//
// Only a first delivery earns anything. The store accepts a copy of a held
// piece (two peers racing the same index, or a client re-pushing one piece
// on purpose), and every receipt carries a fresh sequence number, so the
// ledger's replay window would credit each copy; whether this is the
// delivery that set the bit is therefore decided once, under mu, and a
// duplicate is counted and otherwise ignored.
func (n *Node) handlePiece(r *remote, m protocol.Piece) {
	h := n.hopStart(m.Trace, r.id, int(m.Index))
	var err error
	if r.frozen {
		err = n.cfg.Store.Adopt(int(m.Index), m.Data)
	} else {
		err = n.cfg.Store.Put(int(m.Index), m.Data)
	}
	if err != nil {
		return // forged data; the store verified the hash
	}
	h.step(tracing.SpanStoreVerify)
	// Continuation anchored at the verify span: onward uploads of this piece
	// extend the same trace from here.
	cont := h.context()
	n.mu.Lock()
	first := n.noteDeliveryLocked(r.id, int(m.Index), len(m.Data), cont)
	n.mu.Unlock()
	if first {
		n.receiptFor(r, r.id, m.Index, len(m.Data), h)
		if h != nil && n.logDebug {
			n.log.Debug("piece verified", "piece", m.Index, "from", r.id,
				"trace", traceHex(m.Trace.TraceID))
		}
	}

	if m.RepaysKeyID != protocol.NoRepay {
		// Direct reciprocation for a seal we sent to r. It proves upload
		// spent, not utility, so it counts whatever it carried.
		if k, ok := n.escrow.Confirm(r.id, m.RepaysKeyID); ok {
			r.sendKey(k)
		}
	}
}

// noteDeliveryLocked books one verified plaintext delivery of piece index
// from peer sender (mu held) and reports whether it was the first: the
// delivery that sets the bit is attributed to its sender in the byte
// counters and the strategy, announced, and handed its trace continuation,
// its request is answered, and every seal still parked for the piece is
// dropped as moot; any later copy only counts as duplicate bytes.
func (n *Node) noteDeliveryLocked(sender, index, size int, cont tracing.Context) bool {
	if !n.noteGainedLocked(index) {
		n.metrics.noteDuplicate(size, n.myBits.Count(), n.myBits.Size())
		return false
	}
	n.answeredLocked(index)
	maps.DeleteFunc(n.pendingSeals, func(_ sealRef, p pendingSeal) bool { return p.index == index })
	if n.pieceTrace != nil && cont.Traced() {
		n.pieceTrace[index] = cont
	}
	n.metrics.noteDownload(sender, size)
	n.strategy.OnReceived(n.view(), incentive.PeerID(sender), float64(size))
	return true
}

// receiptFor signs (or, unsigned, claims) the receipt for a first delivery
// from sender, credits it, and queues the sender's copy on to — the link to
// that sender, nil when it has gone. It runs outside n.mu: Ed25519 is two
// orders of magnitude slower than anything else under that lock, so the
// attest.sign span of a traced delivery also covers the bookkeeping section
// before it.
func (n *Node) receiptFor(to *remote, sender int, index int32, size int, h *hopTrace) {
	att := n.signReceipt(int32(sender), index, size)
	h.step(tracing.SpanAttestSign)
	n.creditAttestation(to, att, h)
	if n.credited.Add(1) == int32(len(n.gainLog)) {
		close(n.completeCh) // the last piece the node lacked, credited
	}
}

// handleSealed parks the ciphertext and reciprocates per T-Chain: repay
// the origin directly when it has asked us for a piece, otherwise forward
// the seal to a third peer (who will send the origin a receipt). Free-riders
// renege. The piece stays pending on the link that sealed it until the key
// opens it or the request's cooldown runs out. dispatch has checked the
// index and that the ciphertext is the whole piece.
func (n *Node) handleSealed(r *remote, m protocol.SealedPiece) {
	h := n.hopStart(m.Trace, r.id, int(m.Index))

	if m.Forwarded {
		// We are the witness of someone else's reciprocation: confirm it to
		// the origin so the forwarder earns its key. The ciphertext itself is
		// dropped — the origin releases the key to the forwarder only, so a
		// witness could never open a copy it kept. While a dial of ours to
		// the origin is under way, the receipt waits for that link.
		w := witnessed{m, int64(len(m.Ciphertext)), h.context()}
		w.seal.Ciphertext = nil
		n.mu.Lock()
		origin := n.linkedLocked(int(m.OriginID))
		held := origin == nil && m.OriginAddr != "" && n.dialing[m.OriginAddr]
		if held {
			n.heldReceipts = append(n.heldReceipts, w)
		}
		n.mu.Unlock()
		if !held {
			n.deliverReceipt(origin, m.OriginAddr, w)
		}
		return
	}

	// The ciphertext is the frame's own buffer (the sender's, over Mem):
	// parked, and possibly forwarded, as it is — nothing writes to it.
	n.mu.Lock()
	if n.myBits.Has(int(m.Index)) {
		// Nothing to gain; skip reciprocating for a duplicate. A first
		// delivery sets the bit in the section that drops the index's parked
		// seals, so a seal parked before that is still dropped there.
		n.mu.Unlock()
		return
	}
	sealed := tchain.Sealed{KeyID: m.KeyID, Nonce: m.Nonce, Ciphertext: m.Ciphertext}
	n.pendingSeals[sealRef{origin: r.id, keyID: m.KeyID}] = pendingSeal{sealed: sealed, index: int(m.Index), tc: h.context()}
	n.mu.Unlock()

	if n.cfg.FreeRide {
		return // renege: keep unreadable ciphertext, upload nothing
	}
	n.reciprocate(r, m)
}

// witnessReceipt builds the confirmation a witness owes the origin of the
// forwarded seal m: the forwarder the link authenticated relayed this piece.
// origin is our link to that origin, nil without one. An unsigned node sends
// the bare claim (the paper's trust model); a signing node signs it — the
// origin releases the key only for a receipt minted by an admitted
// identity that names the exact sealed piece — and which key signs is read
// off the link: MAC'd to it (attest.SchemeLink) when it is keyed, which the
// forwarder is no party to; Ed25519 when the receipt leaves over a
// transient connection or the origin knows us by public key alone.
func (n *Node) witnessReceipt(origin *remote, w witnessed) protocol.Message {
	m, size := w.seal, w.size
	att := attest.Claim(m.ForwarderID, int32(n.cfg.ID), m.Index, size)
	if n.identity != nil {
		hash := [32]byte(n.cfg.Store.Manifest().Hashes[m.Index])
		if origin != nil && origin.linkKeyed {
			att = n.identity.AttestLink(m.OriginID, m.ForwarderID, m.Index, hash, size)
		} else {
			att = n.identity.Attest(attest.SchemeEd25519, m.ForwarderID, m.Index, hash, size)
		}
		n.metrics.attestSigned.Add(1)
	}
	return protocol.AttestedReceipt{KeyID: m.KeyID, Att: att, Trace: w.tc}
}

// witnessed is a forward a witness owes a receipt for: the seal without its
// ciphertext, the ciphertext's length and the trace the receipt continues.
type witnessed struct {
	seal protocol.SealedPiece
	size int64
	tc   tracing.Context
}

// deliverReceipt sends the receipt for w over origin, our link to its
// origin; without one, below a full mesh, over a transient connection to
// addr, so the forwarder still earns its key.
func (n *Node) deliverReceipt(origin *remote, addr string, w witnessed) {
	if origin != nil {
		origin.enqueue(n.witnessReceipt(origin, w), reply, nil)
	} else if addr != "" {
		n.sendTransientReceipt(addr, n.witnessReceipt(nil, w))
	}
}

// releaseReceipts delivers the receipts held for the origin at addr: over
// the link to it once that link is up, rather than signed with the identity
// key for a transient connection that races the link; once our dial there
// has ended without one (link nil), over a transient connection after all.
func (n *Node) releaseReceipts(addr string, link *remote) {
	n.mu.Lock()
	var due []witnessed
	n.heldReceipts = slices.DeleteFunc(n.heldReceipts, func(w witnessed) bool {
		mine := w.seal.OriginAddr == addr && (link == nil || int(w.seal.OriginID) == link.id)
		if mine {
			due = append(due, w)
		}
		return mine
	})
	n.mu.Unlock()
	for _, w := range due {
		n.deliverReceipt(link, addr, w)
	}
}

// reciprocate fulfils the obligation created by a sealed piece.
func (n *Node) reciprocate(r *remote, m protocol.SealedPiece) {
	// Direct: serve the origin's oldest request of us, as plaintext.
	directIdx := -1
	n.mu.Lock()
	if r.wants.n > 0 {
		directIdx = int(r.wants.q[0].idx)
		r.wants.drop(0)
	}
	n.mu.Unlock()

	if directIdx >= 0 {
		data, err := n.cfg.Store.GetRef(directIdx)
		if err == nil {
			// A traced seal's repayment extends the seal's trace, so the
			// reciprocation round-trip shows up in one causal story.
			n.sendPiece(r, directIdx, data, m.KeyID, n.continueUpload(m.Trace, directIdx, r.id))
			return
		}
	}

	// Indirect: forward the sealed piece to a neighbor that needs it; the
	// witness will send the origin a receipt. When every neighbor already
	// holds the piece — a drained swarm facing a newcomer — forward anyway:
	// reciprocation in T-Chain proves contribution (upload spent), not
	// utility, and the witness discards the duplicate ciphertext but still
	// receipts it. Without this fallback a node that joins after the swarm
	// finishes has no obligation it can ever fulfil, earns no trust, and
	// starves on undecryptable ciphertext forever. Neighbours are walked in
	// ascending ID order, so one seed draws the same witnesses on every run.
	n.mu.Lock()
	var witness, fallback *remote
	needySeen, anySeen := 0, 0
	for _, p := range n.links {
		if p.id == int(m.OriginID) {
			continue
		}
		anySeen++
		if n.rng.Intn(anySeen) == 0 { // reservoir pick, no candidate slice
			fallback = p
		}
		if !p.have.Has(int(m.Index)) {
			needySeen++
			if n.rng.Intn(needySeen) == 0 {
				witness = p
			}
		}
	}
	if witness == nil {
		witness = fallback
	}
	n.mu.Unlock()
	forwarded := m
	forwarded.Forwarded = true
	forwarded.ForwarderID = int32(n.cfg.ID)
	if witness == nil || !witness.enqueue(forwarded, forwardedSeal, nil) {
		// No witness but the origin, or a saturated one: the key may never
		// come, so the piece goes back to the pool rather than wait out the
		// request's cooldown.
		n.mu.Lock()
		n.unaskLocked(r, int(m.Index))
		n.mu.Unlock()
		return
	}
	n.metrics.uploadedBytes.Add(int64(len(m.Ciphertext)))
}

// handleKey decrypts the seal r parked here under m.KeyID, verifies, stores,
// and credits r. A KeyID means something only to the escrow that issued it,
// so a Key opens nothing but its own sender's seals: one naming another
// origin's finds no match and is ignored, exactly as an honest Key for a
// seal that plaintext has since superseded is.
func (n *Node) handleKey(r *remote, m protocol.Key) {
	ref := sealRef{origin: r.id, keyID: m.KeyID}
	n.mu.Lock()
	pending, ok := n.pendingSeals[ref]
	delete(n.pendingSeals, ref)
	n.mu.Unlock()
	if !ok {
		return
	}
	// Resume the trace the seal arrived under: the decrypt+verify and the
	// credit belong to the seal's causal story, not the key frame's.
	h := n.hopResume(pending.tc, r.id, pending.index)
	// Into the link's scratch, never in place: a receiver that repaid the
	// seal directly may still have a forward of the very same buffer queued
	// for a witness from before, and the key can land first. Store.Put copies what it keeps,
	// on every transport: the next key opens into the same scratch.
	plaintext, err := tchain.OpenInto(r.opened, &pending.sealed, tchain.Key(m.Key))
	if err != nil {
		return
	}
	r.opened = plaintext
	if err := n.cfg.Store.Put(pending.index, plaintext); err != nil {
		return // wrong key or corrupt ciphertext: hash check failed
	}
	h.step(tracing.SpanStoreVerify)
	n.mu.Lock()
	first := n.noteDeliveryLocked(r.id, pending.index, len(plaintext), h.context())
	n.mu.Unlock()
	if first {
		n.receiptFor(r, r.id, int32(pending.index), len(plaintext), h)
	}
}

// signReceipt builds the receiver-side attestation for one verified piece
// delivery: signed under the node's configured scheme when it has an
// identity, a bare unsigned claim otherwise (the paper's trust model).
func (n *Node) signReceipt(sender, index int32, size int) attest.Attestation {
	if n.identity == nil {
		return attest.Claim(sender, int32(n.cfg.ID), index, int64(size))
	}
	hash := [32]byte(n.cfg.Store.Manifest().Hashes[index])
	return n.identity.Attest(n.attScheme, sender, index, hash, int64(size))
}

// creditAttestation submits a receipt to the reputation ledger, counts the
// outcome, and — when the receipt is signed — enqueues the sender's copy on
// to: the proof it can present to anyone holding the directory. h, when
// non-nil, closes a ledger.credit span over the credit and rides the ack
// frame back to the uploader (who records its arrival as attest.ack).
func (n *Node) creditAttestation(to *remote, att attest.Attestation, h *hopTrace) {
	if err := n.ledger.Credit(att); err != nil {
		n.metrics.attestRejected(err).Add(1)
		if n.logDebug {
			n.log.Debug("attestation rejected", "sender", att.Sender, "piece", att.Index, "err", err)
		}
	} else {
		n.metrics.attestCredited.Add(1)
	}
	h.step(tracing.SpanLedgerCredit)
	if att.Scheme == attest.SchemeNone {
		return
	}
	n.metrics.attestSigned.Add(1)
	if to != nil {
		// Queued without a signal (see frameClass): the sender is not blocked
		// on its proof copy, and a writer woken per receipt is a write per
		// piece. The upload tick's flushLinks sends it within a DecisionInterval
		// even on a link with no other outbound traffic — a downloader never
		// announces anything a complete seed is waiting to hear.
		to.enqueue(protocol.Attest{Att: att, Trace: h.context()}, receiptCopy, nil)
	}
}

// handleAttest records the receipt copy a receiver sent back for one of our
// deliveries. The crediting (and its replay accounting) happened on the
// receiver's side; here the copy is checked statelessly and scored in
// metrics — a tampered or mis-addressed copy is counted and dropped, which
// is what the tampering-transport test observes.
func (n *Node) handleAttest(r *remote, m protocol.Attest) {
	if n.tracer != nil && m.Trace.Traced() {
		// The receipt copy for a traced delivery closes the loop: record its
		// arrival under the receiver's ledger.credit span.
		n.tracer.Record(tracing.Span{
			TraceID: m.Trace.TraceID, SpanID: n.tracer.NewID(), ParentID: m.Trace.SpanID,
			Name: tracing.SpanAttestAck, Node: n.cfg.ID, Peer: r.id, Piece: int(m.Att.Index),
			Start: spanNow(),
		})
	}
	n.checkAck(m.Att)
}

// checkAck audits one receipt another peer signed over our upload. The
// counters are the node's evidence feed: a bad ack means the counterparty
// is minting receipts we could never spend.
func (n *Node) checkAck(att attest.Attestation) {
	if n.verifier == nil {
		return // unsigned node: no key material to check against
	}
	if att.Sender != int32(n.cfg.ID) || n.verifier.Check(att) != nil {
		n.metrics.attestAcksBad.Add(1)
		return
	}
	n.metrics.attestAcksOK.Add(1)
}

// handleAttestedReceipt applies a witness's T-Chain receipt: the witness
// (Att.Receiver) attests that the forwarder (Att.Sender) relayed our sealed
// piece. An unsigned node takes the witness's word — a forged receipt from a
// colluder then extracts the key without real reciprocation, exactly the
// paper's T-Chain collusion attack. A signing node closes that hole: the
// signature must verify under an admitted identity (a bare claim is refused)
// and the receipt must name the exact piece the escrow is holding the key
// for, so a receipt can be neither minted from thin air nor replayed after
// the key is released (the entry that carries the piece index is gone by then).
// from is the link the frame arrived on, nil for a served transient session.
// Two schemes are witness receipts: SchemeLink, accepted only on the link
// whose authenticated peer is the witness and only when keyed to us, and
// Ed25519. A per-piece SchemeSession receipt is keyed witness↔forwarder —
// the one key the forwarder holds — and proves nothing here.
func (n *Node) handleAttestedReceipt(from *remote, m protocol.AttestedReceipt) {
	// Signed or not, a receipt for less than the whole piece is no
	// reciprocation: a one-byte forward would buy every key owed.
	if m.Att.Bytes <= 0 || m.Att.Bytes != int64(n.cfg.Store.Manifest().PieceLength(int(m.Att.Index))) {
		n.metrics.attestReceiptsRejected.Add(1)
		return
	}
	if n.verifier == nil {
		n.confirmReceipt(int(m.Att.Sender), m.KeyID)
		return
	}
	verified := &n.metrics.attestReceiptsEd25519
	var err error
	switch m.Att.Scheme {
	case attest.SchemeLink:
		verified = &n.metrics.attestReceiptsLink
		if from == nil || int32(from.id) != m.Att.Receiver {
			err = attest.ErrLinkScoped
		} else {
			err = n.verifier.CheckLink(m.Att, int32(n.cfg.ID))
		}
	case attest.SchemeEd25519:
		err = n.verifier.Check(m.Att)
	default:
		err = attest.ErrBadScheme
	}
	if err != nil {
		n.metrics.attestReceiptsRejected.Add(1)
		return
	}
	if idx, held := n.escrow.Piece(m.KeyID); !held || int32(idx) != m.Att.Index {
		n.metrics.attestReceiptsRejected.Add(1)
		return
	}
	verified.Add(1)
	n.confirmReceipt(int(m.Att.Sender), m.KeyID)
}

// confirmReceipt applies one accepted witness receipt for the seal keyID:
// forwarder has reciprocated for it, so the escrow releases that key if
// forwarder owes it — to its link, if it still has one.
func (n *Node) confirmReceipt(forwarder int, keyID uint64) {
	k, ok := n.escrow.Confirm(forwarder, keyID)
	if !ok {
		return
	}
	n.mu.Lock()
	receiver := n.linkedLocked(forwarder)
	n.mu.Unlock()
	if receiver != nil {
		receiver.sendKey(k)
	}
}

// sendKey queues one released key for r, the receiver it was sealed for.
func (r *remote) sendKey(k tchain.Released) {
	r.enqueue(protocol.Key{KeyID: k.KeyID, Index: int32(k.Piece), Key: k.Key}, reply, nil)
}

// handshakeBitfield snapshots our holdings as a wire bitfield, together
// with the gain-log position the snapshot is current to. Both are read in
// one mu section, so a piece verified while the handshake is still in
// flight is either in the bitfield or past the position — where the link's
// writer, whose cursor starts there, announces it — and never in neither.
func (n *Node) handshakeBitfield() (protocol.Bitfield, int32) {
	n.mu.Lock()
	bits, at := n.myBits.Clone(), n.gainLen.Load()
	n.mu.Unlock()
	numPieces := bits.Size()
	packed := make([]byte, (numPieces+7)/8)
	bits.ForEach(func(i int) { packed[i/8] |= 1 << (uint(i) % 8) })
	return protocol.Bitfield{NumPieces: int32(numPieces), Bits: packed}, at
}

// noteGainedLocked records a verified piece (mu held) and reports whether
// it was new: it mirrors the bit locally and publishes the index on the
// gain log — one append per gain, no per-neighbor work and no writer
// signalled: a link announces the log's new tail in its next drain, which
// the upload tick's flushLinks causes if nothing sooner does. Duplicate
// gains (two peers racing the same piece into the store) are detected by
// the bitfield and ignored.
func (n *Node) noteGainedLocked(index int) bool {
	if !n.myBits.Set(index) {
		return false
	}
	n.metrics.piecesVerified.Add(1)
	at := n.gainLen.Load()
	n.gainLog[at] = int32(index)
	n.gainLen.Store(at + 1)
	return true
}
