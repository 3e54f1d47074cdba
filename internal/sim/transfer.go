package sim

import (
	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/attest"
	"repro/internal/eventsim"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/probe"
	"repro/internal/stats"
)

// kick attempts to fill all of p's free upload slots, and arranges an idle
// retry if the strategy currently has nothing to send.
func (s *Swarm) kick(p *peer) {
	if !p.active {
		return
	}
	for p.alloc.Free() > 0 {
		if !s.startUpload(p) {
			s.armRetry(p)
			return
		}
	}
	// All slots busy: the next delivery completion re-kicks.
	p.retry.Cancel()
	p.retry = eventsim.Timer{}
}

// armRetry schedules a single jittered poll for a peer whose strategy had
// nothing to send. At most one retry is outstanding per peer; the handler is
// the peer's cached retry closure, so arming allocates nothing.
func (s *Swarm) armRetry(p *peer) {
	if p.retry.Pending() {
		return
	}
	delay := s.cfg.PollInterval * (0.5 + s.rng.Float64())
	p.retry = s.engine.After(delay, p.retryFn)
}

// flight is a pooled in-flight transfer record. Its delivery handler is
// created once per record and the record is recycled on landing, so
// scheduling a delivery allocates nothing in steady state. A nil sender
// marks a seeder upload.
type flight struct {
	s        *Swarm
	sender   *peer
	receiver *peer
	piece    int
	handler  eventsim.Handler
}

// newFlight checks a record out of the pool (or mints one) and arms it.
func (s *Swarm) newFlight(sender, receiver *peer, pieceIdx int) *flight {
	var t *flight
	if n := len(s.flightPool); n > 0 {
		t = s.flightPool[n-1]
		s.flightPool = s.flightPool[:n-1]
	} else {
		t = &flight{s: s}
		t.handler = func(now float64) { t.land(now) }
	}
	t.sender, t.receiver, t.piece = sender, receiver, pieceIdx
	return t
}

// land completes the transfer and returns the record to the pool. The pool
// append happens before delivery so the record is reusable by any uploads
// the delivery itself triggers.
func (t *flight) land(now float64) {
	s, sender, receiver, idx := t.s, t.sender, t.receiver, t.piece
	t.sender, t.receiver = nil, nil
	s.flightPool = append(s.flightPool, t)
	if sender == nil {
		s.seeder.deliver(receiver, idx, now)
	} else {
		s.deliver(sender, receiver, idx, now)
	}
}

// startUpload asks p's strategy for a receiver, picks a piece, and starts
// the transfer. It reports whether a transfer began.
func (s *Swarm) startUpload(p *peer) bool {
	receiverID := p.strategy.NextReceiver(p.view)
	if receiverID == incentive.NoPeer {
		return false
	}
	s.note(probe.Unchoke)
	receiver := s.lookup(receiverID)
	if receiver == nil || !receiver.active {
		return false
	}
	pieceIdx := s.pickPiece(p.have, receiver)
	if pieceIdx < 0 {
		return false
	}
	duration, ok := p.alloc.Acquire(s.cfg.PieceSize)
	if !ok {
		return false
	}
	receiver.pending.Set(pieceIdx)
	s.note(probe.TransferStart)
	s.engine.After(duration, s.newFlight(p, receiver, pieceIdx).handler)
	return true
}

// pickPiece selects, local-rarest-first, a piece the receiver needs from
// the sender's holdings, excluding pieces already in flight toward the
// receiver. senderHave == nil means the seeder (holds everything).
// SelectRarestMissing fuses candidate enumeration, the pending filter, and
// the rarest-first reservoir into one allocation-free bitfield scan; a test
// may inject a reference picker (refPick) that must make the same picks
// with the same rng draws.
func (s *Swarm) pickPiece(senderHave *piece.Bitfield, receiver *peer) int {
	if s.refPick != nil {
		return s.refPick(senderHave, receiver)
	}
	return s.availability.SelectRarestMissing(s.rng, receiver.have, senderHave, receiver.pending)
}

// deliver completes a peer-to-peer transfer: releases the sender's slot,
// applies the T-Chain key-release rule, credits the receiver, and re-kicks
// both parties.
func (s *Swarm) deliver(sender, receiver *peer, pieceIdx int, now float64) {
	sender.alloc.Release()
	bytes := s.cfg.PieceSize
	sender.uploaded += bytes
	s.totalUploaded += bytes
	s.peerUploaded += bytes
	receiver.pending.Clear(pieceIdx)
	s.note(probe.TransferFinish)

	if receiver.active {
		receiver.rawDown += bytes
		if s.credited(sender, receiver) {
			if receiver.freeRider {
				s.freeRiderCredited += bytes
				s.note(probe.FreeRiderCredit)
			}
			s.credit(sender.id, receiver, pieceIdx, bytes, now)
			if !sender.freeRider {
				sender.strategy.OnSent(sender.view, receiver.id, bytes)
			}
		} else {
			// The receiver reneged on the T-Chain reciprocation: the key
			// is withheld and the sender never serves this peer again.
			sender.distrust[receiver.id] = true
		}
	}
	s.kick(sender)
	if receiver.active {
		s.kick(receiver)
	}
}

// credited applies the mechanism's enforcement to a delivery. Everything is
// credited except T-Chain uploads to free-riders: T-Chain withholds the
// decryption key until the receiver reciprocates, which a free-rider never
// does. A colluding free-rider still succeeds when the exchange would be
// *indirect* and the randomly designated reciprocation witness is a fellow
// colluder who falsely confirms receipt (Section IV-C).
func (s *Swarm) credited(sender, receiver *peer) bool {
	if !receiver.freeRider || s.cfg.Algorithm != algo.TChain {
		return true
	}
	if s.cfg.Attack.Kind != attack.Collusion {
		return false
	}
	// Direct reciprocation demanded (the sender still needs a piece the
	// receiver holds)? Then the free-rider's refusal is detected
	// immediately and no key is released.
	if sender != nil && sender.have.Needs(receiver.have) {
		return false
	}
	// Indirect: the sender designates a random third peer as the
	// reciprocation target; collusion works only if it is a colluder.
	witness := s.randomActivePeerExcept(sender, receiver)
	return witness != nil && witness.freeRider
}

// credit records a successful (plaintext) piece delivery.
func (s *Swarm) credit(senderID incentive.PeerID, receiver *peer, pieceIdx int, bytes, now float64) {
	if !receiver.have.Set(pieceIdx) {
		return // duplicate delivery; piece already held
	}
	s.haveT[(pieceIdx>>6)*len(s.peers)+int(receiver.id)] |= 1 << (uint(pieceIdx) & 63)
	s.availability.AddPiece(pieceIdx)
	receiver.creditedDown += bytes
	s.note(probe.Credit)
	if receiver.bootstrapAt < 0 {
		receiver.bootstrapAt = now
		s.note(probe.PeerBootstrap)
	}
	// The simulator models the paper's unverified world: crediting is a
	// bare claim the AcceptAll ledger takes at face value. The live node is
	// where claims become signed attestations (internal/node, DESIGN §14).
	_ = s.ledger.Credit(attest.Claim(int32(senderID), int32(receiver.id), int32(pieceIdx), int64(bytes)))
	receiver.strategy.OnReceived(receiver.view, senderID, bytes)

	if receiver.have.Complete() {
		receiver.finishAt = now
		s.incomplete = removePeerByID(s.incomplete, receiver)
		s.note(probe.PeerComplete)
		if !receiver.freeRider {
			s.completedCount++
		}
		if s.cfg.LeaveOnComplete {
			s.depart(receiver)
		}
		if s.cfg.StopWhenCompliantDone && s.completedCount == s.numCompliant {
			s.sample(now)
			s.engine.Stop()
		}
	}
}

// randomActivePeerExcept returns a uniformly random active peer other than
// the two parties, or nil if none exists. sender may be nil (the seeder).
// The id-ascending active list yields the same eligible sequence — and thus
// the same reservoir draws — as the old full-population scan.
func (s *Swarm) randomActivePeerExcept(sender, receiver *peer) *peer {
	count := 0
	var chosen *peer
	for _, p := range s.actives {
		if p == receiver || (sender != nil && p == sender) {
			continue
		}
		count++
		if stats.OneIn(s.rng, count) {
			chosen = p
		}
	}
	return chosen
}
