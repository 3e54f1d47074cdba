package sim

import (
	"repro/internal/bandwidth"
	"repro/internal/eventsim"
	"repro/internal/probe"
	"repro/internal/stats"
)

// seeder is the origin server: it holds every piece and uploads
// continuously at its configured rate, choosing uniformly among active
// incomplete peers and serving the locally rarest piece. The seeder takes
// part in every algorithm identically — it is the n_S bootstrap source of
// the paper's Table II analysis.
type seeder struct {
	swarm    *Swarm
	alloc    *bandwidth.Allocator
	uploaded float64
	retrying bool
	offline  bool // the seeder exited (failure injection)
	// distrust marks peers that reneged on reciprocating a seeder upload
	// under T-Chain; the seeder stops serving them.
	distrust map[int]bool
	retryFn  eventsim.Handler // cached idle-retry closure
}

func newSeeder(s *Swarm) *seeder {
	rate := s.cfg.SeederRate
	if rate <= 0 {
		rate = 1 // a dormant seeder still needs a valid allocator
	}
	sd := &seeder{
		swarm:    s,
		alloc:    bandwidth.NewAllocator(rate, s.cfg.SeederSlots),
		distrust: make(map[int]bool),
	}
	sd.retryFn = func(float64) {
		sd.retrying = false
		sd.schedule()
	}
	return sd
}

// schedule fills the seeder's free slots, polling again later if no peer
// currently needs anything.
func (sd *seeder) schedule() {
	if sd.swarm.cfg.SeederRate <= 0 || sd.offline {
		return
	}
	for sd.alloc.Free() > 0 {
		if !sd.startUpload() {
			sd.armRetry()
			return
		}
	}
}

func (sd *seeder) armRetry() {
	if sd.retrying || !sd.swarm.live() {
		return
	}
	sd.retrying = true
	delay := sd.swarm.cfg.PollInterval * (0.5 + sd.swarm.rng.Float64())
	sd.swarm.engine.After(delay, sd.retryFn)
}

// startUpload picks a random active incomplete peer and sends it a rarest
// missing piece. Reports whether a transfer began.
func (sd *seeder) startUpload() bool {
	s := sd.swarm
	// Reservoir-sample an eligible receiver from the id-ascending list of
	// active incomplete peers — the same eligible sequence (hence the same
	// rng draws) as the old full-population scan, without touching peers
	// that have finished or left.
	count := 0
	var receiver *peer
	check := len(sd.distrust) != 0
	for _, p := range s.incomplete {
		if check && sd.distrust[int(p.id)] {
			continue
		}
		count++
		if stats.OneIn(s.rng, count) {
			receiver = p
		}
	}
	if receiver == nil {
		return false
	}
	s.note(probe.Unchoke)
	pieceIdx := s.pickPiece(nil, receiver)
	if pieceIdx < 0 {
		return false
	}
	duration, ok := sd.alloc.Acquire(s.cfg.PieceSize)
	if !ok {
		return false
	}
	receiver.pending.Set(pieceIdx)
	s.note(probe.TransferStart)
	s.engine.After(duration, s.newFlight(nil, receiver, pieceIdx).handler)
	return true
}

// deliver completes a seeder transfer. The T-Chain key-release rule applies
// to the seeder too: a free-rider that will not reciprocate (indirectly —
// the seeder needs nothing) gets ciphertext it cannot decrypt.
func (sd *seeder) deliver(receiver *peer, pieceIdx int, now float64) {
	s := sd.swarm
	sd.alloc.Release()
	bytes := s.cfg.PieceSize
	sd.uploaded += bytes
	s.totalUploaded += bytes
	receiver.pending.Clear(pieceIdx)
	s.note(probe.TransferFinish)

	if receiver.active {
		receiver.rawDown += bytes
		if s.credited(nil, receiver) {
			s.credit(SeederID, receiver, pieceIdx, bytes, now)
		} else {
			sd.distrust[int(receiver.id)] = true
		}
	}
	sd.schedule()
	if receiver.active {
		s.kick(receiver)
	}
}
