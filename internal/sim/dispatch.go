package sim

import (
	"fmt"

	"repro/internal/probe"
)

// This file is the swarm side of the probe API: every emit helper calls
// the attached probe through one nil check. The swarm records its own
// results on its peers; a probe only observes. With nothing attached the
// hot path pays a single nil comparison per hook site and zero
// allocations — all hook arguments are values.

// Attach registers the run's probe. It must be called before Run, at most
// once; a nil probe is ignored.
func (s *Swarm) Attach(p probe.Probe) error {
	if s.ran {
		return fmt.Errorf("sim: cannot attach probe after Run")
	}
	if p == nil {
		return nil
	}
	if s.probe != nil {
		return fmt.Errorf("sim: a probe is already attached")
	}
	s.probe = p
	return nil
}

func (s *Swarm) emitPeerJoin(now float64, p *peer) {
	if s.probe != nil {
		s.probe.PeerJoin(now, probe.PeerInfo{ID: int(p.id), Capacity: p.capacity, FreeRider: p.freeRider})
	}
}

func (s *Swarm) emitPeerLeave(now float64, id int) {
	if s.probe != nil {
		s.probe.PeerLeave(now, id)
	}
}

func (s *Swarm) emitPeerAbort(now float64, id int) {
	if s.probe != nil {
		s.probe.PeerAbort(now, id)
	}
}

func (s *Swarm) emitPeerBootstrap(now float64, id int) {
	if s.probe != nil {
		s.probe.PeerBootstrap(now, id)
	}
}

func (s *Swarm) emitPeerComplete(now float64, id int) {
	if s.probe != nil {
		s.probe.PeerComplete(now, id)
	}
}

func (s *Swarm) emitUnchoke(now float64, from, to int) {
	if s.probe != nil {
		s.probe.Unchoke(now, from, to)
	}
}

func (s *Swarm) emitTransferStart(now float64, t probe.Transfer) {
	if s.probe != nil {
		s.probe.TransferStart(now, t)
	}
}

func (s *Swarm) emitTransferFinish(now float64, t probe.Transfer) {
	if s.probe != nil {
		s.probe.TransferFinish(now, t)
	}
}

func (s *Swarm) emitCredit(now float64, c probe.CreditInfo) {
	if s.probe != nil {
		s.probe.Credit(now, c)
	}
}

func (s *Swarm) emitFreeRiderCredit(now float64, to int, bytes float64) {
	if s.probe != nil {
		s.probe.FreeRiderCredit(now, to, bytes)
	}
}

func (s *Swarm) emitSeederExit(now float64) {
	if s.probe != nil {
		s.probe.SeederExit(now)
	}
}

func (s *Swarm) emitSample(now float64) {
	if s.probe != nil {
		s.probe.Sample(now)
	}
}

func (s *Swarm) emitEndRun(now float64) {
	if s.probe != nil {
		s.probe.EndRun(now)
	}
}
