package incentive

import (
	"math/rand"
	"testing"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/reputation"
)

// benchNeighbors is the simulator's neighbourhood size (sim.Default's
// MaxNeighbors), the decision the hot path makes.
const benchNeighbors = 50

// benchView is a NodeView that costs next to nothing itself, so
// BenchmarkNextReceiver times the strategies and not their fake: interest is
// a slice indexed by peer ID, and Neighbors refills one reused buffer the way
// the simulator's and the node's views do.
type benchView struct {
	rng       *rand.Rand
	neighbors []PeerID
	scratch   []PeerID
	wants     []bool
}

var _ NodeView = (*benchView)(nil)

// newBenchView returns a view of benchNeighbors interested neighbours whose
// IDs are spread evenly over [0, peers).
func newBenchView(peers int) *benchView {
	v := &benchView{rng: rand.New(rand.NewSource(1)), wants: make([]bool, peers)}
	for i := 0; i < benchNeighbors; i++ {
		id := i * peers / benchNeighbors
		v.neighbors = append(v.neighbors, PeerID(id))
		v.wants[id] = true
	}
	return v
}

func (v *benchView) Self() PeerID    { return PeerID(len(v.wants)) }
func (v *benchView) Now() float64    { return 0 }
func (v *benchView) RNG() *rand.Rand { return v.rng }
func (v *benchView) Neighbors() []PeerID {
	v.scratch = append(v.scratch[:0], v.neighbors...)
	return v.scratch
}
func (v *benchView) WantsFromMe(p PeerID) bool {
	return p >= 0 && int(p) < len(v.wants) && v.wants[p]
}

// probingBenchView adds the optional capabilities the simulator's view
// implements to benchView.
type probingBenchView struct{ *benchView }

func (v probingBenchView) WantingNeighbors() ([]PeerID, bool) {
	out := v.scratch[:0]
	for _, n := range v.neighbors {
		if v.wants[n] {
			out = append(out, n)
		}
	}
	v.scratch = out
	return out, true
}

func (v probingBenchView) AnyWanting() (wanting, ok bool) {
	for _, n := range v.neighbors {
		if v.wants[n] {
			return true, true
		}
	}
	return false, true
}

// BenchmarkNextReceiver times one upload decision per mechanism over 50
// interested neighbours in two states. The plain rows are the busy decision:
// every neighbour has contributed (and holds a ledger score), so every
// candidate is weighed. The idle rows are Figure 4's stalled case: the only
// contributor so far is a pseudo-peer (the seeder), so no neighbour has
// earned anything. The ledger1000 row is the busy Reputation decision as
// Figure 4 makes it: the global ledger holds 1000 peers, and the 50
// neighbours are spread among them (the other mechanisms never read the
// ledger). The probing row is the busy BitTorrent decision over a view with
// the wanting-list and any-wanting capabilities, as the simulator and the
// node make it. scripts/check.sh holds every row at 0 allocs/op.
func BenchmarkNextReceiver(b *testing.B) {
	algorithms := append(algo.All(), algo.PropShare)
	run := func(b *testing.B, a algo.Algorithm, busy bool, peers int, probing bool) {
		ledger := reputation.NewLedger(attest.AcceptAll{})
		s, err := New(a, Params{}, ledger)
		if err != nil {
			b.Fatal(err)
		}
		bv := newBenchView(peers)
		var v NodeView = bv
		if probing {
			v = probingBenchView{bv}
		}
		s.OnReceived(v, seederID, 1000)
		if busy {
			for i := 1; i < peers; i++ {
				if err := ledger.Credit(attest.Claim(int32(i), -1, 0, int64(i*1000))); err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range bv.neighbors[1:] {
				s.OnReceived(v, p, float64(p*100))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.NextReceiver(v)
		}
	}
	for _, a := range algorithms {
		b.Run(a.String(), func(b *testing.B) { run(b, a, true, benchNeighbors, false) })
	}
	b.Run("idle", func(b *testing.B) {
		for _, a := range algorithms {
			b.Run(a.String(), func(b *testing.B) { run(b, a, false, benchNeighbors, false) })
		}
	})
	b.Run("ledger1000/"+algo.Reputation.String(), func(b *testing.B) { run(b, algo.Reputation, true, 1000, false) })
	b.Run("probing/"+algo.BitTorrent.String(), func(b *testing.B) { run(b, algo.BitTorrent, true, benchNeighbors, true) })
}
