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

func newBenchView() *benchView {
	v := &benchView{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < benchNeighbors; i++ {
		v.neighbors = append(v.neighbors, PeerID(i))
		v.wants = append(v.wants, true)
	}
	return v
}

func (v *benchView) Self() PeerID    { return benchNeighbors }
func (v *benchView) Now() float64    { return 0 }
func (v *benchView) RNG() *rand.Rand { return v.rng }
func (v *benchView) Neighbors() []PeerID {
	v.scratch = append(v.scratch[:0], v.neighbors...)
	return v.scratch
}
func (v *benchView) WantsFromMe(p PeerID) bool {
	return p >= 0 && int(p) < len(v.wants) && v.wants[p]
}

// BenchmarkNextReceiver times one upload decision per mechanism over 50
// interested neighbours in two states. The plain rows are the busy decision:
// every neighbour has contributed (and holds a ledger score), so every
// candidate is weighed. The idle rows are Figure 4's stalled case: the only
// contributor so far is a pseudo-peer (the seeder), so no neighbour has
// earned anything. scripts/check.sh holds every row at 0 allocs/op.
func BenchmarkNextReceiver(b *testing.B) {
	algorithms := append(algo.All(), algo.PropShare)
	run := func(b *testing.B, a algo.Algorithm, busy bool) {
		ledger := reputation.NewLedger(attest.AcceptAll{})
		s, err := New(a, Params{}, ledger)
		if err != nil {
			b.Fatal(err)
		}
		v := newBenchView()
		s.OnReceived(v, seederID, 1000)
		if busy {
			for i := 1; i < benchNeighbors; i++ {
				if err := ledger.Credit(attest.Claim(int32(i), -1, 0, int64(i*1000))); err != nil {
					b.Fatal(err)
				}
				s.OnReceived(v, PeerID(i), float64(i*100))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.NextReceiver(v)
		}
	}
	for _, a := range algorithms {
		b.Run(a.String(), func(b *testing.B) { run(b, a, true) })
	}
	b.Run("idle", func(b *testing.B) {
		for _, a := range algorithms {
			b.Run(a.String(), func(b *testing.B) { run(b, a, false) })
		}
	})
}
