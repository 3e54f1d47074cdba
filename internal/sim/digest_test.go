package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/attack"
	"repro/internal/probe"
)

// resultDigest hashes what a run decided: how many events it processed, when
// it ended, and every peer's finish time and byte totals, as exact bit
// patterns. Any change to a strategy decision, an RNG draw or the event
// order moves at least one of them.
func resultDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(res.EventsProcessed)
	put(math.Float64bits(res.Duration))
	for _, p := range res.Peers {
		put(math.Float64bits(p.FinishAt))
		put(math.Float64bits(p.Uploaded))
		put(math.Float64bits(p.Downloaded))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultDigestsPinned pins each mechanism's results bit for bit at tier
// 1, where bench/golden.json pins only Figure 4's rendering and one
// BitTorrent run. The scale is small but stall-capable: Reciprocity polls to
// the horizon exactly as in Figure 4. The digests were recorded on the commit
// before the O(1) idle Reciprocity decision and the one-lock reputation read
// (ISSUE 18) and must only ever be re-recorded by a change that means to
// alter simulation results.
func TestResultDigestsPinned(t *testing.T) {
	freeRiders := func(a algo.Algorithm, plan attack.Plan) Config {
		cfg := testConfig(a)
		cfg.FreeRiderFraction = 0.2
		cfg.Attack = plan
		return cfg
	}
	seederExit := testConfig(algo.Reciprocity)
	seederExit.SeederExitAt = 30
	seederExit.Horizon = 200

	cases := []struct {
		name   string
		cfg    Config
		events uint64
		digest string
	}{
		{"reciprocity", testConfig(algo.Reciprocity), 72442, "03db6a637a57115a808bc07234766b40af751e3b8bf7d5ed62d57b4b57cd4006"},
		{"tchain", testConfig(algo.TChain), 6853, "1f3154e993b4cc8c837234d8f8a8645fea610a832aa3953ce68f2420b3b7c554"},
		{"bittorrent", testConfig(algo.BitTorrent), 8360, "b17dcf32e70b3f42cfe232e880969f7979a39fa0bf80b54d62a746f3b6f6ff20"},
		{"fairtorrent", testConfig(algo.FairTorrent), 9139, "efae3d73f0e5e9bb97874dede203a0478c2a14b469e1bc94999a8de327ae9fde"},
		{"reputation", testConfig(algo.Reputation), 7820, "b810a34318607886fcc66918236cadb007aaefb31368a995d30bb62d2f051e2a"},
		{"altruism", testConfig(algo.Altruism), 6952, "1fb730ea32a74caf8f58be5623ecc58dd2c90c0dd920fc78126b18953540a3c9"},
		{"propshare", testConfig(algo.PropShare), 8744, "c75cd8dac07f9dc27b02b36af347a989893e48690719d42f5328d310abb7e378"},
		// Whitewashing free-riders drive Strategy.Forget (and Ledger.Reset)
		// every 10 s on every compliant neighbour.
		{"fairtorrent/whitewash", freeRiders(algo.FairTorrent, attack.Plan{Kind: attack.Whitewash}), 12701, "e217c549fb33a8dd44947f882a4e0c687249f276011e1534405fa2595c42082b"},
		{"reciprocity/whitewash", freeRiders(algo.Reciprocity, attack.Plan{Kind: attack.Whitewash}), 72599, "17580d0d8719811eeb11ad4b95129c6807f7afaa19d20cd938b7cc8d0660f718"},
		{"reputation/whitewash", freeRiders(algo.Reputation, attack.Plan{Kind: attack.Whitewash}), 12218, "742ed59bfe2ce831cf904323380ecf5f1f88868fd9522a0c24ac517c23ca7a1c"},
		{"reciprocity/seeder-exit", seederExit, 19580, "e5b0e48ae7078adeb40dde7d24e6e231184ad77bfa1b51fc2b6f5834aa2c71e7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := mustRun(t, c.cfg)
			if got := resultDigest(res); res.EventsProcessed != c.events || got != c.digest {
				t.Errorf("events %d digest %s, pinned %d %s", res.EventsProcessed, got, c.events, c.digest)
			}
		})
	}
}

// seriesDigest hashes what a run recorded over time and in total: every
// point of the five series, in a fixed series order, and the four run-wide
// volumes, as exact bit patterns. resultDigest sees only per-peer end
// states, so a change to when or how the series are sampled, or to which
// transfers count toward a volume, moves only this digest.
func seriesDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.Series)))
	for _, name := range []string{
		SeriesFairness, SeriesContribution, SeriesBootstrapped,
		SeriesCompleted, SeriesSusceptibility,
	} {
		ts := res.Series[name]
		put(uint64(ts.Len()))
		for _, pt := range ts.Points {
			put(math.Float64bits(pt.T))
			put(math.Float64bits(pt.V))
		}
	}
	for _, v := range []float64{res.TotalUploaded, res.PeerUploaded, res.SeederUploaded, res.FreeRiderCredited} {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedRuns are the configurations TestSeriesDigestsPinned and
// TestHookCountsPinned pin: TestResultDigestsPinned's cases plus passive
// and colluding free-riders among crashing peers (the susceptibility
// numerator, PeerLeave without completion).
func pinnedRuns() []struct {
	name string
	cfg  Config
} {
	freeRiders := func(a algo.Algorithm, plan attack.Plan) Config {
		cfg := testConfig(a)
		cfg.FreeRiderFraction = 0.2
		cfg.Attack = plan
		return cfg
	}
	aborting := func(a algo.Algorithm, plan attack.Plan) Config {
		cfg := freeRiders(a, plan)
		cfg.AbortRate = 0.1
		return cfg
	}
	seederExit := testConfig(algo.Reciprocity)
	seederExit.SeederExitAt = 30
	seederExit.Horizon = 200
	return []struct {
		name string
		cfg  Config
	}{
		{"reciprocity", testConfig(algo.Reciprocity)},
		{"tchain", testConfig(algo.TChain)},
		{"bittorrent", testConfig(algo.BitTorrent)},
		{"fairtorrent", testConfig(algo.FairTorrent)},
		{"reputation", testConfig(algo.Reputation)},
		{"altruism", testConfig(algo.Altruism)},
		{"propshare", testConfig(algo.PropShare)},
		{"fairtorrent/whitewash", freeRiders(algo.FairTorrent, attack.Plan{Kind: attack.Whitewash})},
		{"reciprocity/whitewash", freeRiders(algo.Reciprocity, attack.Plan{Kind: attack.Whitewash})},
		{"reputation/whitewash", freeRiders(algo.Reputation, attack.Plan{Kind: attack.Whitewash})},
		{"reciprocity/seeder-exit", seederExit},
		{"bittorrent/passive-abort", aborting(algo.BitTorrent, attack.Plan{Kind: attack.Passive})},
		{"tchain/collusion-abort", aborting(algo.TChain, attack.Plan{Kind: attack.Collusion})},
	}
}

// TestSeriesDigestsPinned pins the Figures 4–6 series and the run totals bit
// for bit over pinnedRuns. Re-record only with a change that means to alter
// simulation results.
func TestSeriesDigestsPinned(t *testing.T) {
	digests := map[string]string{
		"reciprocity":              "2dda2ff06db65063b4fcd1619da4e4a1605a6c169167fdb4a9c36582ea29a159",
		"tchain":                   "7af54b1aa1240688aee3eb6f4e70cbfb676c467e3cdb6cdfdc6992a193913dbd",
		"bittorrent":               "7a7eefe818926f90f784866ad678f71eb663d38142e9d6a63476404d76b13031",
		"fairtorrent":              "973573ec224a97dfc95feb90e338503d4479ccfb4e4599956e37ede04a5b0b48",
		"reputation":               "2170e466608533b4d47a05958725a8ae5623f1141fe7be66fcc7542b9799f927",
		"altruism":                 "9d9b1e9bc6d05dc88bd901914ca6c16bab2f7632a1aa349f8e0e75a996c374c5",
		"propshare":                "de3589e4459129a0809c2134fcdbb174a046d916e7a4346ece392010a27b6a9a",
		"fairtorrent/whitewash":    "f166873b3b7c6535c47952eb21525f69684a401f00accd3c0b2d71a8af30d0b4",
		"reciprocity/whitewash":    "67a7367fbe9995384e216de6a4f40fa0b283d5464a8fdeba4dd27c1b063caa7a",
		"reputation/whitewash":     "0ef7eaad5d2b0da98865263e54b49f6ec6dd68ade7ac0ef36dc8efd0c9e0ac78",
		"reciprocity/seeder-exit":  "fdd3d8d96852688fbcfb64b78319b48633e331bcc7fc1e6dec84940e878381ba",
		"bittorrent/passive-abort": "3c648e56b9b8cece96f1b0ac71792d63b648600f2fce0fa7be7280b82ca322aa",
		"tchain/collusion-abort":   "024d0cb8c7803ef0f86875c2162ef256f9446d2d5b750835d6a1f8d9c68c01ef",
	}
	for _, c := range pinnedRuns() {
		t.Run(c.name, func(t *testing.T) {
			if got := seriesDigest(mustRun(t, c.cfg)); got != digests[c.name] {
				t.Errorf("series digest %s, pinned %s", got, digests[c.name])
			}
		})
	}
}

// hookOrder fixes the order TestHookCountsPinned lists a run's counts in.
var hookOrder = [...]string{
	probe.HookPeerJoin, probe.HookPeerLeave, probe.HookPeerAbort,
	probe.HookPeerBootstrap, probe.HookPeerComplete, probe.HookUnchoke,
	probe.HookTransferStart, probe.HookTransferFinish, probe.HookCredit,
	probe.HookFreeRiderCredit, probe.HookSeederExit, probe.HookSample,
}

// TestHookCountsPinned pins every event count a probe.Counter reports over
// pinnedRuns: the counts run manifests record as hook_counts and the
// benchmark reads as sim.transfers and sim.decisions. The digests above see
// none of them directly, so a change to where or how often an event is
// counted shows only here. Re-record only with a change that means to alter
// what the simulator counts.
func TestHookCountsPinned(t *testing.T) {
	// In hookOrder: peer_join, peer_leave, peer_abort, peer_bootstrap,
	// peer_complete, unchoke, transfer_start, transfer_finish, credit,
	// free_rider_credit, seeder_exit, sample.
	pinned := map[string][len(hookOrder)]uint64{
		"reciprocity":              {100, 0, 0, 100, 0, 2800, 2800, 2792, 2792, 0, 0, 141},
		"tchain":                   {100, 100, 0, 100, 100, 7892, 4800, 4800, 4800, 0, 0, 32},
		"bittorrent":               {100, 100, 0, 100, 100, 7963, 4800, 4800, 4800, 0, 0, 43},
		"fairtorrent":              {100, 100, 0, 100, 100, 11324, 4800, 4800, 4800, 0, 0, 44},
		"reputation":               {100, 100, 0, 100, 100, 9352, 4800, 4800, 4800, 0, 0, 46},
		"altruism":                 {100, 100, 0, 100, 100, 7568, 4800, 4800, 4800, 0, 0, 26},
		"propshare":                {100, 100, 0, 100, 100, 8539, 4800, 4800, 4800, 0, 0, 44},
		"fairtorrent/whitewash":    {100, 96, 0, 100, 96, 10166, 4797, 4792, 4792, 544, 0, 53},
		"reciprocity/whitewash":    {100, 0, 0, 100, 0, 2800, 2800, 2792, 2792, 0, 0, 141},
		"reputation/whitewash":     {100, 82, 0, 100, 82, 8076, 4607, 4596, 4596, 182, 0, 55},
		"reciprocity/seeder-exit":  {100, 0, 0, 62, 0, 120, 120, 120, 120, 0, 1, 41},
		"bittorrent/passive-abort": {100, 82, 3, 99, 79, 6803, 4656, 4638, 4632, 385, 0, 49},
		"tchain/collusion-abort":   {100, 80, 2, 99, 78, 6002, 4375, 4362, 3922, 160, 0, 36},
	}
	for _, c := range pinnedRuns() {
		t.Run(c.name, func(t *testing.T) {
			sw, err := NewSwarm(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var counter probe.Counter
			if err := sw.Attach(&counter); err != nil {
				t.Fatal(err)
			}
			if _, err := sw.Run(); err != nil {
				t.Fatal(err)
			}
			counts := counter.Counts()
			var got [len(hookOrder)]uint64
			for i, name := range hookOrder {
				got[i] = counts[name]
			}
			if len(counts) != len(hookOrder) || got != pinned[c.name] {
				t.Errorf("counts %v, pinned %v (all: %v)", got, pinned[c.name], counts)
			}
		})
	}
}
