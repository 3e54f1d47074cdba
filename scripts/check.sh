#!/usr/bin/env bash
# check.sh — the repo's tier-1 gate plus the race detector: formatting,
# vet, build, the full test suite under -race (the parallel replication
# runner is exercised concurrently by the experiment tests), the piece
# package at one and four workers, the benchmark module's own vet and tests
# (bench/ is a separate module pinned against this one's public API), a
# refusal of any examples/ program no test runs, the named simulator-pin,
# membership and attestation gates, the node's timer-site and clock-read
# ceilings, the allocation guards on the hot paths, the flush clock's
# frames-per-piece ceiling, and a report-only size table.
set -euo pipefail
cd "$(dirname "$0")/.."

# alloc_guard <pkg> <bench> <max> [benchtime] — run one benchmark with
# -benchmem and fail if it prints no result line or any result line's
# allocs/op is above <max>. A benchmark that only runs sub-benchmarks
# (BenchmarkNextReceiver/idle/Reciprocity-2) has one result line per leaf
# and every one is checked. The unit is found by name because some lines
# carry extra metrics (events/op).
alloc_guard() {
  local pkg=$1 bench=$2 max=$3 benchtime=${4:-}
  local out results
  out=$(go test -run=NONE -bench="^$bench\$" ${benchtime:+-benchtime="$benchtime"} -benchmem "$pkg")
  echo "$out"
  results=$(echo "$out" | awk -v n="^$bench(/[^ \t]+|-[0-9]+)?[ \t]" '$0 ~ n {for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $1, $(i-1)}')
  if [ -z "$results" ]; then
    echo "alloc guard: no $bench result in $pkg output" >&2
    exit 1
  fi
  while read -r name allocs; do
    if [ "$allocs" -gt "$max" ]; then
      echo "alloc guard: $name allocated $allocs/op (ceiling $max)" >&2
      exit 1
    fi
  done <<<"$results"
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== piece hashing, serial and split =="
# Whole-file hashing splits across GOMAXPROCS workers: run the package at one worker and at four.
go test -count=1 -cpu 1,4 ./internal/piece

echo "== benchmark module =="
# bench/ is its own module (replace repro => ../), so the sweeps above do
# not see it. It is the repo's only performance recorder and compiles
# against the root packages' exported API; this is the step that catches a
# deletion or rename here breaking it.
(cd bench && go vet ./... && go test ./...)

echo "== examples run under a test =="
# An example whose only check is that it compiles can print nonsense for
# months; each one keeps a _test.go that runs it (the suite above ran it).
for dir in examples/*/; do
  if ! compgen -G "${dir}*_test.go" >/dev/null; then
    echo "examples guard: $dir has no test that runs it" >&2
    exit 1
  fi
done

echo "== simulator pins =="
# The simulator's outputs again, explicitly and by name: every mechanism's
# per-peer results, the Figures 4–6 series and run totals, and every event
# count a manifest records, bit for bit over the pinned runs; the
# incremental interest/rarity indexes against a naive recomputation on
# randomized churn-heavy traces; and the text every experiment prints at
# test scale. A change that moves any of these changes what the figures say;
# re-record a pin only with the reason in CHANGES.md.
go test -count=1 -run 'TestResultDigestsPinned|TestSeriesDigestsPinned|TestHookCountsPinned|TestInterestIndexMatchesNaive' ./internal/sim
go test -count=1 -run 'TestExperimentOutputsPinned' ./internal/experiment

echo "== membership churn race gate =="
# Membership's integration test again, explicitly and by name: a 64-node
# tracker-wired swarm (MaxNeighbors 6) on a lossy, laggy transport with 20%
# of the leechers replaced mid-download, under the race detector. Survivors
# and joiners must complete, no node may hold more than MaxNeighbors dialed
# connections, and Stop must leak no goroutines even if the main sweep is
# ever narrowed. Beside it, peer exchange adds no dial to the bench's full
# mesh: 16 nodes open exactly 120 connections.
go test -race -count=1 -run 'TestDiscoveryChurn64|TestFullMeshOpensEachLinkOnce' ./internal/node

echo "== node timer-site and clock-read ceilings =="
# The node decides on the tick's instant: uploadLoop hands tick(now) the
# ticker's time, and every decision reads that now (ROADMAP keystone stage
# 1). Two timers remain, the upload tick and Stop's drain poll; a third needs
# a reason, not a quiet ticker. Four clock reads remain: Start's epoch,
# Stop's drain deadline (two) and spanNow's trace stamps; a fifth is
# decision code reading a clock of its own instead of the tick's now.
node_src=$(ls internal/node/*.go | grep -v '_test\.go$')
timer_sites=$(grep -cE 'time\.(NewTicker|NewTimer|Sleep|AfterFunc)' $node_src | awk -F: '{s += $2} END {print s}')
clock_reads=$(grep -oE 'time\.(Now|Since|Until)\(' $node_src | wc -l)
echo "internal/node timer sites: $timer_sites, clock reads: $clock_reads"
if [ "$timer_sites" -gt 2 ]; then
  echo "timer guard: non-test internal/node has $timer_sites timer sites (ceiling 2)" >&2
  grep -nE 'time\.(NewTicker|NewTimer|Sleep|AfterFunc)' $node_src >&2
  exit 1
fi
if [ "$clock_reads" -gt 4 ]; then
  echo "clock guard: non-test internal/node reads the clock $clock_reads times (ceiling 4); decisions take tick's now" >&2
  grep -nE 'time\.(Now|Since|Until)\(' $node_src >&2
  exit 1
fi

echo "== attaching a counter allocates nothing =="
# A swarm counts its events into a probe.Counter of its own; attaching the
# caller's instead (what every manifested run and the benchmark do) must not
# add an allocation. -benchtime=3x, not 1x: a one-time lazy allocation in
# the first swarm run of the process lands on whichever benchmark runs
# first; three iterations amortize it so the comparison sees only the
# steady-state per-run counts.
bench_out=$(go test -run=NONE -bench='^BenchmarkSwarm(NoProbe|CounterProbe)$' -benchtime=3x -benchmem ./internal/sim)
echo "$bench_out"
no_probe=$(echo "$bench_out" | awk '/^BenchmarkSwarmNoProbe/ {print $(NF-1)}')
counter=$(echo "$bench_out" | awk '/^BenchmarkSwarmCounterProbe/ {print $(NF-1)}')
if [ -z "$no_probe" ] || [ -z "$counter" ]; then
  echo "counter guard: could not parse benchmark output" >&2
  exit 1
fi
if [ "$no_probe" != "$counter" ]; then
  echo "counter guard: allocs/op diverged (own counter: $no_probe, attached counter: $counter)" >&2
  exit 1
fi

echo "== scale regression guard =="
# One 5000x256 run drives ~1.3M upload decisions; the holder rows and the
# rarity index keep the decision loop allocation-free, so whole-run
# allocs/op stay dominated by per-peer setup (~161k: each peer's adjacency
# is carved from swarm-level slabs, and no peer keeps a map of its
# neighbours). The ceiling is the measured number plus 10%: an allocation
# sneaking into the per-decision path would add millions, adjacency growing
# per link again would add ~220k, and a per-peer neighbour map coming back
# ~90k.
alloc_guard ./internal/sim BenchmarkSwarmLarge 176800 1x

echo "== event queue allocation guard =="
# Figure 4's stalled run in miniature: 1000 idle polls re-arming U(0.5, 1.5)
# s ahead. The radix queue threads its buckets through the free-listed event
# records, so a pop, a re-spread and a re-arm must allocate nothing.
alloc_guard ./internal/eventsim BenchmarkIdlePolls 0

echo "== wire-path allocation guard =="
# One piece-sized frame through the steady-state wire path (pooled
# AppendFrame encode + Decoder scratch decode) must cost at most 1 alloc:
# the decode side's Message interface boxing, which the API shape requires.
# Anything above that means a buffer slipped out of the pool or the decoder
# stopped reusing its scratch. 10000x amortizes pool warm-up to zero.
alloc_guard ./internal/protocol BenchmarkFrameRoundTrip 1 10000x

echo "== strategy decision allocation guard =="
# One upload decision per mechanism over 50 neighbours, busy (everyone has
# contributed) and idle (only the seeder has — Figure 4's stalled
# Reciprocity case, ~12 M of that figure's 14.9 M events). The simulator
# makes millions per run, so every row must stay allocation-free; the
# benchmark's view reuses its buffers, so a nonzero count is the strategy's.
alloc_guard ./internal/incentive BenchmarkNextReceiver 0 100000x

echo "== ledger allocation guard =="
# Every credited piece is one Ledger.Credit and every busy Reputation
# decision one Ledger.Scores over its candidates, against Figure 4's
# 1000-peer ledger: a probe into the standings table per credit or per
# candidate, so neither may allocate once the table has grown.
alloc_guard ./internal/reputation BenchmarkLedgerScores 0
alloc_guard ./internal/reputation BenchmarkLedgerCredit 0

echo "== piece store allocation guard =="
# Every delivered piece is one Store.Put: verified, then copied into the tail
# of the store's current 256 KB arena chunk. 64 pieces of 16 KB fill four
# chunks, and with the store itself that is 8 allocs/op; an allocation per
# piece coming back (it was 78 with one buffer per piece and a map) would
# add 64.
alloc_guard ./internal/piece BenchmarkStorePut 12
# A Mem receiver and the seeder verify and then keep the bytes they were
# handed: Store.Adopt of 64 pieces of 16 KB into stores built before the
# timer is a hash per piece and no copy, so it must allocate nothing.
alloc_guard ./internal/piece BenchmarkStoreAdopt 0

echo "== rarest pick allocation guard =="
# The simulator's rarest-first pick runs once per transfer, millions of
# times in Figure 4: a word pass masked by the rarity level of the running
# best, so both rows (seeder and peer sender) must stay allocation-free.
alloc_guard ./internal/piece BenchmarkSelectRarestMissing 0

echo "== attestation adversary gate =="
# The proof-first ledger's security claims again, explicitly and by name,
# under the race detector: every forgery class (unsigned claim, re-signed
# capture, sybil sock-puppet, self-receipt, replay) earns zero verified
# reputation; a full signed swarm's books balance to the byte; and a
# man-in-the-middle corrupting every receipt copy in flight is caught on
# the ack audit path without touching the ledger. T-Chain's witness
# receipts too: every receipt an origin must refuse (minted by the
# forwarder, addressed elsewhere, off its link, a per-piece receipt
# re-wrapped, wrong piece, replayed) leaves the key in escrow, a client
# reciprocating one seal in four is released one key in four, a stopped
# node keeps nothing alive — no timer outlives it — and a transient receipt
# conn closes at its linger's tick or at Stop. The escrow those receipts
# release from is one book, held to its invariants by a seeded property test
# (every key leaves at most once, no sweep releases to a receiver that never
# reciprocated) and read on passed-in time only; and a parked seal answers to
# the origin that sealed it, not to a KeyID any neighbor can guess: two
# origins' seals under one KeyID both open, and another peer's Key neither
# opens nor removes one. A seal or forward shorter than its piece costs the
# link, a receipt for less than the piece releases nothing, a parked seal
# goes once its piece is delivered or its origin unlinks, and a key that
# lands while its seal's forward is queued never opens into that buffer. And
# the credit that needs no forgery: a client re-pushing one piece the
# receiver holds earns nothing under any of the six mechanisms, on the
# ledger or in the node's books, and a node reads complete only once every
# receipt for its pieces is credited. The receipt copies all of this
# audits travel on the flush clock, so its tests are gated here too: nothing
# signals a writer for an announcement, a copy or a tick's push, the flush
# closing the tick does, while a frame a handler owes (a forwarded seal, a key,
# a repayment) wakes it at once; a free-rider still ticks, Stop drains what the
# dead tick left, the Mem pipe under them moves many blocked senders, blocks
# the 65th unread frame and wakes both sides on Close, and the tick's pushes
# serve only what a link asked for — at most maxInFlight requests a link, one
# that asked for nothing is passed over and does not end the tick, a request
# unserved past the cooldown returns its piece, every pending piece is
# pending on one link, a repayment serves the origin's request, and a seeded
# swarm moves almost no piece twice. The decision's candidate list rides the same links:
# both views' one-pass wanting filter equals the generic one, the links stay
# in ascending ID order through link and unlink, and the draws stay pinned.
# The verifier that credits the receipts follows a key the directory rotates,
# checks pairs concurrently with admissions, and keeps no state for a pair
# until a receipt of it verifies. The pieces those receipts are for are
# stored once per process: the store adopts only after the same verify, a
# Mem receiver (a Flaky-wrapped one too) keeps the sender's frozen bytes,
# and a TCP receiver copies out of the decoder's scratch.
go test -race -count=1 -run 'TestAdversariesEarnZeroVerifiedReputation|TestReplayedReceiptCreditsOnce|TestRePusherEarnsNothing' ./internal/attack
go test -race -count=1 -run 'TestClusterAttestationEndToEnd|TestClusterSurvivesTamperedAcks|TestWitnessReceiptAdversaries|TestHostileFramesDropLinkNotNode|TestStoppedTChainNodeIsCollectable|TestTransientReceiptLinger|TestParkedSealsDoNotCollideAcrossOrigins|TestKeyOpensOnlyItsSendersSeal|TestMootSealsAreDropped|TestWitnessKeepsNoCiphertext|TestKeysOpenBackToBack|TestCompleteWaitsForEveryCredit' ./internal/node
go test -race -count=1 -run 'TestEscrowProperty|TestEscrowConcurrent|TestSweepGrace|TestSealForByValue|TestOpenIntoLeavesSealAlone' ./internal/tchain
go test -race -count=1 -run 'TestDecoderOwnsCiphertext' ./internal/protocol
go test -race -count=1 -run 'TestFlushClock|TestFreeRiderAnnouncesAndAcknowledges|TestOutboxContract|TestStopDrainAccounting|TestWriterCoalescesGains|TestUploadWindow|TestUploadSkipsFullWindows|TestInFlightCountMatchesOracle|TestResendCooldown|TestNoDuplicateUploads|TestWantingViewMatchesFilter|TestLinksStaySorted|TestDecisionDrawsPinned|TestMemPiecesStoredByReference|TestTCPPiecesOwnStorage|TestEarlyDuplicateBytes' ./internal/node
go test -race -count=1 -run 'TestMemPipeBlocksPastDepth|TestMemPipeManySenders|TestMemCloseUnblocks|TestPayloadsFrozen' ./internal/transport
go test -race -count=1 -run 'TestStoreAdopt|TestStoreHeldPutAndAdopt|TestSeedStoreKeepsContent|TestStoreRacingPutAdoptWithReaders' ./internal/piece
go test -race -count=1 -run 'TestVerifierFollowsKeyRotation|TestVerifierConcurrentWithAdmissions|TestForgedReceiptsLeaveNoState|TestSharedMACStatesConcurrent' ./internal/attest
if grep -n 'time\.AfterFunc' $(ls internal/node/*.go internal/tchain/*.go | grep -v '_test\.go$'); then
  echo "internal/node or internal/tchain arms a time.AfterFunc: its closure pins the node past Stop; queue the work for a tick instead" >&2
  exit 1
fi
if grep -n 'time\.\(Now\|Since\)' $(ls internal/tchain/*.go | grep -v '_test\.go$'); then
  echo "internal/tchain reads a clock: the escrow takes time as an argument (the node's tick instant)" >&2
  exit 1
fi

echo "== attestation allocation guard =="
# Session-scheme receipts ride the in-process cluster hot path (one sign at
# the receiver, one verify at the ledger, per piece), so both must stay
# allocation-free; anything nonzero means canonical encoding started
# escaping to the heap.
alloc_guard ./internal/attest BenchmarkAttestSignSession 0
alloc_guard ./internal/attest BenchmarkAttestVerifySession 0
# Link-scheme witness receipts are the same MAC under another key: one sign
# per forward at the witness, one check at the origin.
alloc_guard ./internal/attest BenchmarkAttestSignLink 0
alloc_guard ./internal/attest BenchmarkAttestVerifyLink 0

echo "== mem pipe allocation guard =="
# Every frame of the mem workloads crosses a Mem pipe: a writer's drain
# through SendBatch and a single Send, each against a concurrent Recv, are a
# ring slot under the pipe's one lock and must allocate nothing.
alloc_guard ./internal/transport BenchmarkMemPipe 0

echo "== sealed path allocation guard =="
# T-Chain's one buffer per hop: a 4 KB seal allocates its ciphertext, the
# AES cipher and its CTR stream, nothing for the escrow's bookkeeping; an
# open into a reused buffer allocates only the cipher and the stream.
alloc_guard ./internal/tchain BenchmarkSealFor 3
alloc_guard ./internal/tchain BenchmarkOpenInto 2

echo "== metrics allocation guard =="
# Every first delivery credits its sender's byte counter with the node lock
# held: a map lookup and two atomic adds once the sender has been seen, so
# it must be allocation-free. The writer side's counter adds ride
# BenchmarkOutboxUntraced, guarded below.
alloc_guard ./internal/node BenchmarkNoteDownload 0

echo "== tracing overhead guard =="
# The per-peer outbox is the path every live frame crosses, and
# remote.enqueue is the only way into it. With causal tracing compiled in
# but not sampling, one bulk frame through enqueue(msg, tickPush, nil) plus one
# writeLoop drain (takeBatch, Send, recycle) must stay at exactly 0
# allocs/op — the proof that the trace arguments (uploadTrace, traced-frame
# bookkeeping, clock reads) cost nothing until a push is actually sampled.
alloc_guard ./internal/node BenchmarkOutboxUntraced 0 10000x

echo "== announcement fan-out allocation guard =="
# A verified piece is announced from the node's gain log: one append and no
# per-link work, no frame queued and no writer woken — the links announce
# the log's tail on their next drain, which the upload tick causes if nothing
# sooner does. With 15 neighbors it must cost 0 allocs/op — it was 15, one
# boxed Have queued per link, and that was most of swarm_mem_small's
# allocations per piece.
alloc_guard ./internal/node BenchmarkAnnounceFanout 0

echo "== node decision allocation guard =="
# One upload decision through the view tryUpload decides through reads each
# link's requests and each neighbour's holdings against ours (mid-download,
# mid-download with half the links asking nothing, lacking only a piece in
# the last word, every peer complete), over 15 links at 4096 pieces. Every
# node makes several a tick, so every row must stay allocation-free.
alloc_guard ./internal/node BenchmarkNodeDecision 0
# The requester's per-link pick: eight rarest-first picks refill one link's
# request queue and are copied to the request log for its writer. It runs
# once for each piece a node gains, with the node lock held; the log's 4 KB
# blocks amortize to nothing a refill.
alloc_guard ./internal/node BenchmarkRequestPick 0

echo "== flush clock guard =="
# Announcements and receipt copies ride the node's tick, not a writer
# wake-up per event per link: the swarm_tcp shape writes about 3.0 frames per
# delivered piece (4.7 when every gain woke every link's writer and each
# wake-up left as its own one- or two-index Have). A ceiling between the two,
# so a per-event wake cannot creep back unnoticed.
frames_out=$(go test -run=NONE -bench='^BenchmarkClusterThroughput$/^tcp-8x4096x4K$' -benchtime=3x ./internal/node)
echo "$frames_out"
frames_per_piece=$(echo "$frames_out" | awk '/^BenchmarkClusterThroughput\/tcp-8x4096x4K/ {for (i = 2; i <= NF; i++) if ($i == "frames/piece") print $(i-1)}')
if [ -z "$frames_per_piece" ]; then
  echo "flush clock guard: no frames/piece in the benchmark output" >&2
  exit 1
fi
if awk -v f="$frames_per_piece" 'BEGIN {exit !(f > 3.8)}'; then
  echo "flush clock guard: $frames_per_piece frames per piece on tcp-8x4096x4K (ceiling 3.8)" >&2
  exit 1
fi

echo "== size =="
# Report only, never fails: the Go line counts ROADMAP's gates and
# CHANGES.md entries quote, counted one way. loc <dir…> prints non-test
# and test lines under the given directories; the root module is
# everything but bench/ (its own module) and build output.
loc() {
  local go_files=(find "$@" -name '*.go' -not -path './bench/*' -not -path '*/.build/*')
  printf '%-30s %6d non-test %6d test\n' "$*" \
    "$("${go_files[@]}" -not -name '*_test.go' -exec cat {} + | wc -l)" \
    "$("${go_files[@]}" -name '*_test.go' -exec cat {} + | wc -l)" || true
}
loc .
loc internal/node internal/sim
loc internal/sim internal/probe internal/runner
loc internal/tchain internal/node
loc internal/tchain internal/node internal/protocol
loc internal/node cmd/coopnode
loc bench

echo "check: OK"
