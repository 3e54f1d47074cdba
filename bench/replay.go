package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/eventsim"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/reputation"
	"repro/internal/tchain"
	"repro/internal/transport"
)

// replaySize is how much work each isolated layer replay does: batches of
// batch operations, timed one batch at a time (untimed preparation, such as
// signing the attestations a verify replay consumes, happens per batch),
// until minDur of timed work has accumulated.
type replaySize struct {
	minDur time.Duration
	batch  int
}

// fullReplay is the size every recorded run uses; the smoke test shrinks it.
var fullReplay = replaySize{minDur: 500 * time.Millisecond, batch: 8192}

// replayer runs the isolated layer replays of one traced run: each calls one
// layer's public functions alone, single-threaded unless said, at the
// workload's shape, inside a span of its own.
type replayer struct {
	w      workload
	seed   int64
	size   replaySize
	rec    *recorder
	parent int
	out    map[string]float64
	errs   []string
}

// timed runs batches until size.minDur of timed work has accumulated (or a
// replay has failed) and returns nanoseconds and allocations per operation.
// prep, when not nil, runs untimed before each batch; run performs n
// operations.
func (p *replayer) timed(name string, prep func(n int), run func(n int)) (ns, allocs float64) {
	id := p.rec.begin("replay "+name, p.parent, 0, 0)
	defer p.rec.end(id)
	var total time.Duration
	var ops int
	var mallocs uint64
	var ms runtime.MemStats
	for total < p.size.minDur && len(p.errs) == 0 {
		if prep != nil {
			prep(p.size.batch)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		run(p.size.batch)
		total += time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		ops += p.size.batch
	}
	if ops == 0 { // an earlier replay already failed the run
		return 0, 0
	}
	return float64(total.Nanoseconds()) / float64(ops), float64(mallocs) / float64(ops)
}

func (p *replayer) failf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// neighbors is the neighbour count a strategy decision sees on w.
func (w workload) neighbors() int {
	if w.isSim() {
		return min(w.peers-1, 50) // sim.Default's MaxNeighbors
	}
	return w.nodes - 1
}

// replayAll runs every replay whose layer is on w's path; the rest keep
// their zero. It runs before the rounds, in the fresh process's small heap:
// after them, a bulk round's half gigabyte of released pages made the same
// Put replay read 70-130 us instead of 50.
func (p *replayer) replayAll() {
	p.parent = p.rec.begin("replays", 0, 0, -1)
	defer p.rec.end(p.parent)
	w := p.w
	if w.isSim() {
		p.rarestPick()
		p.eventEngine()
		if w.figure {
			for _, a := range algo.All() {
				p.nextReceiver(a)
			}
		} else {
			p.nextReceiver(algo.BitTorrent)
		}
		return
	}
	if w.tcp {
		p.codec() // Mem hands messages over by reference: no codec on its path
	}
	p.transportFrames()
	p.store()
	p.attestations()
	p.ledgerCredit()
	p.nextReceiver(w.mech)
	if w.mech == algo.TChain {
		p.sealOpen()
	}
}

func (p *replayer) payload() []byte {
	data := make([]byte, p.w.pieceSize)
	rand.New(rand.NewSource(p.seed)).Read(data)
	return data
}

// codec: AppendFrame + Decoder.Decode of a Piece at the workload's size and
// of a Have, boxed once outside the loop as the node's send queue does.
func (p *replayer) codec() {
	var wire bytes.Buffer
	dec := protocol.NewDecoder(&wire)
	var frame []byte
	roundtrip := func(msg protocol.Message) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				if frame, err = protocol.AppendFrame(frame[:0], msg); err == nil {
					wire.Write(frame)
					_, err = dec.Decode()
				}
				if err != nil {
					p.failf("codec: %v", err)
					return
				}
			}
		}
	}
	pieceNs, pieceAllocs := p.timed("protocol.piece", nil,
		roundtrip(protocol.Piece{Index: 7, RepaysKeyID: protocol.NoRepay, Data: p.payload()}))
	haveNs, haveAllocs := p.timed("protocol.have", nil, roundtrip(protocol.Have{Index: 7}))
	p.out["protocol.piece_roundtrip_ns"] = pieceNs
	p.out["protocol.have_roundtrip_ns"] = haveNs
	p.out["protocol.roundtrip_allocs"] = (pieceAllocs + haveAllocs) / 2
}

// transportFrames: Piece frames at the workload's size streamed over one
// connection pair while a second goroutine receives them — Send/Recv per
// frame, and for TCP also SendBatch with 16-frame batches as the node's
// per-peer writers do.
func (p *replayer) transportFrames() {
	msg := protocol.Message(protocol.Piece{Index: 7, RepaysKeyID: protocol.NoRepay, Data: p.payload()})
	if !p.w.tcp {
		p.out["transport.mem_frame_ns"] = p.streamFrames("transport.mem", transport.NewMem(), "", msg, 1)
		return
	}
	p.out["transport.tcp_frame_ns"] = p.streamFrames("transport.tcp", transport.NewTCP(), "127.0.0.1:0", msg, 1)
	p.out["transport.tcp_batch16_frame_ns"] = p.streamFrames("transport.tcp_batch16", transport.NewTCP(), "127.0.0.1:0", msg, 16)
}

func (p *replayer) streamFrames(name string, tr transport.Transport, addr string, msg protocol.Message, batch int) float64 {
	sender, receiver, closeAll, err := connPair(tr, addr)
	if err != nil {
		p.failf("%s: %v", name, err)
		return 0
	}
	// The receiver reports after every batch of frames and exits when
	// closeAll fails its Recv.
	received := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(received)
		for n := 1; ; n++ {
			if _, err := receiver.Recv(); err != nil {
				return
			}
			if n%p.size.batch == 0 {
				received <- struct{}{}
			}
		}
	}()
	defer func() {
		closeAll()
		wg.Wait()
	}()

	msgs := make([]protocol.Message, batch)
	for i := range msgs {
		msgs[i] = msg
	}
	batcher, _ := sender.(transport.BatchSender)
	if batch > 1 && batcher == nil {
		p.failf("%s: connection cannot SendBatch", name)
		return 0
	}
	ns, _ := p.timed(name, nil, func(n int) {
		for i := 0; i < n; i += batch {
			if batch > 1 {
				err = batcher.SendBatch(msgs)
			} else {
				err = sender.Send(msg)
			}
			if err != nil {
				p.failf("%s: %v", name, err)
				return
			}
		}
		if _, ok := <-received; !ok {
			p.failf("%s: receiver stopped early", name)
		}
	})
	return ns
}

// connPair opens one connection over tr and returns both ends plus a
// function that closes them and the listener.
func connPair(tr transport.Transport, addr string) (dialed, accepted transport.Conn, closeAll func(), err error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, nil, nil, err
	}
	type result struct {
		c   transport.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		ch <- result{c, err}
	}()
	dialed, err = tr.Dial(l.Addr())
	if err != nil {
		l.Close() // also fails the pending Accept
		<-ch
		return nil, nil, nil, err
	}
	res := <-ch
	if res.err != nil {
		dialed.Close()
		l.Close()
		return nil, nil, nil, res.err
	}
	return dialed, res.c, func() {
		dialed.Close()
		res.c.Close()
		l.Close()
	}, nil
}

// store: Store.Put into empty stores (SHA-256 verify + copy), Put of a piece
// the store already holds (verify only: what a duplicate push costs its
// receiver) and GetRef, at the workload's piece size.
func (p *replayer) store() {
	const pieces = 64
	content := make([]byte, pieces*p.w.pieceSize)
	rand.New(rand.NewSource(p.seed)).Read(content)
	manifest, err := piece.NewManifest(content, p.w.pieceSize)
	if err != nil {
		p.failf("store: %v", err)
		return
	}
	seeded, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		p.failf("store: %v", err)
		return
	}
	at := func(i int) []byte { return content[i*p.w.pieceSize : (i+1)*p.w.pieceSize] }
	var st *piece.Store
	putNs, _ := p.timed("piece.put", nil, func(n int) {
		for i := 0; i < n; i++ {
			if i%pieces == 0 {
				st = piece.NewStore(manifest)
			}
			if err := st.Put(i%pieces, at(i%pieces)); err != nil {
				p.failf("store: %v", err)
				return
			}
		}
	})
	heldNs, _ := p.timed("piece.put_held", nil, func(n int) {
		for i := 0; i < n; i++ {
			if err := seeded.Put(i%pieces, at(i%pieces)); err != nil {
				p.failf("store: %v", err)
				return
			}
		}
	})
	getNs, _ := p.timed("piece.getref", nil, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := seeded.GetRef(i % pieces); err != nil {
				p.failf("store: %v", err)
				return
			}
		}
	})
	p.out["piece.put_ns"] = putNs
	p.out["piece.put_mib_s"] = float64(p.w.pieceSize) / (1 << 20) / (putNs / 1e9)
	p.out["piece.put_held_ns"] = heldNs
	p.out["piece.getref_ns"] = getNs
}

// rarestPick: a rarest-first pick over an Availability index at the
// workload's piece count, against half-full bitfields.
func (p *replayer) rarestPick() {
	rng := rand.New(rand.NewSource(p.seed))
	half := func() *piece.Bitfield {
		b := piece.NewBitfield(p.w.pieces)
		for i := 0; i < p.w.pieces; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		return b
	}
	avail := piece.NewAvailability(p.w.pieces)
	for i := 0; i < p.w.neighbors(); i++ {
		avail.AddBitfield(half())
	}
	have, from, pending := half(), half(), piece.NewBitfield(p.w.pieces)
	ns, _ := p.timed("piece.rarest_pick", nil, func(n int) {
		for i := 0; i < n; i++ {
			avail.SelectRarestMissing(rng, have, from, pending)
		}
	})
	p.out["piece.rarest_pick_ns"] = ns
}

// attestPair is a verifier over a two-identity directory plus the receiver's
// key, which attests pieces from sender 1.
func attestPair(seed int64, receivers int) (*attest.Verifier, []*attest.Key) {
	dir := attest.NewDirectory()
	dir.Register(1, attest.NewKeyFromSeed(1, seed).Identity())
	keys := make([]*attest.Key, receivers)
	for i := range keys {
		keys[i] = attest.NewKeyFromSeed(int32(i+2), seed)
		dir.Register(int32(i+2), keys[i].Identity())
	}
	return attest.NewVerifier(dir), keys
}

// attestations: Key.Attest and Verifier.Verify under the session MAC every
// swarm workload uses, and under Ed25519 for reference (no workload signs
// with it). Verify consumes sequence numbers, so each batch verifies
// attestations signed untimed just before.
func (p *replayer) attestations() {
	size := int64(p.w.pieceSize)
	for _, s := range []struct {
		scheme attest.Scheme
		name   string
	}{{attest.SchemeSession, "session"}, {attest.SchemeEd25519, "ed25519"}} {
		verifier, keys := attestPair(p.seed, 1)
		signNs, _ := p.timed("attest."+s.name+"_sign", nil, func(n int) {
			for i := 0; i < n; i++ {
				keys[0].Attest(s.scheme, 1, int32(i), [32]byte{}, size)
			}
		})
		batch := make([]attest.Attestation, p.size.batch)
		verifyNs, _ := p.timed("attest."+s.name+"_verify", func(n int) {
			for i := range batch[:n] {
				batch[i] = keys[0].Attest(s.scheme, 1, int32(i), [32]byte{}, size)
			}
		}, func(n int) {
			for i := range batch[:n] {
				if err := verifier.Verify(batch[i]); err != nil {
					p.failf("attest: %v", err)
					return
				}
			}
		})
		p.out["attest."+s.name+"_sign_ns"] = signNs
		p.out["attest."+s.name+"_verify_ns"] = verifyNs
	}
}

// ledgerCredit: Ledger.Credit behind a Verifier policy (so one session
// verify is inside it) from one goroutine, then from GOMAXPROCS goroutines
// on one shared ledger as a cluster's nodes do; the contended figure is the
// time one credit takes while all of them credit.
func (p *replayer) ledgerCredit() {
	size := int64(p.w.pieceSize)
	for _, c := range []struct {
		metric  string
		workers int
	}{{"reputation.credit_ns", 1}, {"reputation.credit_contended_ns", runtime.GOMAXPROCS(0)}} {
		verifier, keys := attestPair(p.seed, c.workers)
		ledger := reputation.NewLedger(verifier)
		batches := make([][]attest.Attestation, c.workers)
		for i := range batches {
			batches[i] = make([]attest.Attestation, p.size.batch)
		}
		errs := make([]error, c.workers)
		ns, _ := p.timed(c.metric, func(n int) {
			for g, batch := range batches {
				for i := range batch[:n] {
					batch[i] = keys[g].Attest(attest.SchemeSession, 1, int32(i), [32]byte{}, size)
				}
			}
		}, func(n int) {
			var wg sync.WaitGroup
			for g, batch := range batches {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range batch[:n] {
						if errs[g] = ledger.Credit(batch[i]); errs[g] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					p.failf("ledger: %v", err)
				}
			}
		})
		p.out[c.metric] = ns
	}
}

// sealOpen: Escrow.Seal (with the key's Release, which empties the vault
// again) and Open at the workload's piece size.
func (p *replayer) sealOpen() {
	data := p.payload()
	escrow := tchain.NewEscrow()
	var sealed *tchain.Sealed
	var key tchain.Key
	sealNs, _ := p.timed("tchain.seal", nil, func(n int) {
		for i := 0; i < n; i++ {
			var err error
			if sealed, err = escrow.Seal(data); err == nil {
				key, err = escrow.Release(sealed.KeyID)
			}
			if err != nil {
				p.failf("tchain: %v", err)
				return
			}
		}
	})
	openNs, _ := p.timed("tchain.open", nil, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tchain.Open(sealed, key); err != nil {
				p.failf("tchain: %v", err)
				return
			}
		}
	})
	p.out["tchain.seal_ns"] = sealNs
	p.out["tchain.open_ns"] = openNs
}

// stubView is a NodeView over a fixed neighbourhood in which every
// neighbour wants and offers pieces, so a decision scans all of them.
type stubView struct {
	rng       *rand.Rand
	neighbors []incentive.PeerID
	scratch   []incentive.PeerID
	ledger    *reputation.Ledger
}

func (v *stubView) Self() incentive.PeerID { return incentive.PeerID(len(v.neighbors)) }
func (v *stubView) Now() float64           { return 100 }
func (v *stubView) RNG() *rand.Rand        { return v.rng }
func (v *stubView) Neighbors() []incentive.PeerID {
	v.scratch = append(v.scratch[:0], v.neighbors...)
	return v.scratch
}
func (v *stubView) WantsFromMe(incentive.PeerID) bool    { return true }
func (v *stubView) INeedFrom(incentive.PeerID) bool      { return true }
func (v *stubView) PieceCount(peer incentive.PeerID) int { return int(peer) % 16 }
func (v *stubView) Reputation(peer incentive.PeerID) float64 {
	return v.ledger.Score(int(peer))
}

// nextReceiver: one mechanism's Strategy.NextReceiver over a stub view with
// the workload's neighbour count, after every neighbour has contributed.
func (p *replayer) nextReceiver(a algo.Algorithm) {
	ledger := reputation.NewLedger(attest.AcceptAll{})
	view := &stubView{rng: rand.New(rand.NewSource(p.seed)), ledger: ledger}
	for i := 0; i < p.w.neighbors(); i++ {
		view.neighbors = append(view.neighbors, incentive.PeerID(i))
		_ = ledger.Credit(attest.Claim(int32(i), -1, 0, int64(i+1)*1000)) // AcceptAll never rejects
	}
	strategy, err := incentive.New(a, incentive.Params{}, ledger)
	if err != nil {
		p.failf("incentive: %v", err)
		return
	}
	for _, peer := range view.neighbors {
		strategy.OnReceived(view, peer, float64(peer+1)*100)
	}
	ns, _ := p.timed("incentive."+mechName(a), nil, func(n int) {
		for i := 0; i < n; i++ {
			strategy.NextReceiver(view)
		}
	})
	p.out["incentive.next_receiver_ns."+mechName(a)] = ns
}

// eventEngine: one eventsim.Engine holding a self-rescheduling handler per
// simulated peer, so the heap is as deep as the workload's.
func (p *replayer) eventEngine() {
	engine := eventsim.New()
	for i := 0; i < p.w.peers; i++ {
		delay := 1 + float64(i%97)/97
		var tick eventsim.Handler
		tick = func(float64) { engine.After(delay, tick) }
		engine.Schedule(delay, tick)
	}
	ns, allocs := p.timed("eventsim", nil, func(n int) {
		for i := 0; i < n; i++ {
			engine.Step()
		}
	})
	p.out["eventsim.ns_per_event"] = ns
	p.out["eventsim.allocs_per_kevent"] = allocs * 1000
}
