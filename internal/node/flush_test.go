package node

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// parkOn parks a goroutine on r's writer condition, exactly where a writer
// with nothing to send waits in takeBatch, and returns a channel closed once
// a Signal releases it. sync.Cond.Wait joins the notify list before it gives
// up the lock, so by the time parkOn has taken outMu back the waiter is
// registered: no later Signal can miss it, and no sleep is needed to know.
// Rows that use it run no writer, so it is the link's only waiter.
func parkOn(r *remote) <-chan struct{} {
	ready, woke := make(chan struct{}), make(chan struct{})
	go func() {
		r.outMu.Lock()
		close(ready)
		r.outCond.Wait()
		r.outMu.Unlock()
		close(woke)
	}()
	<-ready
	r.outMu.Lock()
	r.outMu.Unlock()
	return woke
}

// quietFor is how long a parked writer is watched to show that nothing
// signalled it. A signal releases the waiter within microseconds, so a wrong
// one is caught nearly always; a slow scheduler can only make the row pass.
const quietFor = 20 * time.Millisecond

func expectParked(t *testing.T, woke <-chan struct{}, after string) {
	t.Helper()
	select {
	case <-woke:
		t.Errorf("the writer was signalled by %s", after)
	case <-time.After(quietFor):
	}
}

func expectWoken(t *testing.T, woke <-chan struct{}, by string) {
	t.Helper()
	select {
	case <-woke:
	case <-time.After(5 * time.Second):
		t.Fatalf("the writer was not signalled by %s", by)
	}
}

// drained closes r's outbox, runs its writer to the end and returns what
// reached the conn.
func drained(r *remote, conn *gateConn) []protocol.Message {
	r.closeOutbox()
	r.writeLoop()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.sent
}

// TestFlushClock pins the flush clock on an unstarted node, where calling
// flushLinks is the tick: control traffic nobody is waiting on — a gain's
// announcement, a receipt copy — signals no writer when it is queued, the
// next tick signals the links that have some and only those, and what then
// leaves is what was pending.
func TestFlushClock(t *testing.T) {
	fixture := func(t *testing.T) (*Node, *remote, *gateConn) {
		manifest, _ := clusterFixture(t)
		n := fixtureNode(t, Config{Algorithm: algo.Altruism, Store: piece.NewStore(manifest)})
		r, conn := fixtureRemote(n, 1, false)
		link(t, n, r)
		return n, r, conn
	}
	t.Run("a gain on an idle link is announced by the next tick and not before", func(t *testing.T) {
		n, r, conn := fixture(t)
		woke := parkOn(r)
		gain(n, 3)
		expectParked(t, woke, "a gain")
		if r.flushed() || r.queued() != 1 {
			t.Errorf("flushed = %v, queued = %d with a gain unannounced, want false and 1", r.flushed(), r.queued())
		}
		n.flushLinks()
		expectWoken(t, woke, "the tick after a gain")
		if got, want := drained(r, conn), []protocol.Message{protocol.Have{Index: 3}}; !reflect.DeepEqual(got, want) {
			t.Errorf("wire saw %+v, want %+v", got, want)
		}
	})
	// The stranding case: a downloader announces nothing a complete seed
	// waits to hear, so the seed's proof copies have only the tick to ride.
	t.Run("a receipt copy on an idle link is sent by the next tick and not before", func(t *testing.T) {
		n, r, conn := fixture(t)
		woke := parkOn(r)
		ack := protocol.Attest{Att: n.signReceipt(int32(r.id), 3, testPieceSize)}
		if !r.enqueue(ack, receiptCopy, nil) {
			t.Fatal("receipt copy refused")
		}
		expectParked(t, woke, "a queued receipt copy")
		n.flushLinks()
		expectWoken(t, woke, "the tick after a receipt copy")
		if got, want := drained(r, conn), []protocol.Message{ack}; !reflect.DeepEqual(got, want) {
			t.Errorf("wire saw %+v, want %+v", got, want)
		}
	})
	t.Run("the tick leaves a link with nothing to send alone", func(t *testing.T) {
		n, r, _ := fixture(t)
		busy, _ := fixtureRemote(n, 2, false)
		link(t, n, busy)
		busy.enqueue(protocol.Attest{}, receiptCopy, nil)
		idle, wokeBusy := parkOn(r), parkOn(busy)
		n.flushLinks()
		expectWoken(t, wokeBusy, "the tick")
		expectParked(t, idle, "a tick with nothing pending on its link")
	})
}

// TestFreeRiderAnnouncesAndAcknowledges: a free-rider skips the upload half
// of the tick, not the tick. On a link it never pushes a piece over, nothing
// but the tick sends its Haves and its receipt copies — so the seed of a
// two-node swarm must come to see every piece announced and hold a verified
// receipt for every piece it delivered.
func TestFreeRiderAnnouncesAndAcknowledges(t *testing.T) {
	manifest, content := clusterFixture(t)
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.Altruism),
		WithTransport(transport.NewMem()),
		WithLeechers(1),
		WithFreeRiders(map[int]bool{1: true}),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop() })
	seed, rider := c.Seed(), c.Leechers()[0]
	if err := waitComplete(t, rider, 20*time.Second); err != nil {
		t.Fatalf("free-rider incomplete under altruism (%v): %+v", err, rider.Stats())
	}
	waitFor(t, "the free-rider to announce every piece", func() bool {
		seed.mu.Lock()
		defer seed.mu.Unlock()
		r := seed.linkedLocked(rider.ID())
		return r != nil && r.have.Count() == testPieces
	})
	waitFor(t, "the free-rider to acknowledge every delivery", func() bool {
		return seed.metrics.attestAcksOK.Load() == testPieces
	})
	if got := rider.Stats().UploadedBytes; got != 0 {
		t.Errorf("free-rider uploaded %g bytes", got)
	}
}
