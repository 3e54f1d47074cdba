package attack

import (
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/reputation"
	"repro/internal/transport"
)

// TestRePusherEarnsNothing runs the duplicate-delivery client against a live
// node that already holds the piece it pushes, beside an honest uploader
// that moves the same number of bytes in pieces the node lacked — same
// handshake, same frames, only the indices differ — under each of the six
// mechanisms: a first delivery is decided in one place whatever the strategy.
// The honest one is credited to the byte, in the node's counters and on the
// ledger the Reputation strategy ranks by; the re-pusher ends with nothing in
// either.
func TestRePusherEarnsNothing(t *testing.T) {
	for _, mech := range algo.All() {
		t.Run(mech.String(), func(t *testing.T) { rePushAgainst(t, mech) })
	}
}

func rePushAgainst(t *testing.T, mech algo.Algorithm) {
	const pieces, size, pushes = 16, 512, 8
	const rePusherID, honestID = 1, 2
	manifest, err := piece.SyntheticManifest(pieces, size)
	if err != nil {
		t.Fatal(err)
	}
	store := piece.NewStore(manifest)
	held := piece.SyntheticPiece(0, size)
	if err := store.Put(0, held); err != nil {
		t.Fatal(err)
	}
	ledger := reputation.NewLedger(attest.AcceptAll{})
	tr := transport.NewMem()
	victim, err := node.New(node.Config{Algorithm: mech, Store: store, Transport: tr, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	defer victim.Stop()

	// settled returns once the victim has fully handled the frames frames a
	// client sent on conn. A link's frames are handled in order and counted
	// on arrival, so a trailing empty Nodes frame (no contacts to learn)
	// being counted means everything before it is done.
	var expected int64
	settled := func(conn transport.Conn, frames int64) {
		t.Helper()
		if err := conn.Send(protocol.Nodes{}); err != nil {
			t.Fatal(err)
		}
		expected += frames + 1
		for deadline := time.Now().Add(10 * time.Second); victim.Stats().FramesReceived < expected; {
			if time.Now().After(deadline) {
				t.Fatalf("victim handled %d frames, want %d", victim.Stats().FramesReceived, expected)
			}
			time.Sleep(time.Millisecond)
		}
	}

	conn, err := tr.Dial(victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := RePush(conn, rePusherID, pieces, 0, held, pushes); err != nil {
		t.Fatal(err)
	}
	settled(conn, 1+pushes) // its Bitfield and every push
	if got := victim.Stats().CreditedBytes; got != 0 {
		t.Errorf("victim credited %g bytes for copies of a piece it held, want 0", got)
	}
	if got := ledger.Score(rePusherID); got != 0 {
		t.Errorf("re-pusher's ledger score = %g, want 0", got)
	}

	conn, err = tr.Dial(victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = pushAsSeed(conn, honestID, pieces, pushes, func(i int) (int32, []byte) {
		return int32(i + 1), piece.SyntheticPiece(i+1, size)
	})
	if err != nil {
		t.Fatal(err)
	}
	settled(conn, 1+pushes) // its Bitfield and every push
	if got := victim.Stats().CreditedBytes; got != pushes*size {
		t.Errorf("victim credited %g bytes for %d new pieces, want %d", got, pushes, pushes*size)
	}
	if got := ledger.Score(honestID); got != pushes*size {
		t.Errorf("honest uploader's ledger score = %g, want %d", got, pushes*size)
	}
	if got := ledger.Score(rePusherID); got != 0 {
		t.Errorf("re-pusher's ledger score = %g after the honest run, want 0", got)
	}
}
