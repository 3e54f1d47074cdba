package probe

import "testing"

func TestBaseImplementsProbe(t *testing.T) {
	var p Probe = Base{}
	// Every hook must be callable as a no-op.
	p.PeerJoin(0, PeerInfo{})
	p.PeerLeave(0, 0)
	p.PeerAbort(0, 0)
	p.PeerBootstrap(0, 0)
	p.PeerComplete(0, 0)
	p.Unchoke(0, 0, 0)
	p.TransferStart(0, Transfer{})
	p.TransferFinish(0, Transfer{})
	p.Credit(0, CreditInfo{})
	p.FreeRiderCredit(0, 0, 0)
	p.SeederExit(0)
	p.Sample(0)
	p.EndRun(0)
}

func TestCounter(t *testing.T) {
	c := &Counter{}
	c.PeerJoin(0, PeerInfo{ID: 1})
	c.PeerJoin(1, PeerInfo{ID: 2})
	c.Unchoke(1, 1, 2)
	c.TransferStart(1, Transfer{From: 1, To: 2, Bytes: 10})
	c.TransferFinish(2, Transfer{From: 1, To: 2, Bytes: 10})
	c.Credit(2, CreditInfo{From: 1, To: 2, Bytes: 10})
	c.FreeRiderCredit(2, 2, 10)
	c.PeerBootstrap(2, 2)
	c.PeerComplete(3, 2)
	c.PeerLeave(3, 2)
	c.PeerAbort(4, 1)
	c.SeederExit(5)
	c.Sample(5)
	c.EndRun(5)

	counts := c.Counts()
	want := map[string]uint64{
		HookPeerJoin: 2, HookPeerLeave: 1, HookPeerAbort: 1,
		HookPeerBootstrap: 1, HookPeerComplete: 1, HookUnchoke: 1,
		HookTransferStart: 1, HookTransferFinish: 1, HookCredit: 1,
		HookFreeRiderCredit: 1, HookSeederExit: 1, HookSample: 1,
	}
	for _, name := range HookNames() {
		if counts[name] != want[name] {
			t.Errorf("Counts[%s] = %d, want %d", name, counts[name], want[name])
		}
	}
	if got := c.Total(); got != 13 {
		t.Errorf("Total() = %d, want 13", got)
	}
	if got := c.CreditedBytes(); got != 10 {
		t.Errorf("CreditedBytes() = %v, want 10", got)
	}
	if got := c.FreeRiderBytes(); got != 10 {
		t.Errorf("FreeRiderBytes() = %v, want 10", got)
	}
}

func TestHookNamesMatchCounts(t *testing.T) {
	c := &Counter{}
	counts := c.Counts()
	if len(HookNames()) != len(counts) {
		t.Fatalf("HookNames has %d entries, Counts has %d", len(HookNames()), len(counts))
	}
	for _, name := range HookNames() {
		if _, ok := counts[name]; !ok {
			t.Errorf("HookNames entry %q missing from Counts", name)
		}
	}
}
