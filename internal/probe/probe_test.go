package probe

import "testing"

func TestCounter(t *testing.T) {
	var c Counter
	for e := Event(0); e < numEvents; e++ {
		for i := 0; i <= int(e); i++ {
			c.Add(e)
		}
	}
	counts := c.Counts()
	want := map[string]uint64{
		HookPeerJoin: 1, HookPeerLeave: 2, HookPeerAbort: 3,
		HookPeerBootstrap: 4, HookPeerComplete: 5, HookUnchoke: 6,
		HookTransferStart: 7, HookTransferFinish: 8, HookCredit: 9,
		HookFreeRiderCredit: 10, HookSeederExit: 11, HookSample: 12,
	}
	if len(counts) != len(want) {
		t.Fatalf("Counts has %d names, want %d: %v", len(counts), len(want), counts)
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("Counts[%s] = %d, want %d", name, counts[name], n)
		}
	}
}

func TestHookNamesMatchCounts(t *testing.T) {
	counts := (&Counter{}).Counts()
	if len(counts) != len(names) {
		t.Fatalf("zero Counter reports %d names, want %d: %v", len(counts), len(names), counts)
	}
	for _, name := range names {
		if n, ok := counts[name]; !ok || n != 0 {
			t.Errorf("Counts[%q] = %d, present %v; want 0, present", name, n, ok)
		}
	}
}
