package probe

// Hook names, the keys of Counter.Counts, in presentation order.
const (
	// HookPeerJoin counts PeerJoin events.
	HookPeerJoin = "peer_join"
	// HookPeerLeave counts PeerLeave events.
	HookPeerLeave = "peer_leave"
	// HookPeerAbort counts PeerAbort events.
	HookPeerAbort = "peer_abort"
	// HookPeerBootstrap counts PeerBootstrap events.
	HookPeerBootstrap = "peer_bootstrap"
	// HookPeerComplete counts PeerComplete events.
	HookPeerComplete = "peer_complete"
	// HookUnchoke counts Unchoke events.
	HookUnchoke = "unchoke"
	// HookTransferStart counts TransferStart events.
	HookTransferStart = "transfer_start"
	// HookTransferFinish counts TransferFinish events.
	HookTransferFinish = "transfer_finish"
	// HookCredit counts Credit events.
	HookCredit = "credit"
	// HookFreeRiderCredit counts FreeRiderCredit events.
	HookFreeRiderCredit = "free_rider_credit"
	// HookSeederExit counts SeederExit events.
	HookSeederExit = "seeder_exit"
	// HookSample counts Sample events.
	HookSample = "sample"
)

// HookNames lists the counted hooks in presentation order.
func HookNames() []string {
	return []string{
		HookPeerJoin, HookPeerLeave, HookPeerAbort, HookPeerBootstrap,
		HookPeerComplete, HookUnchoke, HookTransferStart,
		HookTransferFinish, HookCredit, HookFreeRiderCredit,
		HookSeederExit, HookSample,
	}
}

// Counter tallies every hook invocation — the cheapest useful probe, and
// the overhead yardstick for the probe-dispatch benchmarks. The zero
// value is ready to use; Counter is not safe for concurrent use (attach
// one per swarm).
type Counter struct {
	joins, leaves, aborts, bootstraps, completes uint64
	unchokes, starts, finishes                   uint64
	credits, frCredits                           uint64
	seederExits, samples                         uint64

	creditedBytes float64
	frBytes       float64
}

var _ Probe = (*Counter)(nil)

// PeerJoin implements Probe.
func (c *Counter) PeerJoin(float64, PeerInfo) { c.joins++ }

// PeerLeave implements Probe.
func (c *Counter) PeerLeave(float64, int) { c.leaves++ }

// PeerAbort implements Probe.
func (c *Counter) PeerAbort(float64, int) { c.aborts++ }

// PeerBootstrap implements Probe.
func (c *Counter) PeerBootstrap(float64, int) { c.bootstraps++ }

// PeerComplete implements Probe.
func (c *Counter) PeerComplete(float64, int) { c.completes++ }

// Unchoke implements Probe.
func (c *Counter) Unchoke(float64, int, int) { c.unchokes++ }

// TransferStart implements Probe.
func (c *Counter) TransferStart(float64, Transfer) { c.starts++ }

// TransferFinish implements Probe.
func (c *Counter) TransferFinish(float64, Transfer) { c.finishes++ }

// Credit implements Probe.
func (c *Counter) Credit(_ float64, ci CreditInfo) {
	c.credits++
	c.creditedBytes += ci.Bytes
}

// FreeRiderCredit implements Probe.
func (c *Counter) FreeRiderCredit(_ float64, _ int, bytes float64) {
	c.frCredits++
	c.frBytes += bytes
}

// SeederExit implements Probe.
func (c *Counter) SeederExit(float64) { c.seederExits++ }

// Sample implements Probe.
func (c *Counter) Sample(float64) { c.samples++ }

// EndRun implements Probe as a no-op.
func (c *Counter) EndRun(float64) {}

// Counts returns the per-hook event tallies keyed by the Hook* names.
func (c *Counter) Counts() map[string]uint64 {
	return map[string]uint64{
		HookPeerJoin:        c.joins,
		HookPeerLeave:       c.leaves,
		HookPeerAbort:       c.aborts,
		HookPeerBootstrap:   c.bootstraps,
		HookPeerComplete:    c.completes,
		HookUnchoke:         c.unchokes,
		HookTransferStart:   c.starts,
		HookTransferFinish:  c.finishes,
		HookCredit:          c.credits,
		HookFreeRiderCredit: c.frCredits,
		HookSeederExit:      c.seederExits,
		HookSample:          c.samples,
	}
}

// Total returns the total number of hook invocations counted (EndRun
// excluded).
func (c *Counter) Total() uint64 {
	var total uint64
	for _, v := range c.Counts() {
		total += v
	}
	return total
}

// CreditedBytes returns the total plaintext bytes observed via Credit.
func (c *Counter) CreditedBytes() float64 { return c.creditedBytes }

// FreeRiderBytes returns the peer-uploaded bytes credited to free-riders
// observed via FreeRiderCredit.
func (c *Counter) FreeRiderBytes() float64 { return c.frBytes }
