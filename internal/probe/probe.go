// Package probe names and counts the simulator's events: peer lifecycle,
// upload grants, piece transfers, credits and sampling instants. The swarm
// tallies every event into a Counter as it happens; a caller that wants the
// tallies attaches its own Counter (sim.Swarm.Attach) and reads Counts after
// the run. Run manifests record the counts as hook_counts, and the
// benchmark reads transfers and decisions from them.
package probe

// Event is one kind of simulator event.
type Event uint8

// The counted events, in presentation order.
const (
	// PeerJoin: a peer arrives and activates.
	PeerJoin Event = iota
	// PeerLeave: a peer deactivates (completion departure or crash).
	PeerLeave
	// PeerAbort: failure injection crashes a peer mid-download; a PeerLeave
	// for the same peer follows.
	PeerAbort
	// PeerBootstrap: a peer is credited its first piece.
	PeerBootstrap
	// PeerComplete: a peer finishes the file (free-riders included).
	PeerComplete
	// Unchoke: a sender's strategy grants an upload slot to a receiver,
	// whether or not a transfer follows.
	Unchoke
	// TransferStart: a piece transfer begins.
	TransferStart
	// TransferFinish: a piece transfer's link time elapses, before credit.
	TransferFinish
	// Credit: a delivery is credited as a new plaintext piece.
	Credit
	// FreeRiderCredit: peer-uploaded bytes are credited to a free-rider.
	FreeRiderCredit
	// SeederExit: failure injection takes the seeder offline.
	SeederExit
	// Sample: a metric sampling instant (periodic, early stop, end of run).
	Sample

	numEvents
)

// Event names, the keys of Counter.Counts.
const (
	HookPeerJoin        = "peer_join"
	HookPeerLeave       = "peer_leave"
	HookPeerAbort       = "peer_abort"
	HookPeerBootstrap   = "peer_bootstrap"
	HookPeerComplete    = "peer_complete"
	HookUnchoke         = "unchoke"
	HookTransferStart   = "transfer_start"
	HookTransferFinish  = "transfer_finish"
	HookCredit          = "credit"
	HookFreeRiderCredit = "free_rider_credit"
	HookSeederExit      = "seeder_exit"
	HookSample          = "sample"
)

var names = [numEvents]string{
	HookPeerJoin, HookPeerLeave, HookPeerAbort, HookPeerBootstrap,
	HookPeerComplete, HookUnchoke, HookTransferStart, HookTransferFinish,
	HookCredit, HookFreeRiderCredit, HookSeederExit, HookSample,
}

// Counter tallies events by kind. The zero value is ready to use; a Counter
// is not safe for concurrent use (one per swarm).
type Counter struct {
	n [numEvents]uint64
}

// Add counts one e.
func (c *Counter) Add(e Event) { c.n[e]++ }

// Counts returns the tallies keyed by the Hook* names, every event present.
func (c *Counter) Counts() map[string]uint64 {
	out := make(map[string]uint64, numEvents)
	for e, name := range names {
		out[name] = c.n[e]
	}
	return out
}
