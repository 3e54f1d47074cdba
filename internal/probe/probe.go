// Package probe defines the simulator's observability layer: a hook
// interface the swarm invokes at every semantically meaningful event —
// peer lifecycle, piece transfers, credit flows, scheduling decisions —
// so new quantities can be measured without editing the simulation hot
// loop.
//
// Design constraints, in order:
//
//  1. Zero cost when unobserved. The swarm dispatches through a single
//     nil-checked interface field; with no probe attached the hot path
//     pays one nil comparison per hook site and allocates nothing.
//  2. Zero allocations when observed. Every hook receives plain value
//     arguments (small structs, ints, float64s), never interface{} or
//     closures, so dispatching to an attached probe does not allocate.
//  3. Probes own their state. A probe derives everything from the hook
//     stream; it never reaches back into the swarm. This keeps a probe
//     race-free under the parallel runner (one probe per swarm).
//
// A probe is one outside observer: a swarm takes at most one, and records
// its own results without it.
//
// Implementers embed Base and override only the hooks they need:
//
//	type pieceFlow struct {
//		probe.Base
//		credits int
//	}
//
//	func (f *pieceFlow) Credit(now float64, c probe.CreditInfo) { f.credits++ }
package probe

// SeederID is the pseudo-peer ID the swarm uses for the origin server in
// transfer and credit events. It mirrors sim.SeederID; it is redeclared
// here (rather than imported) because sim depends on probe, not the
// reverse.
const SeederID = -2

// PeerInfo identifies a peer at join time.
type PeerInfo struct {
	// ID is the peer's swarm-unique identifier (dense, starting at 0).
	ID int
	// Capacity is the peer's upload capacity in bytes/second.
	Capacity float64
	// FreeRider reports whether the peer runs the free-riding strategy.
	FreeRider bool
}

// Transfer describes one piece transfer on the simulated link layer.
type Transfer struct {
	// From is the sender: a peer ID, or SeederID for the origin server.
	From int
	// To is the receiving peer's ID.
	To int
	// Piece is the piece index in flight.
	Piece int
	// Bytes is the transfer's link-level size (the configured piece size).
	Bytes float64
	// Duration is the transfer's link time in seconds (TransferStart only;
	// zero in TransferFinish events).
	Duration float64
}

// CreditInfo describes a recorded plaintext credit: the receiver held the
// decryption key (or the mechanism released it) and the piece was new, so
// the bytes count toward the receiver's credited download volume.
type CreditInfo struct {
	// From is the crediting sender: a peer ID, or SeederID.
	From int
	// To is the credited receiving peer's ID.
	To int
	// Bytes is the credited volume.
	Bytes float64
}

// Probe observes one simulation run. All hooks run synchronously inside
// the event loop at the instant `now` (virtual seconds); implementations
// must be fast and must not retain argument structs past the call.
//
// Choke/unchoke semantics: the simulator models upload-slot scheduling,
// so Unchoke fires when a sender's strategy grants a slot to a receiver;
// the matching choke is implicit when the transfer completes and the slot
// is released (observable as TransferFinish from the same sender).
type Probe interface {
	// PeerJoin fires when a peer arrives and activates.
	PeerJoin(now float64, p PeerInfo)
	// PeerLeave fires when a peer deactivates (completion departure,
	// crash, or any other removal from the active swarm).
	PeerLeave(now float64, id int)
	// PeerAbort fires when failure injection crashes a peer mid-download;
	// a PeerLeave for the same peer follows immediately.
	PeerAbort(now float64, id int)
	// PeerBootstrap fires when a peer is credited its first piece.
	PeerBootstrap(now float64, id int)
	// PeerComplete fires when a peer finishes the file (free-riders
	// included; check the PeerJoin info to filter).
	PeerComplete(now float64, id int)
	// Unchoke fires when a sender's strategy grants an upload slot to a
	// receiver (from may be SeederID).
	Unchoke(now float64, from, to int)
	// TransferStart fires when a piece transfer begins.
	TransferStart(now float64, t Transfer)
	// TransferFinish fires when a piece transfer's link time elapses,
	// before any credit processing for the delivery.
	TransferFinish(now float64, t Transfer)
	// Credit fires when a delivery is recorded as credited plaintext
	// (new piece, key released). Duplicate or ciphertext deliveries
	// produce TransferFinish without Credit.
	Credit(now float64, c CreditInfo)
	// FreeRiderCredit fires when peer-uploaded bytes are credited to a
	// free-rider — the numerator of the paper's susceptibility metric.
	FreeRiderCredit(now float64, to int, bytes float64)
	// SeederExit fires when failure injection takes the seeder offline.
	SeederExit(now float64)
	// Sample fires at every metric sampling instant (the configured
	// sampling period, early-stop instants, and the end of the run), in
	// that event's swarm-consistent state.
	Sample(now float64)
	// EndRun fires once after the final Sample, when the run is over.
	EndRun(now float64)
}

// Base is a no-op Probe; embed it and override the hooks of interest.
type Base struct{}

// PeerJoin implements Probe as a no-op.
func (Base) PeerJoin(float64, PeerInfo) {}

// PeerLeave implements Probe as a no-op.
func (Base) PeerLeave(float64, int) {}

// PeerAbort implements Probe as a no-op.
func (Base) PeerAbort(float64, int) {}

// PeerBootstrap implements Probe as a no-op.
func (Base) PeerBootstrap(float64, int) {}

// PeerComplete implements Probe as a no-op.
func (Base) PeerComplete(float64, int) {}

// Unchoke implements Probe as a no-op.
func (Base) Unchoke(float64, int, int) {}

// TransferStart implements Probe as a no-op.
func (Base) TransferStart(float64, Transfer) {}

// TransferFinish implements Probe as a no-op.
func (Base) TransferFinish(float64, Transfer) {}

// Credit implements Probe as a no-op.
func (Base) Credit(float64, CreditInfo) {}

// FreeRiderCredit implements Probe as a no-op.
func (Base) FreeRiderCredit(float64, int, float64) {}

// SeederExit implements Probe as a no-op.
func (Base) SeederExit(float64) {}

// Sample implements Probe as a no-op.
func (Base) Sample(float64) {}

// EndRun implements Probe as a no-op.
func (Base) EndRun(float64) {}

var _ Probe = Base{}
