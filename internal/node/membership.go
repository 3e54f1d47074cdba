package node

import (
	"slices"
	"time"

	"repro/internal/protocol"
)

// Membership is the simulator's (sim.Swarm.join): a newcomer links to up to
// MaxNeighbors live peers a tracker hands it, and nobody else ever dials on
// its behalf. Two things are added for a live swarm, where links drop:
//
//   - Peer exchange. The accepting side of every handshake sends the dialer
//     one Nodes frame: up to MaxNeighbors of its neighbours that arrived
//     before the dialer did. A dialer whose handshake overtook an earlier
//     arrival's is sent that one when it links. The dialer keeps them as
//     contacts.
//   - Refill. On the upload tick, a node with fewer than MaxNeighbors links
//     and dial budget left dials one contact it is neither linked to nor
//     already dialing. A failed dial forgets the contact.
//
// "Arrived before" makes peer exchange add no dial to a tracker's full mesh:
// a contact is always a node the tracker also handed the dialer, so the
// dialer has already marked it in dialing by the time the contact lands.

// contact is one peer-exchange hint: a node and the address it listens at.
type contact struct {
	id   int
	addr string
}

// transientLinger bounds a transient receipt connection in tick time (see
// sendTransientReceipt); transport.Conn has no deadlines.
const transientLinger = time.Second

// reserveDialLocked takes one unit of the dial budget for addr (mu held),
// reporting false when the node is stopping, the budget is spent, or addr
// already has a connection of ours.
func (n *Node) reserveDialLocked(addr string) bool {
	if n.stopping || n.dialing[addr] || len(n.dialing) >= n.cfg.MaxNeighbors {
		return false
	}
	n.dialing[addr] = true
	return true
}

// dial connects to addr, which reserveDialLocked has marked, and runs the link on
// its own goroutine; the mark is returned when the link ends. A failed dial
// returns it at once and forgets every contact at addr. Either way, witness
// receipts still held for an origin at addr leave without the link.
func (n *Node) dial(addr string) {
	conn, err := n.cfg.Transport.Dial(addr)
	if err != nil {
		n.mu.Lock()
		delete(n.dialing, addr)
		n.contacts = slices.DeleteFunc(n.contacts, func(c contact) bool { return c.addr == addr })
		n.mu.Unlock()
		n.releaseReceipts(addr, nil)
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.handleConn(conn, 0)
		n.mu.Lock()
		delete(n.dialing, addr)
		n.mu.Unlock()
		n.releaseReceipts(addr, nil)
	}()
}

// refill runs on the upload tick: below MaxNeighbors links, dial one random
// contact not already being dialed. The dial itself runs off the tick — a
// TCP connect to a dead host can take seconds.
func (n *Node) refill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.links) >= n.cfg.MaxNeighbors || len(n.dialing) >= n.cfg.MaxNeighbors {
		return
	}
	pick, seen := "", 0
	for _, c := range n.contacts {
		if !n.dialing[c.addr] {
			seen++
			if n.rng.Intn(seen) == 0 {
				pick = c.addr
			}
		}
	}
	if pick == "" || !n.reserveDialLocked(pick) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.dial(pick)
	}()
}

// learnContacts keeps a Nodes frame's contacts as hints. An honest frame
// lists at most MaxNeighbors, so no more are read; and none is kept that
// names this node (by ID or address), a pseudo-peer ID, no address, a
// neighbour or a contact already known, or that would grow the set past
// 2×MaxNeighbors.
func (n *Node) learnContacts(infos []protocol.NodeInfo) {
	self := n.Addr()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ni := range infos[:min(len(infos), n.cfg.MaxNeighbors)] {
		id := int(ni.ID)
		if len(n.contacts) >= 2*n.cfg.MaxNeighbors {
			return
		}
		if id < 0 || id == n.cfg.ID || ni.Addr == "" || ni.Addr == self || n.linkedLocked(id) != nil ||
			slices.ContainsFunc(n.contacts, func(c contact) bool { return c.id == id }) {
			continue
		}
		n.contacts = append(n.contacts, contact{id: id, addr: ni.Addr})
	}
}

// peerExchangeLocked builds the Nodes frame the accepting side of a
// handshake sends its dialer r (mu held): up to MaxNeighbors neighbours that
// arrived before r — every link this node dialed, and those it accepted
// earlier — or nil when there are none. Neighbours are listed in ascending
// ID order before the shuffle, so one seed sends the same frame on every
// run.
func (n *Node) peerExchangeLocked(r *remote) protocol.Message {
	var infos []protocol.NodeInfo
	for _, p := range n.links {
		if p != r && p.arrival < r.arrival && p.addr != "" {
			infos = append(infos, protocol.NodeInfo{ID: int32(p.id), Addr: p.addr})
		}
	}
	if len(infos) == 0 {
		return nil
	}
	if len(infos) > n.cfg.MaxNeighbors {
		n.rng.Shuffle(len(infos), func(i, j int) { infos[i], infos[j] = infos[j], infos[i] })
		infos = infos[:n.cfg.MaxNeighbors]
	}
	return protocol.Nodes{Contacts: infos}
}

// overtakenLocked returns the dialers that arrived after r but finished
// their handshakes first (mu held): the Nodes frame each was sent could not
// list r, which was not yet a neighbour. Each is sent r on its own, so which
// of two concurrent joiners learns of the other does not depend on whose
// handshake wins the race.
func (n *Node) overtakenLocked(r *remote) []*remote {
	if r.addr == "" {
		return nil
	}
	var late []*remote
	for _, p := range n.links {
		if p.arrival > r.arrival {
			late = append(late, p)
		}
	}
	return late
}

// sendTransientReceipt delivers a T-Chain witness receipt to an origin the
// witness has no link to: dial, send it as the first frame (no Hello — the
// origin's accept path reads a receipt there, see handleConn), and hold the
// connection open until the origin hangs up (an asynchronous transport
// would destroy the in-flight frame on an immediate close) or a tick
// transientLinger on closes it. Fire-and-forget: a lost receipt costs one
// key release, which the origin's endgame grace covers for trusted
// receivers.
func (n *Node) sendTransientReceipt(addr string, receipt protocol.Message) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, err := n.cfg.Transport.Dial(addr)
		if err != nil {
			return
		}
		if !n.trackConn(conn, transientLinger) {
			return
		}
		defer n.untrackConn(conn)
		if conn.Send(receipt) != nil || conn.Send(protocol.Bye{}) != nil {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
}
