package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/discovery"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// DiscoverConfig enables decentralized peer discovery: instead of a static
// full mesh, the node maintains a Kademlia routing table (internal/discovery)
// over FindNode/Nodes RPCs, learns peers through gossip (Announce frames and
// handshake peer exchange), and keeps a degree-bounded neighbor set alive by
// dialing routing-table candidates and pinging idle links. Zero values take
// the defaults noted per field.
type DiscoverConfig struct {
	// K is the bucket capacity and lookup width (Kademlia's k; default 16).
	K int
	// TargetDegree is how many neighbors the node dials toward (default
	// 8). Accepted neighbors are capped at twice that; surplus inbound
	// handshakes are redirected — answered with the closest known contacts
	// plus Bye — instead of registered.
	TargetDegree int
	// MaintainInterval is the degree/liveness maintenance tick (default 150ms).
	MaintainInterval time.Duration
	// AnnounceInterval is how often the node gossips its own contact
	// (default 2s).
	AnnounceInterval time.Duration
	// RefreshInterval is how often a random-target bucket-refresh lookup
	// runs (default 3s).
	RefreshInterval time.Duration
	// PingInterval is how long a neighbor link may stay silent before it is
	// pinged (default 5s); after three such intervals of silence it is
	// declared dead and closed.
	PingInterval time.Duration
	// QueryTimeout bounds one transient FindNode RPC (default 1s).
	QueryTimeout time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (c DiscoverConfig) withDefaults() DiscoverConfig {
	if c.K <= 0 {
		c.K = 16
	}
	if c.TargetDegree <= 0 {
		c.TargetDegree = 8
	}
	if c.MaintainInterval <= 0 {
		c.MaintainInterval = 150 * time.Millisecond
	}
	if c.AnnounceInterval <= 0 {
		c.AnnounceInterval = 2 * time.Second
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 3 * time.Second
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 5 * time.Second
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = time.Second
	}
	return c
}

const (
	// lookupAlpha is the iterative lookup's parallelism (Kademlia's alpha).
	lookupAlpha = 3
	// announceTTL bounds gossip propagation depth; with fanout 3 an
	// announce reaches ~fanout^TTL nodes, plenty for the swarm sizes the
	// repo runs while keeping traffic linear.
	announceTTL = 3
	// announceFanout is how many random neighbors a fresh announce is
	// forwarded to.
	announceFanout = 3
	// redialCooldown spaces dial attempts toward one contact, so a node
	// that redirects us (at capacity) is not hammered every maintain tick.
	redialCooldown = 2 * time.Second
	// discoverySessionTimeout bounds a served transient discovery session;
	// transport.Conn has no deadlines, so a watchdog closes the conn.
	discoverySessionTimeout = 5 * time.Second
	// redirectLinger bounds how long a refused connection stays open after
	// the redirect is sent, waiting for the dialer to hang up.
	redirectLinger = 2 * time.Second
	// starveTicksToWiden is how many consecutive maintain ticks a node must
	// spend starved — incomplete and gaining no pieces — before it dials
	// past TargetDegree toward maxDegree for fresh links.
	starveTicksToWiden = 4
	// starveTicksToRotate is the longer starvation threshold at which the
	// node drops one random neighbor to force rewiring: its current links
	// are demonstrably useless (no piece has arrived over any of them), so
	// trading one for an unconnected candidate is strictly more promising.
	starveTicksToRotate = 12
)

// errSelfQuery rejects a lookup query aimed at ourselves.
var errSelfQuery = errors.New("node: discovery query to self")

// discState is the node's discovery runtime: the routing table, gossip
// bookkeeping, and the discovery_ metric handles. Nil on full-mesh nodes —
// every hook in the hot paths checks that, so discovery-off nodes run the
// exact pre-discovery code.
type discState struct {
	cfg         DiscoverConfig
	maxDegree   int           // hard neighbor cap: 2*TargetDegree
	pingTimeout time.Duration // silence that expires a link: 3*PingInterval
	table       *discovery.Table

	mu          sync.Mutex
	rng         *rand.Rand
	announceSeq uint32
	querySeq    uint32
	pingSeq     uint32
	seen        map[int32]uint32 // gossip origin -> highest announce seq
	dialing     map[int]bool     // contact dials in flight
	cooldown    map[int]int64    // contact -> no-redial-before (sinceStartNs)

	lookupBusy   bool  // one refresh/self lookup at a time
	lastRedialNs int64 // last empty-table bootstrap re-dial (sinceStartNs)
	starveTicks  int   // consecutive no-progress maintain ticks (discoverLoop only)
	lastPieces   int   // piece count at the previous maintain tick (discoverLoop only)

	lookupNs       *metrics.Histogram
	queriesSent    *metrics.Counter
	queriesServed  *metrics.Counter
	announcesSent  *metrics.Counter
	announcesFwd   *metrics.Counter
	announcesStale *metrics.Counter
	redirects      *metrics.Counter
	dialFailures   *metrics.Counter
	pingsSent      *metrics.Counter
	peersExpired   *metrics.Counter
	rewires        *metrics.Counter
}

// newDiscState builds the discovery runtime and registers its telemetry
// (the discovery_ series) in reg:
//
//	discovery_table_size                   routing-table contacts (gauge)
//	discovery_lookup_ns                    iterative lookup latency histogram
//	discovery_queries_sent_total / discovery_queries_served_total
//	discovery_announces_sent_total / _forwarded_total / _stale_total
//	discovery_redirects_total              inbound handshakes refused at the degree cap
//	discovery_dial_failures_total
//	discovery_pings_sent_total
//	discovery_peers_expired_total          links closed by the ping timeout
//	discovery_rewires_total                links dropped by starvation rewiring
//	discovery_bucket_occupancy{bucket=N}   contacts per k-bucket (gauges)
func newDiscState(cfg DiscoverConfig, nodeID int, seed int64, reg *metrics.Registry) *discState {
	cfg = cfg.withDefaults()
	d := &discState{
		cfg:            cfg,
		maxDegree:      2 * cfg.TargetDegree,
		pingTimeout:    3 * cfg.PingInterval,
		table:          discovery.NewTable(nodeID, cfg.K),
		rng:            rand.New(rand.NewSource(seed ^ 0x5bd1e995)),
		seen:           make(map[int32]uint32),
		dialing:        make(map[int]bool),
		cooldown:       make(map[int]int64),
		lookupNs:       reg.Histogram("discovery_lookup_ns"),
		queriesSent:    reg.Counter("discovery_queries_sent_total"),
		queriesServed:  reg.Counter("discovery_queries_served_total"),
		announcesSent:  reg.Counter("discovery_announces_sent_total"),
		announcesFwd:   reg.Counter("discovery_announces_forwarded_total"),
		announcesStale: reg.Counter("discovery_announces_stale_total"),
		redirects:      reg.Counter("discovery_redirects_total"),
		dialFailures:   reg.Counter("discovery_dial_failures_total"),
		pingsSent:      reg.Counter("discovery_pings_sent_total"),
		peersExpired:   reg.Counter("discovery_peers_expired_total"),
		rewires:        reg.Counter("discovery_rewires_total"),
	}
	reg.RegisterGaugeFunc("discovery_table_size", func() int64 {
		return int64(d.table.Size())
	})
	// Per-bucket occupancy: the routing table's health profile. Pull-style
	// gauges cost nothing between snapshots, so all 64 distance scales are
	// registered up front.
	for b := 0; b < 64; b++ {
		bucket := b
		reg.RegisterGaugeFunc(fmt.Sprintf(`discovery_bucket_occupancy{bucket="%d"}`, bucket), func() int64 {
			return int64(d.table.BucketLen(bucket))
		})
	}
	return d
}

// RoutingTable exposes the node's Kademlia routing table, nil when the node
// runs without discovery. Tests and operators read table size and contacts
// from it; mutating it directly is safe (the table locks itself) but
// normally the discovery loops own it.
func (n *Node) RoutingTable() *discovery.Table {
	if n.disc == nil {
		return nil
	}
	return n.disc.table
}

// roomForPeer reports whether another neighbor could be admitted: the
// degree is below maxDegree, or an exhausted link (see evictableLocked)
// could be dropped to make room.
func (n *Node) roomForPeer() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers) < n.disc.maxDegree || n.evictableLocked() != nil
}

// evictableLocked (n.mu held) returns a neighbor whose link carries no
// further value — both ends hold every piece, so neither side will ever
// send the other anything — or nil. Evicting such a link to admit a
// newcomer is what keeps a degree-saturated clique of finished nodes from
// locking the rest of the swarm out: without it, the seed's early
// neighbors complete, stay wired to each other forever, and a late joiner
// finds every node with content at maxDegree.
func (n *Node) evictableLocked() *remote {
	if !n.myBits.Complete() {
		return nil
	}
	for _, r := range n.peers {
		// iNeed == 0 is implied by our completeness; theyNeed == 0 means
		// the peer holds every piece we do, i.e. it is complete too.
		if r.theyNeed == 0 && r.iNeed == 0 {
			return r
		}
	}
	return nil
}

// redirect refuses a handshake at capacity but leaves the dialer better
// off: the closest contacts we know toward it, then Bye. It then holds the
// connection open until the dialer hangs up, bounded by a watchdog —
// transports that deliver asynchronously (injected latency) would otherwise
// destroy the Nodes frame in flight when the caller's deferred Close tears
// the connection down, leaving the refused dialer with no contacts to try,
// which at bootstrap time strands it permanently.
func (n *Node) redirect(conn transport.Conn, peerID int) {
	n.disc.redirects.Inc()
	if conn.Send(protocol.Nodes{Contacts: n.closestInfos(discovery.IDOf(peerID))}) != nil ||
		conn.Send(protocol.Bye{}) != nil {
		return
	}
	defer n.watchConn(conn, redirectLinger)()
	for {
		if _, err := conn.Recv(); err != nil {
			return
		}
	}
}

// watchConn bounds the life of a connection — transport.Conn has no
// deadlines — by closing it after d or on node shutdown, whichever comes
// first. The caller defers stop, which retires the watchdog goroutine.
func (n *Node) watchConn(conn transport.Conn, d time.Duration) (stop func()) {
	done := make(chan struct{})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			conn.Close()
		case <-n.done:
			conn.Close()
		}
	}()
	return func() { close(done) }
}

// discoverLoop is the discovery heartbeat: degree and liveness maintenance
// every MaintainInterval, self-announce gossip every AnnounceInterval, and
// a bucket-refresh lookup every RefreshInterval. A self-lookup runs once as
// soon as the table has any contact — the standard Kademlia join, which
// populates the joiner's buckets and spreads its contact to the nodes
// nearest it.
func (n *Node) discoverLoop() {
	defer n.wg.Done()
	d := n.disc
	maintain := time.NewTicker(d.cfg.MaintainInterval)
	defer maintain.Stop()
	announce := time.NewTicker(d.cfg.AnnounceInterval)
	defer announce.Stop()
	refresh := time.NewTicker(d.cfg.RefreshInterval)
	defer refresh.Stop()
	joined := false
	for {
		select {
		case <-n.done:
			return
		case <-maintain.C:
			if !joined && d.table.Size() > 0 {
				joined = true
				n.spawnLookup(discovery.IDOf(n.cfg.ID))
			}
			n.maintainDegree()
			n.checkLiveness()
		case <-announce.C:
			n.sendAnnounce()
		case <-refresh.C:
			d.mu.Lock()
			target := d.table.RefreshTarget(d.rng)
			d.mu.Unlock()
			n.spawnLookup(target)
		}
	}
}

// spawnLookup runs one iterative lookup on its own wg-tracked goroutine,
// recording its latency. At most one spawned lookup runs at a time — a slow
// lookup (flaky transport, query timeouts) must not pile up behind the
// refresh ticker.
func (n *Node) spawnLookup(target discovery.ID) {
	d := n.disc
	d.mu.Lock()
	busy := d.lookupBusy
	if !busy {
		d.lookupBusy = true
	}
	d.mu.Unlock()
	if busy {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer func() {
			d.mu.Lock()
			d.lookupBusy = false
			d.mu.Unlock()
		}()
		start := time.Now()
		d.table.Lookup(target, d.cfg.K, lookupAlpha, n.queryContact)
		d.lookupNs.Observe(time.Since(start).Nanoseconds())
	}()
}

// maintainDegree dials routing-table candidates until the connected degree
// reaches TargetDegree. Candidates span the table's buckets (one per
// distance scale — see discovery.NeighborCandidates), each dial is
// cooldown-spaced, and failures evict the contact. A node that knows
// nobody at all falls back to re-dialing its bootstrap set — the recovery
// path for a joiner whose initial handshakes were all refused or lost.
//
// A node can also starve with its degree target met. Starvation is
// detected by outcome, not topology: the node is incomplete and its piece
// count has not moved since the last tick. That covers both the
// content-less pocket (nobody nearby holds anything it needs) and the
// harder case where neighbors hold everything it needs but will never
// deliver — under T-Chain a late joiner surrounded by finished peers
// receives sealed pieces it cannot reciprocate for, so no key ever
// arrives. After starveTicksToWiden no-progress ticks the dial goal
// widens from TargetDegree to maxDegree; after starveTicksToRotate the
// node starts dropping one random neighbor per rotation interval,
// churning its link set through the candidate table until something —
// typically a plaintext-serving seed — feeds it.
func (n *Node) maintainDegree() {
	d := n.disc
	n.mu.Lock()
	pieces := n.myBits.Count()
	starved := !n.myBits.Complete() && pieces == d.lastPieces
	d.lastPieces = pieces
	if starved {
		d.starveTicks++
	} else {
		d.starveTicks = 0
	}
	goal := d.cfg.TargetDegree
	if d.starveTicks >= starveTicksToWiden {
		goal = d.maxDegree
	}
	var victim *remote
	if d.starveTicks >= starveTicksToRotate && len(n.peers) > 0 {
		seen := 0
		for _, r := range n.peers {
			seen++
			if n.rng.Intn(seen) == 0 {
				victim = r
			}
		}
	}
	need := goal - len(n.peers)
	var connected map[int]bool
	if need > 0 || victim != nil {
		connected = make(map[int]bool, len(n.peers))
		for id := range n.peers {
			connected[id] = true
		}
	}
	n.mu.Unlock()
	if victim != nil {
		// Only rotate when the table actually knows somebody new; dropping
		// our last links with nothing to replace them would deepen the hole.
		if n.hasUnconnectedCandidate(connected) {
			d.starveTicks = starveTicksToWiden // keep widened goal, pace rotations
			d.rewires.Inc()
			if n.tracer != nil {
				instant(n.tracer, tracing.SpanDiscoveryRewire, n.cfg.ID, victim.id, -1)
			}
			n.log.Info("starvation rewire: dropping neighbor", "peer", victim.id)
			victim.conn.Close()
			need++ // the freed slot is dialable this very tick
		}
	}
	if need <= 0 {
		return
	}
	if len(connected) == 0 && d.table.Size() == 0 {
		n.redialBootstrap()
		return
	}
	now := n.sinceStartNs()
	candidates := d.table.NeighborCandidates(2 * goal)
	// Dial in random order: the candidate list is bucket-ordered, and a
	// deterministic order would let the same early-bucket contacts soak up
	// every freed slot — starvation rewiring then churns forever without
	// ever trying the one contact that could feed us.
	d.mu.Lock()
	d.rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	d.mu.Unlock()
	for _, c := range candidates {
		if need <= 0 {
			return
		}
		if c.NodeID == n.cfg.ID || connected[c.NodeID] {
			continue
		}
		d.mu.Lock()
		skip := d.dialing[c.NodeID] || now < d.cooldown[c.NodeID]
		if !skip {
			d.dialing[c.NodeID] = true
			d.cooldown[c.NodeID] = now + redialCooldown.Nanoseconds()
		}
		d.mu.Unlock()
		if skip {
			continue
		}
		need--
		n.wg.Add(1)
		go n.dialContact(c)
	}
}

// hasUnconnectedCandidate reports whether the routing table knows a
// contact we are not already wired to — the precondition for starvation
// rewiring to be worth a dropped link.
func (n *Node) hasUnconnectedCandidate(connected map[int]bool) bool {
	for _, c := range n.disc.table.NeighborCandidates(2 * n.disc.maxDegree) {
		if c.NodeID != n.cfg.ID && !connected[c.NodeID] {
			return true
		}
	}
	return false
}

// redialBootstrap re-dials the configured bootstrap addresses, spaced by
// the redial cooldown. Start does this once; a node still fully isolated
// afterwards (every handshake refused at capacity, or the redirect frames
// lost in flight) gets here from the maintain tick.
func (n *Node) redialBootstrap() {
	d := n.disc
	now := n.sinceStartNs()
	d.mu.Lock()
	tooSoon := now-d.lastRedialNs < redialCooldown.Nanoseconds()
	if !tooSoon {
		d.lastRedialNs = now
	}
	d.mu.Unlock()
	if tooSoon {
		return
	}
	for _, addr := range n.cfg.Bootstrap {
		conn, err := n.cfg.Transport.Dial(addr)
		if err != nil {
			d.dialFailures.Inc()
			continue
		}
		n.wg.Add(1)
		go n.handleConn(conn, true)
	}
}

// dialContact dials one routing-table candidate and hands the connection to
// the normal handshake path. A failed dial evicts the contact — the only
// eviction besides an expired link, so the table self-cleans under churn.
// The caller has already taken a wg slot; handleConn releases it.
func (n *Node) dialContact(c discovery.Contact) {
	conn, err := n.cfg.Transport.Dial(c.Addr)
	n.disc.mu.Lock()
	delete(n.disc.dialing, c.NodeID)
	n.disc.mu.Unlock()
	if err != nil {
		n.disc.dialFailures.Inc()
		n.disc.table.Remove(c)
		n.wg.Done()
		return
	}
	n.handleConn(conn, true)
}

// checkLiveness pings neighbors whose link has been silent past
// PingInterval and closes links silent past pingTimeout; the closed
// connection's read loop then runs the normal peer teardown.
func (n *Node) checkLiveness() {
	d := n.disc
	now := n.sinceStartNs()
	for _, r := range n.remotes() {
		idle := now - r.lastRecv.Load()
		switch {
		case idle > d.pingTimeout.Nanoseconds():
			d.peersExpired.Inc()
			r.conn.Close()
		case idle > d.cfg.PingInterval.Nanoseconds() &&
			now-r.lastPing.Load() > d.cfg.PingInterval.Nanoseconds():
			r.lastPing.Store(now)
			d.mu.Lock()
			d.pingSeq++
			seq := d.pingSeq
			d.mu.Unlock()
			d.pingsSent.Inc()
			r.enqueue(protocol.Ping{Seq: seq}, false, nil)
		}
	}
}

// sendAnnounce gossips the node's own contact to every neighbor.
// Re-announcing every AnnounceInterval keeps the contact's seq moving, so
// peers can tell a fresh sighting from an echo of an old one.
func (n *Node) sendAnnounce() {
	d := n.disc
	d.mu.Lock()
	d.announceSeq++
	seq := d.announceSeq
	d.mu.Unlock()
	msg := protocol.Announce{ID: int32(n.cfg.ID), Addr: n.Addr(), Seq: seq, TTL: announceTTL}
	n.mu.Lock()
	sent := len(n.peers)
	for _, r := range n.peers {
		r.enqueue(msg, false, nil)
	}
	n.mu.Unlock()
	d.announcesSent.Add(int64(sent))
}

// handleAnnounce processes one gossip frame: discard stale seqs per origin,
// learn the contact, and forward fresh announces (TTL permitting) to a few
// random neighbors excluding the origin and the sender.
func (n *Node) handleAnnounce(r *remote, m protocol.Announce) {
	d := n.disc
	if int(m.ID) == n.cfg.ID {
		return
	}
	d.mu.Lock()
	last, known := d.seen[m.ID]
	stale := known && m.Seq <= last
	if !stale {
		d.seen[m.ID] = m.Seq
	}
	d.mu.Unlock()
	if stale {
		d.announcesStale.Inc()
		return
	}
	d.table.Add(discovery.Contact{NodeID: int(m.ID), Addr: m.Addr})
	// The TTL is the sender's claim: clamp it to what an honest origin
	// starts with, or one Announce{TTL: 255} is relayed by the whole swarm.
	m.TTL = min(m.TTL, announceTTL)
	if m.TTL == 0 {
		return
	}
	m.TTL--
	n.mu.Lock()
	targets := make([]*remote, 0, announceFanout)
	seen := 0
	for _, p := range n.peers {
		if p.id == r.id || p.id == int(m.ID) {
			continue
		}
		seen++
		if len(targets) < announceFanout {
			targets = append(targets, p)
		} else if j := n.rng.Intn(seen); j < announceFanout {
			targets[j] = p
		}
	}
	n.mu.Unlock()
	for _, p := range targets {
		p.enqueue(m, false, nil)
	}
	d.announcesFwd.Add(int64(len(targets)))
}

// addNodeInfos feeds wire contacts into the routing table (handshake peer
// exchange, capacity redirects, unsolicited Nodes gossip).
func (n *Node) addNodeInfos(infos []protocol.NodeInfo) {
	for _, ni := range infos {
		if int(ni.ID) == n.cfg.ID {
			continue
		}
		n.disc.table.Add(discovery.Contact{NodeID: int(ni.ID), Addr: ni.Addr})
	}
}

// closestInfos answers a FindNode: the K closest known contacts to target,
// plus our own contact so queriers always learn the node they asked.
func (n *Node) closestInfos(target discovery.ID) []protocol.NodeInfo {
	cs := n.disc.table.Closest(target, n.disc.cfg.K)
	out := make([]protocol.NodeInfo, 0, len(cs)+1)
	for _, c := range cs {
		out = append(out, protocol.NodeInfo{ID: int32(c.NodeID), Addr: c.Addr})
	}
	return append(out, protocol.NodeInfo{ID: int32(n.cfg.ID), Addr: n.Addr()})
}

// queryContact is the discovery.QueryFunc the lookups run on: a transient
// connection that speaks FindNode as its very first frame — no Hello, so
// the remote's accept path serves a discovery mini-session instead of a
// peer handshake — and waits for the matching Nodes reply, bounded by the
// QueryTimeout watchdog.
func (n *Node) queryContact(c discovery.Contact, target discovery.ID) ([]discovery.Contact, error) {
	d := n.disc
	if c.NodeID == n.cfg.ID {
		return nil, errSelfQuery
	}
	conn, err := n.cfg.Transport.Dial(c.Addr)
	if err != nil {
		d.dialFailures.Inc()
		d.table.Remove(c)
		return nil, err
	}
	defer conn.Close()
	defer n.watchConn(conn, d.cfg.QueryTimeout)()
	d.mu.Lock()
	d.querySeq++
	seq := d.querySeq
	d.mu.Unlock()
	d.queriesSent.Inc()
	if err := conn.Send(protocol.FindNode{Seq: seq, Target: uint64(target)}); err != nil {
		return nil, err
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		nodes, ok := msg.(protocol.Nodes)
		if !ok || nodes.Seq != seq {
			continue
		}
		out := make([]discovery.Contact, 0, len(nodes.Contacts))
		for _, ni := range nodes.Contacts {
			if int(ni.ID) == n.cfg.ID || ni.Addr == "" {
				continue
			}
			out = append(out, discovery.Contact{NodeID: int(ni.ID), Addr: ni.Addr})
		}
		return out, nil
	}
}

// sendTransientReceipt delivers a T-Chain witness receipt to an origin the
// witness is not wired to: dial, send, and hold the connection open until
// the origin hangs up (an asynchronous transport would destroy the in-flight
// frame on an immediate close), bounded by the query-timeout watchdog.
// Fire-and-forget — a lost receipt costs one key release, which the origin's
// endgame grace covers for trusted receivers.
func (n *Node) sendTransientReceipt(addr string, receipt protocol.Message) {
	d := n.disc
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		conn, err := n.cfg.Transport.Dial(addr)
		if err != nil {
			d.dialFailures.Inc()
			return
		}
		defer conn.Close()
		defer n.watchConn(conn, d.cfg.QueryTimeout)()
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

// serveDiscovery answers a transient discovery session: the accept path
// lands here when a connection's first frame is not a Hello. It serves
// FindNode and Ping until the client hangs up, Bye arrives, or the session
// watchdog expires. The caller (handleConn) owns conn registration and
// close.
func (n *Node) serveDiscovery(conn transport.Conn, first protocol.Message) {
	defer n.watchConn(conn, discoverySessionTimeout)()
	msg := first
	for {
		switch m := msg.(type) {
		case protocol.FindNode:
			n.disc.queriesServed.Inc()
			if conn.Send(protocol.Nodes{Seq: m.Seq, Contacts: n.closestInfos(discovery.ID(m.Target))}) != nil {
				return
			}
		case protocol.Ping:
			if !m.Ack {
				if conn.Send(protocol.Ping{Seq: m.Seq, Ack: true}) != nil {
					return
				}
			}
		case protocol.AttestedReceipt:
			// A witness that does not neighbor us confirms a reciprocation
			// out of band (see sendTransientReceipt). No authenticated link: a
			// signing node accepts Ed25519 only.
			n.handleAttestedReceipt(nil, m)
		default:
			return // Bye, or a frame a discovery session has no business seeing
		}
		var err error
		if msg, err = conn.Recv(); err != nil {
			return
		}
	}
}
