package node

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/incentive"
	"repro/internal/piece"
	"repro/internal/reputation"
	"repro/internal/stats"
	"repro/internal/tracing"
	"repro/internal/transport"
)

// clusterSeed derives the default deterministic node keypairs and seeds the
// tracker's draws; any fixed value works, it only needs to be stable across
// runs so cluster tests and benchmarks are reproducible.
const clusterSeed int64 = 0x1CDC5

// clusterOptions is the resolved cluster configuration.
type clusterOptions struct {
	algorithm        algo.Algorithm
	transport        transport.Transport
	listenAddr       func(i int) string
	leechers         int
	freeRiders       map[int]bool
	decisionInterval time.Duration
	maxNeighbors     int
	identity         func(id int) *attest.Key
	unsigned         bool
	tracing          *tracing.Config
}

// ClusterOption customizes StartCluster; options that reject their argument
// surface the error through StartCluster.
type ClusterOption func(*clusterOptions) error

// WithAlgorithm selects the incentive mechanism every compliant node runs
// (default algo.Altruism).
func WithAlgorithm(a algo.Algorithm) ClusterOption {
	return func(o *clusterOptions) error {
		o.algorithm = a
		return nil
	}
}

// WithTransport selects the transport carrying the swarm (default
// transport.NewMem()).
func WithTransport(tr transport.Transport) ClusterOption {
	return func(o *clusterOptions) error {
		if tr == nil {
			return fmt.Errorf("node: WithTransport(nil)")
		}
		o.transport = tr
		return nil
	}
}

// WithListenAddr sets the listen address for node i ("" suits the memory
// transport, "127.0.0.1:0" TCP).
func WithListenAddr(f func(i int) string) ClusterOption {
	return func(o *clusterOptions) error {
		if f == nil {
			return fmt.Errorf("node: WithListenAddr(nil)")
		}
		o.listenAddr = f
		return nil
	}
}

// WithLeechers sets the number of downloading peers, node IDs 1..n
// (default 0: just the seed).
func WithLeechers(n int) ClusterOption {
	return func(o *clusterOptions) error {
		if n < 0 {
			return fmt.Errorf("node: negative leecher count %d", n)
		}
		o.leechers = n
		return nil
	}
}

// WithFreeRiders marks node IDs that free-ride (receive without ever
// uploading or reciprocating).
func WithFreeRiders(ids map[int]bool) ClusterOption {
	return func(o *clusterOptions) error {
		o.freeRiders = ids
		return nil
	}
}

// WithDecisionInterval overrides every node's upload-scheduler tick.
func WithDecisionInterval(d time.Duration) ClusterOption {
	return func(o *clusterOptions) error {
		o.decisionInterval = d
		return nil
	}
}

// WithMaxNeighbors sets every node's Config.MaxNeighbors, the topology knob
// sim.Config names the same way (default incentive.DefaultMaxNeighbors): the
// tracker hands a joining node at most that many peers, and it dials no
// more. At or above the node count the swarm is a full mesh.
func WithMaxNeighbors(n int) ClusterOption {
	return func(o *clusterOptions) error {
		if n < 0 {
			return fmt.Errorf("node: negative MaxNeighbors %d", n)
		}
		o.maxNeighbors = n
		return nil
	}
}

// WithIdentity supplies the signing keypair for each node ID, overriding
// the default deterministic derivation (attest.NewKeyFromSeed off a fixed
// cluster seed). Returning nil for an ID leaves that node unsigned — the
// hook a Sybil or legacy peer experiment uses.
func WithIdentity(keyFor func(id int) *attest.Key) ClusterOption {
	return func(o *clusterOptions) error {
		if keyFor == nil {
			return fmt.Errorf("node: WithIdentity(nil)")
		}
		o.identity = keyFor
		return nil
	}
}

// WithTracing enables causal tracing across the whole swarm: every node
// shares one collector (exposed as Cluster.Tracer), so a traced piece's
// spans land in a single ring no matter which nodes touch it and
// tracing.Traces can reassemble cross-node stories without merging.
func WithTracing(cfg tracing.Config) ClusterOption {
	return func(o *clusterOptions) error {
		o.tracing = &cfg
		return nil
	}
}

// WithoutAttestation runs the cluster on the legacy unsigned protocol:
// no keys, no directory, a ledger that accepts bare claims — the paper's
// trust-the-report world, kept available as the experimental baseline.
func WithoutAttestation() ClusterOption {
	return func(o *clusterOptions) error {
		o.unsigned = true
		return nil
	}
}

// Cluster is a running in-process swarm. Stop it when done; Join attaches
// additional leechers while it runs.
type Cluster struct {
	// Nodes holds the seed at index 0 followed by the leechers, including
	// any attached by Join. Join appends to it, so do not range over Nodes
	// concurrently with Join calls.
	Nodes []*Node
	// Ledger is the shared reputation service. Unless WithoutAttestation
	// was given it verifies every credit against Directory, so scores are
	// sums of proven transfers.
	Ledger *reputation.Ledger
	// Directory is the shared admitted-identity set (nil for an unsigned
	// cluster). It is sealed once the initial nodes are registered; Join
	// admits later nodes through the authorized Register path.
	Directory *attest.Directory
	// Tracer is the swarm-wide trace collector (nil unless WithTracing was
	// given). Snapshot it after the run — or serve it live via MetricsMux —
	// to reassemble cross-node piece stories with tracing.Traces.
	Tracer *tracing.Collector

	opts     clusterOptions
	manifest *piece.Manifest
	content  []byte
	tracker  *rand.Rand // draws bootstrap lists; startNode's alone

	mu       sync.Mutex
	keys     map[int]*attest.Key
	nextID   int
	stopped  bool
	stopOnce sync.Once
	stopErr  error
}

// StartCluster builds and starts an in-process swarm: one seed holding all
// of content plus WithLeechers downloading peers, sharing one reputation
// ledger, each wired by the cluster's tracker (see bootstrapList). By
// default every node gets a deterministic Ed25519 identity registered in a
// shared directory (sealed after startup — closed membership), receipts
// travel signed, and the shared ledger credits only verified proofs;
// WithoutAttestation restores the unsigned baseline. On error, any nodes
// already started are stopped before returning. The seed keeps content
// itself (piece.NewSeedStore), and over Mem every node stores those very
// bytes, so the caller must not modify content afterwards.
func StartCluster(manifest *piece.Manifest, content []byte, opts ...ClusterOption) (*Cluster, error) {
	if manifest == nil || len(content) == 0 {
		return nil, fmt.Errorf("node: cluster needs a manifest and content")
	}
	o := clusterOptions{
		algorithm:  algo.Altruism,
		listenAddr: func(int) string { return "" },
		identity:   func(id int) *attest.Key { return attest.NewKeyFromSeed(int32(id), clusterSeed) },
	}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.transport == nil {
		o.transport = transport.NewMem()
	}

	c := &Cluster{
		opts:     o,
		manifest: manifest,
		content:  content,
		keys:     make(map[int]*attest.Key),
		tracker:  stats.NewRNG(clusterSeed),
	}
	if o.tracing != nil {
		c.Tracer = tracing.NewCollector(*o.tracing)
	}
	if o.unsigned {
		c.Ledger = reputation.NewLedger(attest.AcceptAll{})
	} else {
		c.Directory = attest.NewDirectory()
		c.Ledger = reputation.NewLedger(attest.NewVerifier(c.Directory))
	}
	for i := 0; i <= o.leechers; i++ {
		if _, err := c.startNode(i); err != nil {
			c.Stop()
			return nil, err
		}
	}
	if c.Directory != nil {
		// Close membership: from here on only the authorized Register path
		// (Join) admits identities; trust-on-first-use is refused.
		c.Directory.Seal()
	}
	c.nextID = o.leechers + 1
	return c, nil
}

// Key returns the signing keypair startNode assigned to node id (nil for
// an unsigned cluster or an unknown id) — test hooks use it to mint or
// tamper with attestations.
func (c *Cluster) Key(id int) *attest.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys[id]
}

// startNode builds, starts, and registers node id (0 = the seed).
func (c *Cluster) startNode(id int) (*Node, error) {
	var store *piece.Store
	if id == 0 {
		seeded, err := piece.NewSeedStore(c.manifest, c.content)
		if err != nil {
			return nil, fmt.Errorf("node: seeding: %w", err)
		}
		store = seeded
	} else {
		store = piece.NewStore(c.manifest)
	}
	var key *attest.Key
	if c.Directory != nil {
		if key = c.opts.identity(id); key != nil {
			// Authorized admission: works before and after Seal, so Join
			// keeps attaching signed nodes to a closed directory.
			c.Directory.Register(int32(id), key.Identity())
			c.mu.Lock()
			c.keys[id] = key
			c.mu.Unlock()
		}
	}
	n, err := New(Config{
		ID:               id,
		Algorithm:        c.opts.algorithm,
		Store:            store,
		Transport:        c.opts.transport,
		ListenAddr:       c.opts.listenAddr(id),
		Bootstrap:        c.bootstrapList(),
		MaxNeighbors:     c.opts.maxNeighbors,
		DecisionInterval: c.opts.decisionInterval,
		FreeRide:         c.opts.freeRiders[id],
		Identity:         key,
		Directory:        c.Directory,
		AttestScheme:     attest.SchemeSession,
		Ledger:           c.Ledger,
		Tracer:           c.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if err := n.Start(); err != nil {
		return nil, err
	}
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// bootstrapList is the tracker's answer to a joining node, as in
// sim.Swarm.join: the seed, which serves every incomplete peer, plus up to
// MaxNeighbors-1 other live nodes drawn at random — all of them, in join
// order, while they fit, so a cluster no larger than MaxNeighbors is a full
// mesh.
func (c *Cluster) bootstrapList() []string {
	var addrs []string
	var others []*Node
	for i, n := range c.Nodes {
		switch {
		case n.stopped():
		case i == 0:
			addrs = append(addrs, n.Addr())
		default:
			others = append(others, n)
		}
	}
	limit := cmp.Or(c.opts.maxNeighbors, incentive.DefaultMaxNeighbors) - len(addrs)
	if len(others) > limit {
		c.tracker.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		others = others[:limit]
	}
	for _, n := range others {
		addrs = append(addrs, n.Addr())
	}
	return addrs
}

// Join attaches one more leecher to the running swarm, bootstrapped the
// same way StartCluster wires nodes (see bootstrapList). The node is
// appended to Nodes and returned; stopping it individually models a peer
// leaving. Join is not safe to call concurrently with itself or with reads
// of Nodes.
func (c *Cluster) Join() (*Node, error) {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return nil, fmt.Errorf("node: cluster stopped")
	}
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	return c.startNode(id)
}

// Seed returns the seeding node.
func (c *Cluster) Seed() *Node { return c.Nodes[0] }

// Leechers returns the non-seed nodes (including any free-riders).
func (c *Cluster) Leechers() []*Node { return c.Nodes[1:] }

// WaitAllCompleteContext blocks until every *compliant* leecher holds the
// full file or the context is done. Free-riders are excluded: under T-Chain
// they never finish, by design. It returns nil on success; otherwise an
// error wrapping ctx.Err() that names the first node still incomplete.
func (c *Cluster) WaitAllCompleteContext(ctx context.Context) error {
	for i, n := range c.Nodes {
		if i == 0 || n.cfg.FreeRide {
			continue
		}
		if err := n.WaitCompleteContext(ctx); err != nil {
			return fmt.Errorf("node: waiting for node %d: %w", n.cfg.ID, err)
		}
	}
	return nil
}

// Stop tears every node down. It is idempotent — every call (including
// concurrent ones) waits for the full teardown — and returns the first
// per-node teardown error; repeat calls return that same error. Nodes
// already stopped individually are fine: Node.Stop is idempotent too.
func (c *Cluster) Stop() error {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.stopOnce.Do(func() {
		var first error
		for _, n := range c.Nodes {
			if err := n.Stop(); err != nil && first == nil {
				first = err
			}
		}
		c.stopErr = first
	})
	return c.stopErr
}
