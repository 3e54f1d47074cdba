package node

import (
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/attest"
	"repro/internal/tracing"
)

// DebugPeer is one row of the /debug/swarm peer table.
type DebugPeer struct {
	// ID is the peer's swarm identity.
	ID int `json:"id"`
	// Addr is the peer's advertised listen address.
	Addr string `json:"addr"`
	// Have is how many pieces the peer is known to hold.
	Have int `json:"have"`
	// TheyNeed counts pieces we hold that the peer lacks.
	TheyNeed int `json:"they_need"`
	// INeed counts pieces the peer holds that we lack.
	INeed int `json:"i_need"`
	// InFlight counts pieces we asked the peer for and do not hold yet: its
	// use of the request window.
	InFlight int `json:"in_flight"`
	// Outbox is the peer's queued outbound frame count.
	Outbox int `json:"outbox"`
}

// DebugRarity summarizes piece availability across the known neighborhood
// (neighbors plus ourselves).
type DebugRarity struct {
	// MinHolders and MaxHolders bound the per-piece holder counts.
	MinHolders int `json:"min_holders"`
	MaxHolders int `json:"max_holders"`
	// MeanHolders is the average holder count per piece.
	MeanHolders float64 `json:"mean_holders"`
	// Rarest lists up to eight piece indices at MinHolders — the pieces a
	// rarest-first strategy would chase.
	Rarest []int `json:"rarest,omitempty"`
}

// DebugSwarm is the /debug/swarm payload: this node's view of the swarm at
// one instant. Like Stats, each field is consistent with itself; the
// snapshot as a whole is not a linearized cut of a running swarm.
type DebugSwarm struct {
	// ID is this node's identity; Pieces/Complete describe its store.
	ID       int  `json:"id"`
	Pieces   int  `json:"pieces"`
	Complete bool `json:"complete"`
	// Peers is the neighbor table, sorted by peer ID.
	Peers []DebugPeer `json:"peers"`
	// Rarity summarizes piece availability over the known neighborhood.
	Rarity DebugRarity `json:"rarity"`
}

// DebugSwarmInfo assembles the node's current swarm view.
func (n *Node) DebugSwarmInfo() DebugSwarm {
	numPieces := n.cfg.Store.Manifest().NumPieces()
	holders := make([]int, numPieces)

	n.mu.Lock()
	peers := make([]DebugPeer, 0, len(n.links))
	for _, r := range n.links {
		peers = append(peers, DebugPeer{
			ID:       r.id,
			Addr:     r.addr,
			Have:     r.have.Count(),
			TheyNeed: r.have.CountMissingFrom(n.myBits),
			INeed:    n.myBits.CountMissingFrom(r.have),
			InFlight: r.asked.n,
			Outbox:   r.queued(), // outMu nests inside mu, as in flushLinks
		})
		for _, idx := range r.have.Indices() {
			holders[idx]++
		}
	}
	for _, idx := range n.myBits.Indices() {
		holders[idx]++
	}
	n.mu.Unlock()

	var rarity DebugRarity
	if numPieces > 0 {
		rarity.MinHolders = holders[0]
		sum := 0
		for _, h := range holders {
			sum += h
			if h < rarity.MinHolders {
				rarity.MinHolders = h
			}
			if h > rarity.MaxHolders {
				rarity.MaxHolders = h
			}
		}
		rarity.MeanHolders = float64(sum) / float64(numPieces)
		for idx, h := range holders {
			if h == rarity.MinHolders {
				rarity.Rarest = append(rarity.Rarest, idx)
				if len(rarity.Rarest) == 8 {
					break
				}
			}
		}
	}

	return DebugSwarm{
		ID:       n.cfg.ID,
		Pieces:   n.cfg.Store.Count(),
		Complete: n.cfg.Store.Complete(),
		Peers:    peers,
		Rarity:   rarity,
	}
}

// VerifyStanding is one peer's row in the /verify standings: its credited
// score plus how many of its attestations the ledger accepted and refused.
type VerifyStanding struct {
	Peer    int     `json:"peer"`
	Score   float64 `json:"score"`
	Valid   uint64  `json:"valid"`
	Invalid uint64  `json:"invalid"`
}

// VerifyInfo is the GET /verify payload: the node's attestation posture and
// the proof-derived reputation standings it holds.
type VerifyInfo struct {
	// ID is this node's identity; Enabled whether it signs and verifies.
	ID      int  `json:"id"`
	Enabled bool `json:"enabled"`
	// Scheme is the per-piece receipt scheme ("ed25519" or "session").
	Scheme string `json:"scheme,omitempty"`
	// PubKey is the node's hex Ed25519 public key.
	PubKey string `json:"pub_key,omitempty"`
	// Admitted is the directory size (peers whose receipts verify).
	Admitted int `json:"admitted,omitempty"`
	// Standings lists per-peer proof standings, sorted by peer ID.
	Standings []VerifyStanding `json:"standings"`
}

// VerifyInfoSnapshot assembles the node's current /verify view.
func (n *Node) VerifyInfoSnapshot() VerifyInfo {
	info := VerifyInfo{ID: n.cfg.ID, Enabled: n.identity != nil}
	if n.identity != nil {
		info.Scheme = n.attScheme.String()
		info.PubKey = hex.EncodeToString(n.identity.Public())
		info.Admitted = n.directory.Len()
	}
	snap := n.ledger.Snapshot()
	info.Standings = make([]VerifyStanding, 0, len(snap))
	for peer, s := range snap {
		info.Standings = append(info.Standings, VerifyStanding{Peer: peer, Score: s.Score, Valid: s.Valid, Invalid: s.Invalid})
	}
	sort.Slice(info.Standings, func(i, j int) bool { return info.Standings[i].Peer < info.Standings[j].Peer })
	return info
}

// VerifyAttJSON is the wire form of one attestation in a POST /verify
// audit request; Hash and Sig are hex.
type VerifyAttJSON struct {
	Sender   int32  `json:"sender"`
	Receiver int32  `json:"receiver"`
	Index    int32  `json:"index"`
	Hash     string `json:"hash"`
	Bytes    int64  `json:"bytes"`
	Seq      uint64 `json:"seq"`
	Scheme   uint8  `json:"scheme"`
	Sig      string `json:"sig"`
}

// VerifyResult is one POST /verify verdict.
type VerifyResult struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

func (j VerifyAttJSON) attestation() (attest.Attestation, error) {
	att := attest.Attestation{
		Sender: j.Sender, Receiver: j.Receiver, Index: j.Index,
		Bytes: j.Bytes, Seq: j.Seq, Scheme: attest.Scheme(j.Scheme),
	}
	if j.Hash != "" {
		h, err := hex.DecodeString(j.Hash)
		if err != nil || len(h) != len(att.Hash) {
			return att, fmt.Errorf("bad hash %q", j.Hash)
		}
		copy(att.Hash[:], h)
	}
	if j.Sig != "" {
		s, err := hex.DecodeString(j.Sig)
		if err != nil || len(s) != len(att.Sig) {
			return att, fmt.Errorf("bad sig %q", j.Sig)
		}
		copy(att.Sig[:], s)
	}
	return att, nil
}

// handleVerify serves /verify: GET returns the proof-derived standings,
// POST audits a JSON array of attestations statelessly (replay windows are
// not spent, so auditing a receipt never invalidates it).
func (n *Node) handleVerify(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.VerifyInfoSnapshot())
	case http.MethodPost:
		if n.verifier == nil {
			http.Error(w, "attestation disabled on this node", http.StatusServiceUnavailable)
			return
		}
		var req []VerifyAttJSON
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]VerifyResult, len(req))
		for i, entry := range req {
			att, err := entry.attestation()
			if err == nil {
				err = n.verifier.Check(att)
			}
			if err != nil {
				results[i] = VerifyResult{Error: err.Error()}
			} else {
				results[i] = VerifyResult{OK: true}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(results)
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// handleDebugTrace serves /debug/trace: the collector's current span ring as
// JSON ({"dropped": N, "spans": [...]}), or a Chrome trace-event file with
// ?format=chrome (load it in chrome://tracing or Perfetto). ?trace=<hex id>
// restricts the output to one trace.
func (n *Node) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if n.tracer == nil {
		http.Error(w, "tracing disabled on this node", http.StatusNotFound)
		return
	}
	spans, dropped := n.tracer.Snapshot()
	if want := r.URL.Query().Get("trace"); want != "" {
		id, err := strconv.ParseUint(want, 16, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad trace id %q", want), http.StatusBadRequest)
			return
		}
		kept := spans[:0]
		for _, s := range spans {
			if s.TraceID == id {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		_ = tracing.WriteChromeTrace(w, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Dropped uint64         `json:"dropped"`
		Spans   []tracing.Span `json:"spans"`
	}{Dropped: dropped, Spans: spans})
}

// MetricsMux serves the node's telemetry over HTTP:
//
//	/metrics      Prometheus text (a JSON MetricsSnapshot with ?format=json
//	              or an Accept header asking for application/json)
//	/debug/swarm  the DebugSwarm peer table and rarity summary
//	/debug/trace  trace-collector spans (?format=chrome for chrome://tracing,
//	              ?trace=<hex> to filter one trace); 404 when tracing is off
//	/debug/vars   the process's standard expvar page (memstats, cmdline)
//	/verify       GET: proof-derived reputation standings;
//	              POST: stateless audit of a JSON attestation batch
func MetricsMux(n *Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", n.handleMetrics)
	mux.HandleFunc("/debug/swarm", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.DebugSwarmInfo())
	})
	mux.HandleFunc("/debug/trace", n.handleDebugTrace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/verify", n.handleVerify)
	return mux
}
