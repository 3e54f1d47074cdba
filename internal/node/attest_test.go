package node

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/piece"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// startSignedCluster runs a default (signed, session-scheme) cluster to
// completion and returns it still running, for post-hoc inspection.
func startSignedCluster(t *testing.T, tr transport.Transport, leechers int) *Cluster {
	t.Helper()
	manifest, err := piece.SyntheticManifest(testPieces, testPieceSize)
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 0, manifest.FileSize)
	for i := 0; i < testPieces; i++ {
		content = append(content, piece.SyntheticPiece(i, testPieceSize)...)
	}
	c, err := StartCluster(manifest, content,
		WithAlgorithm(algo.Altruism),
		WithTransport(tr),
		WithLeechers(leechers),
		WithDecisionInterval(2*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitAllCompleteContext(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

// sumCounter totals one counter across every node's private registry.
func sumCounter(c *Cluster, name string) int64 {
	var total int64
	for _, n := range c.Nodes {
		total += n.Metrics().Counters[name]
	}
	return total
}

// TestClusterAttestationEndToEnd checks the proof-first accounting books
// after a full signed swarm: every piece delivery produced exactly one
// receipt, the shared ledger's scores are the byte-exact sum of those
// verified proofs, and nothing was rejected.
func TestClusterAttestationEndToEnd(t *testing.T) {
	const leechers = 4
	c := startSignedCluster(t, transport.NewMem(), leechers)
	// Completion does not quiesce the swarm: the last receipt copies are
	// still waiting for a tick. Stop first, which drains them, so the books
	// are closed.
	c.Stop()

	// Only a first delivery is receipted: a racing duplicate (Store.Put is
	// idempotent) earns nothing, so the books hold exactly one proof per
	// piece per leecher.
	deliveries := int64(leechers * testPieces)

	var valid, invalid uint64
	var score float64
	for _, s := range c.Ledger.Snapshot() {
		valid += s.Valid
		invalid += s.Invalid
		score += s.Score
	}
	if int64(valid) != deliveries || invalid != 0 {
		t.Errorf("ledger proofs = %d valid / %d invalid, want %d / 0", valid, invalid, deliveries)
	}
	if want := float64(valid) * testPieceSize; score != want {
		t.Errorf("ledger score sum = %g, want %g (one piece per proof)", score, want)
	}
	if seed := c.Ledger.Score(0); seed <= 0 {
		t.Errorf("seed score = %g, want > 0 (it uploaded)", seed)
	}

	if got := sumCounter(c, "node_attest_signed_total"); got != int64(valid) {
		t.Errorf("receipts signed = %d, want %d (one per credited proof)", got, valid)
	}
	if got := sumCounter(c, "node_attest_credited_total"); got != int64(valid) {
		t.Errorf("receipts credited = %d, want %d", got, valid)
	}
	if got := sumCounter(c, `node_attest_acks_total{result="bad"}`); got != 0 {
		t.Errorf("bad acks = %d, want 0 on an untampered transport", got)
	}
	if got := sumCounter(c, `node_attest_acks_total{result="ok"}`); got == 0 {
		t.Error("no sender ever received a valid receipt copy")
	}

	info := c.Nodes[1].VerifyInfoSnapshot()
	if !info.Enabled || info.Scheme != attest.SchemeSession.String() {
		t.Errorf("verify info = enabled %v scheme %q, want enabled session", info.Enabled, info.Scheme)
	}
	if info.Admitted != leechers+1 {
		t.Errorf("admitted identities = %d, want %d", info.Admitted, leechers+1)
	}
}

// tamperTransport corrupts the signature of every receipt frame crossing
// the wire, in both directions, leaving all other traffic intact — the
// man-in-the-middle the ack audit path is built to catch. Messages are
// copied before mutation: the memory transport delivers by reference.
type tamperTransport struct{ transport.Transport }

func (tt tamperTransport) Dial(addr string) (transport.Conn, error) {
	c, err := tt.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tamperConn{c}, nil
}

func (tt tamperTransport) Listen(addr string) (transport.Listener, error) {
	l, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tamperListener{l}, nil
}

type tamperListener struct{ transport.Listener }

func (tl tamperListener) Accept() (transport.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tamperConn{c}, nil
}

type tamperConn struct{ transport.Conn }

func corruptAttest(m protocol.Message) protocol.Message {
	if f, ok := m.(protocol.Attest); ok {
		f.Att.Sig[0] ^= 0xff
		return f
	}
	return m
}

func (tc tamperConn) Send(m protocol.Message) error {
	return tc.Conn.Send(corruptAttest(m))
}

func (tc tamperConn) SendBatch(ms []protocol.Message) error {
	out := make([]protocol.Message, len(ms))
	for i, m := range ms {
		out[i] = corruptAttest(m)
	}
	if bs, ok := tc.Conn.(transport.BatchSender); ok {
		return bs.SendBatch(out)
	}
	for _, m := range out {
		if err := tc.Conn.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterSurvivesTamperedAcks runs a signed swarm over a transport
// that corrupts every receipt copy in flight. The swarm still completes
// (receipts are evidence, not flow control), the shared ledger is
// untouched (crediting happens at the receiver, not over the wire), and
// every tampered copy is caught and counted — none verifies.
func TestClusterSurvivesTamperedAcks(t *testing.T) {
	const leechers = 3
	c := startSignedCluster(t, tamperTransport{transport.NewMem()}, leechers)

	minDeliveries := int64(leechers * testPieces)
	var valid, invalid uint64
	for _, s := range c.Ledger.Snapshot() {
		valid += s.Valid
		invalid += s.Invalid
	}
	if int64(valid) < minDeliveries || invalid != 0 {
		t.Errorf("ledger proofs = %d valid / %d invalid, want >= %d / 0 (crediting is local)", valid, invalid, minDeliveries)
	}
	if got := sumCounter(c, `node_attest_acks_total{result="ok"}`); got != 0 {
		t.Errorf("%d tampered receipt copies verified, want 0", got)
	}
	if got := sumCounter(c, `node_attest_acks_total{result="bad"}`); got == 0 {
		t.Error("no tampered receipt copy was caught")
	}
}

// TestVerifyEndpoint exercises the audit surface: GET returns the
// proof-derived standings, POST separates a genuine receipt from a forged
// one without spending either (auditing must not consume replay windows).
func TestVerifyEndpoint(t *testing.T) {
	c := startSignedCluster(t, transport.NewMem(), 2)
	srv := httptest.NewServer(MetricsMux(c.Nodes[1]))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/verify")
	if err != nil {
		t.Fatal(err)
	}
	var info VerifyInfo
	if err := json.NewDecoder(res.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if !info.Enabled || len(info.Standings) == 0 {
		t.Fatalf("GET /verify = %+v, want enabled with standings", info)
	}
	var seedScore float64
	for _, s := range info.Standings {
		if s.Peer == 0 {
			seedScore = s.Score
		}
	}
	if seedScore <= 0 {
		t.Errorf("seed standing %g over /verify, want > 0", seedScore)
	}

	genuine := c.Key(2).Attest(attest.SchemeSession, 1, 0, [32]byte{}, testPieceSize)
	toJSON := func(a attest.Attestation) VerifyAttJSON {
		return VerifyAttJSON{
			Sender: a.Sender, Receiver: a.Receiver, Index: a.Index,
			Hash: hex.EncodeToString(a.Hash[:]), Bytes: a.Bytes,
			Seq: a.Seq, Scheme: uint8(a.Scheme), Sig: hex.EncodeToString(a.Sig[:]),
		}
	}
	forged := genuine
	forged.Sig[0] ^= 0xff
	// A witness receipt keyed to a link, even one addressed to the auditing
	// node: it convinces that node on that link only, never an audit.
	linkScoped := c.Key(2).AttestLink(1, 0, 0, [32]byte{}, testPieceSize)
	body, err := json.Marshal([]VerifyAttJSON{toJSON(genuine), toJSON(forged), toJSON(linkScoped)})
	if err != nil {
		t.Fatal(err)
	}

	// Audit twice: the second pass must agree with the first, proving the
	// endpoint spends no state.
	for pass := 0; pass < 2; pass++ {
		res, err := srv.Client().Post(srv.URL+"/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []VerifyResult
		if err := json.NewDecoder(res.Body).Decode(&verdicts); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if len(verdicts) != 3 || !verdicts[0].OK || verdicts[1].OK || verdicts[2].OK {
			t.Fatalf("pass %d verdicts = %+v, want [genuine ok, forged refused, link-scoped refused]", pass, verdicts)
		}
	}
}
