package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/piece"
)

func TestSeedFlags(t *testing.T) {
	if _, err := seedFlags([]string{}); err == nil {
		t.Error("missing -file accepted")
	}
	opts, err := seedFlags([]string{"-file", "x.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.manifestPath != "x.bin.manifest" {
		t.Errorf("default manifest path = %q", opts.manifestPath)
	}
}

func TestGetFlags(t *testing.T) {
	cases := [][]string{
		{},
		{"-manifest", "m.json"},
		{"-manifest", "m.json", "-out", "f.bin"},
	}
	for i, args := range cases {
		if _, err := getFlags(args); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	opts, err := getFlags([]string{"-manifest", "m.json", "-out", "f.bin", "-peer", "a:1", "-peer", "b:2", "-json", "-max-neighbors", "6"})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.peers) != 2 {
		t.Errorf("peers = %v", opts.peers)
	}
	if opts.maxNeighbors != 6 {
		t.Errorf("-max-neighbors parsed as %d, want 6", opts.maxNeighbors)
	}
	if !opts.output.JSON {
		t.Error("-json not parsed")
	}
}

// TestSeedAndGetEndToEnd seeds a real file over TCP and downloads it with
// a second node, exercising the full CLI path minus flag parsing.
func TestSeedAndGetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "payload.bin")
	content := make([]byte, 96<<10)
	for i := range content {
		content[i] = byte(i*7 + i/1024)
	}
	if err := os.WriteFile(srcPath, content, 0o644); err != nil {
		t.Fatal(err)
	}

	var seedOut strings.Builder
	seed, seedTel, err := startSeed(seedOptions{
		nodeFlags: nodeFlags{
			listen:    "127.0.0.1:0",
			algoName:  "tchain",
			id:        0,
			telemetry: cli.TelemetryFlags{MetricsAddr: "127.0.0.1:0"},
		},
		filePath:     srcPath,
		manifestPath: filepath.Join(dir, "payload.manifest"),
		pieceSize:    8 << 10,
	}, &seedOut)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	defer seedTel.stop(nil)
	if !strings.Contains(seedOut.String(), "seeding") {
		t.Errorf("seed output = %q", seedOut.String())
	}
	if seedTel.addr == "" {
		t.Fatal("seed telemetry bound no address")
	}
	if !strings.Contains(seedOut.String(), seedTel.addr) {
		t.Errorf("seed output %q does not report telemetry address %s", seedOut.String(), seedTel.addr)
	}

	outPath := filepath.Join(dir, "copy.bin")
	var getOut strings.Builder
	err = runGet(getOptions{
		nodeFlags: nodeFlags{
			listen:   "127.0.0.1:0",
			algoName: "tchain",
			id:       1,
		},
		manifestPath: filepath.Join(dir, "payload.manifest"),
		outPath:      outPath,
		peers:        cli.StringList{seed.Addr()},
		timeout:      60 * time.Second,
	}, &getOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("downloaded file differs from the original")
	}

	// A second download with -json emits the run summary with sane rates
	// and frame counters.
	var jsonOut strings.Builder
	err = runGet(getOptions{
		nodeFlags: nodeFlags{
			listen:   "127.0.0.1:0",
			algoName: "tchain",
			id:       2,
			output:   cli.OutputFlags{JSON: true},
		},
		manifestPath: filepath.Join(dir, "payload.manifest"),
		outPath:      filepath.Join(dir, "copy2.bin"),
		peers:        cli.StringList{seed.Addr()},
		timeout:      60 * time.Second,
	}, &jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		cli.RunSummary
		Out       string `json:"out"`
		Algorithm string `json:"algorithm"`
	}
	if err := json.Unmarshal([]byte(jsonOut.String()), &summary); err != nil {
		t.Fatalf("bad JSON output %q: %v", jsonOut.String(), err)
	}
	if summary.Bytes != len(content) {
		t.Errorf("summary bytes = %d, want %d", summary.Bytes, len(content))
	}
	if summary.PiecesPerSec <= 0 || summary.BytesPerSec <= 0 {
		t.Errorf("rates not positive: %+v", summary.RunSummary)
	}
	if summary.FramesSent <= 0 || summary.FramesReceived <= 0 {
		t.Errorf("frame counters not positive: %+v", summary.RunSummary)
	}
	if summary.Algorithm != "T-Chain" {
		t.Errorf("algorithm = %q", summary.Algorithm)
	}

	// The seed's live HTTP surface serves both exposition formats while it
	// runs, and its upload counters account for the copies it pushed out.
	res, err := http.Get("http://" + seedTel.addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promText, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promText), "# TYPE node_uploaded_bytes_total counter") {
		t.Errorf("seed /metrics missing upload counter family:\n%.400s", promText)
	}
	res, err = http.Get("http://" + seedTel.addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var seedSnap node.MetricsSnapshot
	err = json.NewDecoder(res.Body).Decode(&seedSnap)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := seedSnap.Counters["node_uploaded_bytes_total"]; got < int64(2*len(content)) {
		t.Errorf("seed uploaded %d bytes, want >= two full copies (%d)", got, 2*len(content))
	}

	// A third download with -metrics-out dumps a snapshot whose per-peer
	// download counters sum to the run summary's byte total (the acceptance
	// contract), the sampler's rows and the summary itself.
	dumpPath := filepath.Join(dir, "telemetry.json")
	var out3 strings.Builder
	err = runGet(getOptions{
		nodeFlags: nodeFlags{
			listen:    "127.0.0.1:0",
			algoName:  "tchain",
			id:        3,
			output:    cli.OutputFlags{JSON: true},
			telemetry: cli.TelemetryFlags{MetricsAddr: "127.0.0.1:0", MetricsOut: dumpPath},
		},
		manifestPath: filepath.Join(dir, "payload.manifest"),
		outPath:      filepath.Join(dir, "copy3.bin"),
		peers:        cli.StringList{seed.Addr()},
		timeout:      60 * time.Second,
	}, &out3)
	if err != nil {
		t.Fatal(err)
	}
	var report3 getReport
	if err := json.Unmarshal([]byte(out3.String()), &report3); err != nil {
		t.Fatalf("bad JSON output %q: %v", out3.String(), err)
	}
	if report3.MetricsAddr == "" {
		t.Error("get -json did not report the bound metrics address")
	}
	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Snapshot node.MetricsSnapshot `json:"snapshot"`
		Samples  []sampleRow          `json:"samples"`
		Summary  getReport            `json:"summary"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	var perPeer int64
	for name, v := range dump.Snapshot.Counters {
		if strings.HasPrefix(name, "node_peer_download_bytes_total{") {
			perPeer += v
		}
	}
	if perPeer != int64(report3.Bytes) || report3.Bytes != len(content) {
		t.Errorf("dump per-peer download sum = %d, summary bytes = %d, want %d", perPeer, report3.Bytes, len(content))
	}
	if dump.Summary.Bytes != report3.Bytes {
		t.Errorf("embedded summary bytes = %d, want %d", dump.Summary.Bytes, report3.Bytes)
	}
	// The sampler's series: non-empty, in time order, and closing on the
	// whole file credited with a defined fairness index.
	if len(dump.Samples) == 0 {
		t.Fatal("dump has no sample rows")
	}
	for i := 1; i < len(dump.Samples); i++ {
		if dump.Samples[i].TSec < dump.Samples[i-1].TSec {
			t.Errorf("sample %d at t=%v precedes sample %d at t=%v", i, dump.Samples[i].TSec, i-1, dump.Samples[i-1].TSec)
		}
	}
	last := dump.Samples[len(dump.Samples)-1]
	if last.CreditedBytes != int64(len(content)) {
		t.Errorf("last sample credited %d bytes, want %d", last.CreditedBytes, len(content))
	}
	if last.Jain <= 0 || last.Jain > 1 {
		t.Errorf("last sample jain = %v, want (0, 1]", last.Jain)
	}
}

// TestSeedAndGetSigned repeats the download with -sign on both ends: each
// process mints a fresh Ed25519 keypair, pins the counterparty's key
// trust-on-first-use from the handshake, and every stored piece produces a
// signed receipt instead of a bare claim.
func TestSeedAndGetSigned(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "payload.bin")
	content := make([]byte, 32<<10)
	for i := range content {
		content[i] = byte(i*11 + i/256)
	}
	if err := os.WriteFile(srcPath, content, 0o644); err != nil {
		t.Fatal(err)
	}

	var seedOut strings.Builder
	seed, seedTel, err := startSeed(seedOptions{
		nodeFlags: nodeFlags{
			listen:   "127.0.0.1:0",
			algoName: "tchain",
			id:       0,
			sign:     true,
		},
		filePath:     srcPath,
		manifestPath: filepath.Join(dir, "payload.manifest"),
		pieceSize:    8 << 10,
	}, &seedOut)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	defer seedTel.stop(nil)

	outPath := filepath.Join(dir, "copy.bin")
	var getOut strings.Builder
	err = runGet(getOptions{
		nodeFlags: nodeFlags{
			listen:   "127.0.0.1:0",
			algoName: "tchain",
			id:       1,
			sign:     true,
		},
		manifestPath: filepath.Join(dir, "payload.manifest"),
		outPath:      outPath,
		peers:        cli.StringList{seed.Addr()},
		timeout:      60 * time.Second,
	}, &getOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("signed download differs from the original")
	}
	info := seed.VerifyInfoSnapshot()
	if !info.Enabled {
		t.Error("seed did not enable attestation under -sign")
	}
	// The seed holds proof of its own uploads: the getter signed a receipt
	// for every piece and sent the seed its copy. Receipt copies ride
	// normal traffic (the last ones flush when the getter disconnects), so
	// poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if seed.Metrics().Counters[`node_attest_acks_total{result="ok"}`] > 0 {
			break
		}
		if time.Now().After(deadline) {
			for k, v := range seed.Metrics().Counters {
				if strings.Contains(k, "attest") {
					t.Logf("seed %s = %d", k, v)
				}
			}
			t.Error("seed verified no receipt copies of its uploads")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSeedAndGetPeerExchange: a seed and two getters over real TCP, each
// getter told only the seed's address and dialing at most -max-neighbors 2.
// The getters must find each other through peer exchange — the seed lists
// the earlier one to the later one in its handshake — and both complete.
func TestSeedAndGetPeerExchange(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "payload.bin")
	content := make([]byte, 32<<10)
	for i := range content {
		content[i] = byte(i*13 + i/512)
	}
	if err := os.WriteFile(srcPath, content, 0o644); err != nil {
		t.Fatal(err)
	}
	seed, seedTel, err := startSeed(seedOptions{
		nodeFlags: nodeFlags{
			listen:       "127.0.0.1:0",
			algoName:     "altruism",
			id:           0,
			maxNeighbors: 2,
		},
		filePath:     srcPath,
		manifestPath: filepath.Join(dir, "payload.manifest"),
		pieceSize:    4 << 10,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	defer seedTel.stop(nil)
	manifestFile, err := os.Open(filepath.Join(dir, "payload.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := piece.DecodeManifest(manifestFile)
	manifestFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	getters := make([]*node.Node, 2)
	for i := range getters {
		f := nodeFlags{listen: "127.0.0.1:0", id: i + 1, maxNeighbors: 2}
		n, err := f.newNode(algo.Altruism, piece.NewStore(manifest), false, []string{seed.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		getters[i] = n
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, n := range getters {
		if err := n.WaitCompleteContext(ctx); err != nil {
			t.Fatalf("getter %d: %v", n.ID(), err)
		}
		got, err := n.StoreHandle().Assemble()
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("getter %d assembled a different file (%v)", n.ID(), err)
		}
	}
	// Linked to the seed and to each other: two neighbours each.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		a, b := getters[0].Stats().Neighbors, getters[1].Stats().Neighbors
		if a == 2 && b == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("getters have %d and %d neighbours, want 2 each: peer exchange never linked them", a, b)
		}
	}
}

func TestRunGetBadManifest(t *testing.T) {
	err := runGet(getOptions{
		nodeFlags: nodeFlags{
			algoName: "tchain",
		},
		manifestPath: filepath.Join(t.TempDir(), "missing.json"),
		outPath:      "out.bin",
		peers:        cli.StringList{"127.0.0.1:1"},
		timeout:      time.Second,
	}, &strings.Builder{})
	if err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestStartSeedBadAlgorithm(t *testing.T) {
	_, _, err := startSeed(seedOptions{
		nodeFlags: nodeFlags{
			algoName: "nonsense",
		},
		filePath: "whatever.bin",
	}, &strings.Builder{})
	if err == nil {
		t.Fatal("bad algorithm accepted")
	}
}
