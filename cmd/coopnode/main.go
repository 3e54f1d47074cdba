// Command coopnode runs a live cooperative-exchange peer over TCP: seed a
// real file to a swarm, or join a swarm and download it, under any of the
// implemented incentive mechanisms (T-Chain pieces travel AES-sealed with
// escrowed keys).
//
// Seed a file (writes the swarm manifest next to it):
//
//	coopnode seed -file ./update.bin -listen 127.0.0.1:9000 -manifest update.manifest
//
// Download it from another terminal (repeat -peer to add more):
//
//	coopnode get -manifest update.manifest -peer 127.0.0.1:9000 -out copy.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/algo"
	"repro/internal/attest"
	"repro/internal/cli"
	"repro/internal/node"
	"repro/internal/piece"
	"repro/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: coopnode <seed|get> [flags]   (run with -h for flags)")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "seed":
		err = seedMain(os.Args[2:], os.Stdout)
	case "get":
		err = getMain(os.Args[2:], os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (want seed or get)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "coopnode: %v\n", err)
		os.Exit(1)
	}
}

// nodeFlags are the flags seed and get share: everything that shapes the
// node itself rather than what it does with the file.
type nodeFlags struct {
	listen       string
	algoName     string
	uploadRate   float64
	id           int
	sign         bool
	maxNeighbors int
	output       cli.OutputFlags
	telemetry    cli.TelemetryFlags
}

// register declares the shared flags on fs; defaultID is the subcommand's
// default -id (0 for the seed, 1 for a getter).
func (f *nodeFlags) register(fs *flag.FlagSet, defaultID int) {
	fs.StringVar(&f.listen, "listen", "127.0.0.1:0", "TCP listen address")
	fs.StringVar(&f.algoName, "algo", "tchain", "incentive mechanism")
	fs.Float64Var(&f.uploadRate, "rate", 0, "upload throttle in bytes/second (0 = unthrottled)")
	fs.IntVar(&f.id, "id", defaultID, "node ID (unique within the swarm)")
	fs.BoolVar(&f.sign, "sign", false, "sign per-piece receipts and verify peers' (Ed25519; peer keys pinned trust-on-first-use)")
	fs.IntVar(&f.maxNeighbors, "max-neighbors", 0, "most peers this node dials: its -peer list, then contacts its peers pass on (0 = the paper's 50)")
	f.output.RegisterJSON(fs)
	f.telemetry.Register(fs)
}

// newNode builds (without starting) the TCP node the flags describe over
// store: the swarm's origin when seedMode is set, otherwise a peer that
// dials bootstrap.
func (f *nodeFlags) newNode(mechanism algo.Algorithm, store *piece.Store, seedMode bool, bootstrap []string) (*node.Node, error) {
	// The signing key is fresh per process: cross-process swarms pin each
	// other's public keys trust-on-first-use from the handshake, so durable
	// identity is the operator's concern, not this CLI's.
	var identity *attest.Key
	if f.sign {
		var err error
		if identity, err = attest.NewKey(int32(f.id)); err != nil {
			return nil, err
		}
	}
	return node.New(node.Config{
		ID:           f.id,
		Algorithm:    mechanism,
		Store:        store,
		Transport:    transport.NewTCP(),
		ListenAddr:   f.listen,
		Bootstrap:    bootstrap,
		MaxNeighbors: f.maxNeighbors,
		UploadRate:   f.uploadRate,
		SeedMode:     seedMode,
		Identity:     identity,
		Tracer:       traceCollector(f.telemetry),
		// Warnings and errors (a refused handshake, a conflicting identity)
		// as text lines on stderr, so they never mix into stdout's -json.
		Log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
}

// seedOptions parameterize the seed subcommand.
type seedOptions struct {
	nodeFlags
	filePath     string
	manifestPath string
	pieceSize    int
}

func seedFlags(args []string) (seedOptions, error) {
	fs := flag.NewFlagSet("seed", flag.ContinueOnError)
	var opts seedOptions
	fs.StringVar(&opts.filePath, "file", "", "file to seed (required)")
	fs.StringVar(&opts.manifestPath, "manifest", "", "where to write the swarm manifest (default <file>.manifest)")
	fs.IntVar(&opts.pieceSize, "piecesize", 256<<10, "piece size in bytes")
	opts.register(fs, 0)
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if opts.filePath == "" {
		return opts, errors.New("seed: -file is required")
	}
	if opts.manifestPath == "" {
		opts.manifestPath = opts.filePath + ".manifest"
	}
	return opts, nil
}

func seedMain(args []string, stdout io.Writer) error {
	opts, err := seedFlags(args)
	if err != nil {
		return err
	}
	n, tel, err := startSeed(opts, stdout)
	if err != nil {
		return err
	}
	defer n.Stop()
	defer tel.stop(nil)
	if !opts.output.JSON {
		fmt.Fprintln(stdout, "seeding; press Ctrl-C to stop")
	}
	waitForInterrupt()
	return tel.stop(nil)
}

// startSeed builds and starts the seeding node plus its telemetry
// surfaces; factored out for tests.
func startSeed(opts seedOptions, stdout io.Writer) (*node.Node, *nodeTelemetry, error) {
	mechanism, err := algo.Parse(opts.algoName)
	if err != nil {
		return nil, nil, err
	}
	content, err := os.ReadFile(opts.filePath)
	if err != nil {
		return nil, nil, err
	}
	manifest, err := piece.NewManifest(content, opts.pieceSize)
	if err != nil {
		return nil, nil, err
	}
	manifestFile, err := os.Create(opts.manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if err := piece.EncodeManifest(manifestFile, manifest); err != nil {
		manifestFile.Close()
		return nil, nil, err
	}
	if err := manifestFile.Close(); err != nil {
		return nil, nil, err
	}
	store, err := piece.NewSeedStore(manifest, content)
	if err != nil {
		return nil, nil, err
	}
	n, err := opts.newNode(mechanism, store, true, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := n.Start(); err != nil {
		return nil, nil, err
	}
	tel, err := startTelemetry(opts.telemetry, n, manifest.NumPieces())
	if err != nil {
		n.Stop()
		return nil, nil, err
	}
	if opts.output.JSON {
		err := cli.WriteJSON(stdout, struct {
			File        string `json:"file"`
			Pieces      int    `json:"pieces"`
			PieceSize   int    `json:"piece_size"`
			Algorithm   string `json:"algorithm"`
			Listen      string `json:"listen"`
			Manifest    string `json:"manifest"`
			MetricsAddr string `json:"metrics_addr,omitempty"`
		}{opts.filePath, manifest.NumPieces(), opts.pieceSize, mechanism.String(), n.Addr(), opts.manifestPath, tel.addr})
		if err != nil {
			return nil, nil, err
		}
		return n, tel, nil
	}
	fmt.Fprintf(stdout, "seeding %s (%d pieces x %d KB, %v) on %s\n",
		opts.filePath, manifest.NumPieces(), opts.pieceSize/1024, mechanism, n.Addr())
	fmt.Fprintf(stdout, "manifest written to %s\n", opts.manifestPath)
	if tel.addr != "" {
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics\n", tel.addr)
	}
	return n, tel, nil
}

// getOptions parameterize the get subcommand.
type getOptions struct {
	nodeFlags
	manifestPath string
	outPath      string
	peers        cli.StringList
	timeout      time.Duration
}

// getReport is the get subcommand's -json payload; it doubles as the
// summary embedded in the -metrics-out dump.
type getReport struct {
	cli.RunSummary
	Out         string `json:"out"`
	Algorithm   string `json:"algorithm"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

func getFlags(args []string) (getOptions, error) {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	var opts getOptions
	fs.StringVar(&opts.manifestPath, "manifest", "", "swarm manifest file (required)")
	fs.StringVar(&opts.outPath, "out", "", "where to write the downloaded file (required)")
	fs.Var(&opts.peers, "peer", "peer address to bootstrap from (repeatable, at least one)")
	fs.DurationVar(&opts.timeout, "timeout", 10*time.Minute, "give up after this long")
	opts.register(fs, 1)
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	switch {
	case opts.manifestPath == "":
		return opts, errors.New("get: -manifest is required")
	case opts.outPath == "":
		return opts, errors.New("get: -out is required")
	case len(opts.peers) == 0:
		return opts, errors.New("get: at least one -peer is required")
	}
	return opts, nil
}

func getMain(args []string, stdout io.Writer) error {
	opts, err := getFlags(args)
	if err != nil {
		return err
	}
	return runGet(opts, stdout)
}

// runGet joins the swarm, downloads, verifies, and writes the file.
func runGet(opts getOptions, stdout io.Writer) error {
	mechanism, err := algo.Parse(opts.algoName)
	if err != nil {
		return err
	}
	manifestFile, err := os.Open(opts.manifestPath)
	if err != nil {
		return err
	}
	manifest, err := piece.DecodeManifest(manifestFile)
	manifestFile.Close()
	if err != nil {
		return err
	}
	store := piece.NewStore(manifest)
	n, err := opts.newNode(mechanism, store, false, opts.peers)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	defer n.Stop()
	tel, err := startTelemetry(opts.telemetry, n, manifest.NumPieces())
	if err != nil {
		return err
	}
	defer tel.stop(nil) // runs before the deferred n.Stop

	if !opts.output.JSON {
		fmt.Fprintf(stdout, "downloading %d pieces (%v) from %d peer(s)\n",
			manifest.NumPieces(), mechanism, len(opts.peers))
		if tel.addr != "" {
			fmt.Fprintf(stdout, "telemetry on http://%s/metrics\n", tel.addr)
		}
	}
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	started := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opts.timeout)
	defer cancel()
	if err := n.WaitCompleteContext(ctx); err != nil {
		s := n.Stats()
		_ = tel.stop(nil) // keep the partial dump for diagnosing stalls
		return fmt.Errorf("download incomplete after %v (%w): %d/%d pieces", opts.timeout, err, s.Pieces, manifest.NumPieces())
	}
	wall := time.Since(started)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	content, err := store.Assemble()
	if err != nil {
		return err
	}
	if err := os.WriteFile(opts.outPath, content, 0o644); err != nil {
		return err
	}
	// Read the frame counters after Stop has drained the writers: at the
	// moment of completion the last announcements and receipt copies may
	// still be queued, and on a fast transfer that can be all of them. A
	// listener close error changes nothing once the file is written.
	_ = n.Stop()
	stats := n.Stats()
	summary := cli.NewRunSummary(len(content), manifest.NumPieces(), wall,
		stats.FramesSent, stats.FramesReceived, memAfter.Mallocs-memBefore.Mallocs)
	report := getReport{RunSummary: summary, Out: opts.outPath, Algorithm: mechanism.String(), MetricsAddr: tel.addr}
	if err := tel.stop(report); err != nil {
		return err
	}
	if opts.output.JSON {
		return cli.WriteJSON(stdout, report)
	}
	fmt.Fprintf(stdout, "downloaded and verified %d bytes in %v -> %s\n",
		len(content), wall.Round(time.Millisecond), opts.outPath)
	fmt.Fprintf(stdout, "  %.1f pieces/s, %.0f KB/s, %d frames out, %d frames in\n",
		summary.PiecesPerSec, summary.BytesPerSec/1024, summary.FramesSent, summary.FramesReceived)
	return nil
}

func waitForInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}
