package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStringList(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var peers StringList
	fs.Var(&peers, "peer", "repeatable")
	if err := fs.Parse([]string{"-peer", "a:1", "-peer", "b:2"}); err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != "a:1" || peers[1] != "b:2" {
		t.Errorf("peers = %v", peers)
	}
	if s := peers.String(); !strings.Contains(s, "a:1") {
		t.Errorf("String() = %q", s)
	}
}

func TestScaleFlagsDefaultsAndOverride(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := DefaultScale()
	s.Register(fs)
	if err := fs.Parse([]string{"-peers", "60", "-horizon", "600"}); err != nil {
		t.Fatal(err)
	}
	if s.Peers != 60 || s.Horizon != 600 {
		t.Errorf("overrides not applied: %+v", s)
	}
	if s.Pieces != 128 || s.Seed != 1 {
		t.Errorf("defaults not preserved: %+v", s)
	}
}

// TestScaleFlagsRejectShards pins that the removed -shards flag fails
// loudly: a stale script must not silently run without it.
func TestScaleFlagsRejectShards(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := DefaultScale()
	s.Register(fs)
	err := fs.Parse([]string{"-shards", "2"})
	if err == nil || !strings.Contains(err.Error(), "not defined: -shards") {
		t.Errorf("Parse(-shards 2) = %v, want an unknown-flag error", err)
	}
}

func TestReplicationAndOutputFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	r := ReplicationFlags{Reps: 1}
	r.Register(fs)
	var o OutputFlags
	o.Register(fs)
	if err := fs.Parse([]string{"-reps", "8", "-workers", "2", "-json", "-out", "artifacts"}); err != nil {
		t.Fatal(err)
	}
	if r.Reps != 8 || r.Workers != 2 {
		t.Errorf("replication flags: %+v", r)
	}
	if !o.JSON || o.Dir != "artifacts" {
		t.Errorf("output flags: %+v", o)
	}
}

func TestRegisterJSONOmitsOut(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o OutputFlags
	o.RegisterJSON(fs)
	if err := fs.Parse([]string{"-json"}); err != nil {
		t.Fatal(err)
	}
	if !o.JSON {
		t.Error("-json not applied")
	}
	if err := fs.Parse([]string{"-out", "x"}); err == nil {
		t.Error("-out accepted by RegisterJSON")
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, map[string]int{"runs": 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"runs\": 3") {
		t.Errorf("output = %q", sb.String())
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	p := ProfileFlags{
		CPUPath: filepath.Join(dir, "cpu.pprof"),
		MemPath: filepath.Join(dir, "mem.pprof"),
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to write.
	x := 0
	for i := 0; i < 1<<20; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUPath, p.MemPath} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestProfileFlagsInactive(t *testing.T) {
	var p ProfileFlags
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestPhases(t *testing.T) {
	var p Phases
	if err := p.Run("setup", func() error { time.Sleep(time.Millisecond); return nil }); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	if err := p.Run("run", func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error not passed through: %v", err)
	}
	if p.Len() != 2 || len(p.Entries()) != 2 {
		t.Fatalf("Len() = %d", p.Len())
	}
	if p.Total() <= 0 {
		t.Error("Total() not positive")
	}
	var sb strings.Builder
	p.Report(&sb)
	out := sb.String()
	for _, want := range []string{"phase wall-clock breakdown", "setup", "run", "total", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var empty Phases
	var sb2 strings.Builder
	empty.Report(&sb2)
	if sb2.Len() != 0 {
		t.Error("empty Phases rendered a report")
	}
}

func TestPhasesWriteJSON(t *testing.T) {
	p := Phases{entries: []Phase{{"table1", 2 * time.Millisecond}, {"figure2", time.Millisecond}}}
	var sb strings.Builder
	if err := p.WriteJSON(&sb, "artifacts"); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Artifacts []struct {
			Name   string  `json:"name"`
			WallMS float64 `json:"wall_ms"`
		} `json:"artifacts"`
		TotalMS float64 `json:"total_ms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("%v:\n%s", err, sb.String())
	}
	if len(got.Artifacts) != 2 || got.Artifacts[0].Name != "table1" || got.Artifacts[0].WallMS != 2 || got.TotalMS != 3 {
		t.Errorf("summary = %+v", got)
	}
}

func TestNewRunSummaryRates(t *testing.T) {
	s := NewRunSummary(2048, 4, 2*time.Second, 10, 20, 99)
	if s.Bytes != 2048 || s.Pieces != 4 || s.FramesSent != 10 || s.FramesReceived != 20 || s.AllocObjects != 99 {
		t.Fatalf("raw counters wrong: %+v", s)
	}
	if s.WallMS != 2000 {
		t.Errorf("WallMS = %g, want 2000", s.WallMS)
	}
	if s.PiecesPerSec != 2 {
		t.Errorf("PiecesPerSec = %g, want 2", s.PiecesPerSec)
	}
	if s.BytesPerSec != 1024 {
		t.Errorf("BytesPerSec = %g, want 1024", s.BytesPerSec)
	}
}

func TestNewRunSummaryZeroWallStaysFinite(t *testing.T) {
	s := NewRunSummary(100, 1, 0, 0, 0, 0)
	if s.PiecesPerSec != 0 || s.BytesPerSec != 0 {
		t.Errorf("zero-duration rates = %g, %g; want 0, 0", s.PiecesPerSec, s.BytesPerSec)
	}
}
