package profiler

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestSamplerCycleAndRetention(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	s, err := New(Config{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A full ring of older captures: every real cycle must push out the
	// oldest of each kind.
	for _, kind := range profileKinds {
		for i := 0; i < retain; i++ {
			stale := filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", kind, 1000+i))
			if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // each cycle's CPU capture ends at once
	const cycles = 2
	for i := 0; i < cycles; i++ {
		s.cycle(ctx)
		time.Sleep(time.Millisecond) // distinct unixnano stamps
	}
	for _, kind := range profileKinds {
		matches, _ := filepath.Glob(filepath.Join(dir, kind+"-*.pprof"))
		if len(matches) != retain {
			t.Fatalf("%s ring holds %d files after %d cycles, want %d: %v", kind, len(matches), cycles, retain, matches)
		}
		for i := 0; i < cycles; i++ {
			if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("%s-%d.pprof", kind, 1000+i))); !os.IsNotExist(err) {
				t.Fatalf("oldest %s capture %d survived retention", kind, i)
			}
		}
		for _, m := range matches[len(matches)-cycles:] {
			if fi, err := os.Stat(m); err != nil || fi.Size() == 0 {
				t.Fatalf("capture %s empty or unreadable: %v", m, err)
			}
		}
	}
	snap := reg.Snapshot()
	var captured float64
	for _, m := range snap.Metrics {
		if m.Name == "profile_captures_total" && m.Value != nil {
			captured += *m.Value
		}
	}
	if captured != 2*cycles {
		t.Fatalf("profile_captures_total sums to %v, want %d (%d cycles x 2 kinds)", captured, 2*cycles, cycles)
	}
}

func TestSamplerRunStopsOnCancel(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if len(matches) == 0 {
		t.Fatal("no profiles captured before cancel")
	}
}

func TestSamplerConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Dir must fail")
	}
}

func TestCaptureCPUConflict(t *testing.T) {
	// A competing CPU profile (an operator on /debug/pprof/profile) must
	// fail the cycle's CPU capture cleanly and leave no empty file behind.
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := os.Create(filepath.Join(dir, "blocker.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	if err := pprof.StartCPUProfile(blocker); err != nil {
		t.Skipf("cannot start blocking profile: %v", err)
	}
	defer pprof.StopCPUProfile()
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", time.Now().UnixNano()))
	if err := s.captureCPU(context.Background(), path); err == nil {
		t.Fatal("captureCPU succeeded while another CPU profile was running")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed capture left %s behind", path)
	}
}

// TestHeapRingReadsBackWithGoToolPprof: a capture cycle leaves a heap
// snapshot in the ring that `go tool pprof -top` summarizes offline, with
// no binary and no live process.
func TestHeapRingReadsBackWithGoToolPprof(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	dir := t.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the cycle's CPU capture ends at once
	s.cycle(ctx)
	heaps, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	if len(heaps) != 1 {
		t.Fatalf("%d heap captures in the ring, want 1", len(heaps))
	}
	out, err := exec.Command(goTool, "tool", "pprof", "-top", "-nodecount=3", heaps[0]).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("flat%")) {
		t.Fatalf("go tool pprof -top %s: %v\n%s", heaps[0], err, out)
	}
}
