// Package profiler is the continuous-profiling sampler: a single
// goroutine that captures rotating CPU and heap profiles into a bounded
// on-disk ring, so "what was the daemon doing when the p99 went red an
// hour ago" is answerable after the fact without having had a pprof
// session attached.  Because the serving paths run under runtime/pprof
// labels (acqserver workers carry stage/shard, gateway upstreams carry
// stage/backend), every captured CPU profile is already sliced by the
// fleet dimensions — `go tool pprof -tags` shows the split, `-tagfocus`
// ranks the functions inside one label value.
//
// Every interval a cycle captures one cpuDuration-long CPU profile
// (cpu-<unixnano>.pprof) and one heap snapshot (heap-<unixnano>.pprof),
// then prunes each kind beyond retain files — the same janitor stance as
// framelog's segment retention: disk use is bounded by construction, not
// by an operator remembering to clean up.
//
// Families registered here (see docs/OBSERVABILITY.md):
// profile_captures_total, profile_capture_errors_total.
package profiler

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// The capture cycle every Sampler runs.
const (
	// cpuDuration is the length of each CPU capture.
	cpuDuration = 10 * time.Second
	// interval is the period between capture-cycle starts.
	interval = 60 * time.Second
	// retain bounds the files kept per profile kind; the oldest beyond it
	// are deleted after each cycle.
	retain = 16
)

// Config wires a Sampler.
type Config struct {
	// Dir is the profile ring directory (required; created if absent).
	Dir string
	// Metrics, when non-nil, receives the profile_* families.
	Metrics *telemetry.Registry
	// Logger, when non-nil, receives capture lifecycle events.
	Logger *slog.Logger
}

// Sampler owns the profile ring.  Build with New, drive with Run.
type Sampler struct {
	dir      string
	captures map[string]*telemetry.Counter
	errors   map[string]*telemetry.Counter
	log      *slog.Logger
}

// profileKinds are the capture kinds and their metric label values.
var profileKinds = []string{"cpu", "heap"}

// New validates cfg, creates the ring directory, and builds the sampler.
func New(cfg Config) (*Sampler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiler: no directory configured")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	s := &Sampler{
		dir:      cfg.Dir,
		captures: map[string]*telemetry.Counter{},
		errors:   map[string]*telemetry.Counter{},
		log:      cfg.Logger,
	}
	for _, k := range profileKinds {
		l := telemetry.L("kind", k)
		s.captures[k] = cfg.Metrics.Counter("profile_captures_total", "profiles captured into the on-disk ring, per kind", l)
		s.errors[k] = cfg.Metrics.Counter("profile_capture_errors_total", "profile captures that failed, per kind", l)
	}
	return s, nil
}

// Run captures one cycle per interval until ctx is cancelled.  The first
// cycle starts immediately, so a short-lived process still leaves one
// profile behind.
func (s *Sampler) Run(ctx context.Context) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		s.cycle(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// cycle captures one CPU profile and one heap snapshot, then prunes.
func (s *Sampler) cycle(ctx context.Context) {
	now := time.Now().UnixNano()
	if err := s.captureCPU(ctx, filepath.Join(s.dir, fmt.Sprintf("cpu-%d.pprof", now))); err != nil {
		s.errors["cpu"].Inc()
		if s.log != nil {
			s.log.Warn("cpu profile capture failed", "err", err)
		}
	} else {
		s.captures["cpu"].Inc()
	}
	if err := s.captureHeap(filepath.Join(s.dir, fmt.Sprintf("heap-%d.pprof", now))); err != nil {
		s.errors["heap"].Inc()
		if s.log != nil {
			s.log.Warn("heap profile capture failed", "err", err)
		}
	} else {
		s.captures["heap"].Inc()
	}
	for _, kind := range profileKinds {
		s.prune(kind)
	}
}

// captureCPU records one cpuDuration-long CPU profile (cut short by ctx
// cancellation).  It fails when another CPU profile is
// already running — e.g. an operator hitting /debug/pprof/profile — which
// is counted and retried next cycle rather than fought over.
func (s *Sampler) captureCPU(ctx context.Context, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	select {
	case <-ctx.Done():
	case <-time.After(cpuDuration):
	}
	pprof.StopCPUProfile()
	return f.Close()
}

// captureHeap writes one heap snapshot in the compressed protobuf format.
func (s *Sampler) captureHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return err
	}
	return f.Close()
}

// prune deletes the oldest files of one kind beyond the newest retain.
// Filenames embed a fixed-width unix-nano stamp, so lexical order within
// one kind is age order.
func (s *Sampler) prune(kind string) {
	matches, err := filepath.Glob(filepath.Join(s.dir, kind+"-*.pprof"))
	if err != nil || len(matches) <= retain {
		return
	}
	sort.Strings(matches)
	for _, old := range matches[:len(matches)-retain] {
		if err := os.Remove(old); err == nil && s.log != nil {
			s.log.Debug("profile pruned", "path", old)
		}
	}
}
