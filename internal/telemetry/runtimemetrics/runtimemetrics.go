// Package runtimemetrics exports the Go runtime's health signals — heap
// and GC state, goroutine and scheduler pressure — plus process start time
// and build identity into a telemetry.Registry, so every scrape of a
// long-running daemon (cmd/imsd) answers "what is the process itself
// doing" alongside the application families.
//
// The collector is scrape-time: Register hooks the registry's OnSnapshot
// callback, so the runtime is only interrogated when someone reads the
// metrics (runtime.ReadMemStats briefly stops the world — paying that on
// every frame would be absurd; paying it per scrape is noise).  The
// process_start_time_seconds and build_info families are resolved once at
// Register and never change.
//
// Families (all gauges; see docs/OBSERVABILITY.md for the catalogue):
//
//	go_goroutines                    live goroutine count
//	go_gomaxprocs                    scheduler width
//	go_heap_alloc_bytes              live heap bytes
//	go_heap_sys_bytes                heap bytes held from the OS
//	go_heap_objects                  live heap object count
//	go_total_alloc_bytes             cumulative bytes ever allocated
//	go_next_gc_bytes                 heap size that triggers the next GC
//	go_gc_cycles_total               completed GC cycles
//	go_gc_pause_ns_total             cumulative stop-the-world pause time
//	go_gc_last_pause_ns              duration of the most recent pause
//	go_gc_cpu_fraction               fraction of CPU spent in GC since start
//	process_start_time_seconds       Unix time the process started
//	process_uptime_seconds           seconds since start
//	build_info{...} = 1              version / commit / go_version / modified
package runtimemetrics

import (
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/telemetry"
)

// start is the collector's notion of process start, captured at init.
var start = time.Now()

// collector bundles the resolved gauge handles refreshed on every scrape.
type collector struct {
	goroutines  *telemetry.Gauge
	gomaxprocs  *telemetry.Gauge
	heapAlloc   *telemetry.Gauge
	heapSys     *telemetry.Gauge
	heapObjects *telemetry.Gauge
	totalAlloc  *telemetry.Gauge
	nextGC      *telemetry.Gauge
	gcCycles    *telemetry.Gauge
	gcPauseNs   *telemetry.Gauge
	gcLastPause *telemetry.Gauge
	gcCPUFrac   *telemetry.Gauge
	uptime      *telemetry.Gauge
}

// Register resolves the runtime, process and build-info families on reg
// and hooks a scrape-time refresh via reg.OnSnapshot.  It is safe (and a
// complete no-op) on a nil registry, and idempotent in effect — calling it
// twice just refreshes the same gauge instances twice per scrape.
func Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c := &collector{
		goroutines:  reg.Gauge("go_goroutines", "live goroutines"),
		gomaxprocs:  reg.Gauge("go_gomaxprocs", "scheduler width (GOMAXPROCS)"),
		heapAlloc:   reg.Gauge("go_heap_alloc_bytes", "live heap bytes"),
		heapSys:     reg.Gauge("go_heap_sys_bytes", "heap bytes obtained from the OS"),
		heapObjects: reg.Gauge("go_heap_objects", "live heap objects"),
		totalAlloc:  reg.Gauge("go_total_alloc_bytes", "cumulative bytes allocated since start"),
		nextGC:      reg.Gauge("go_next_gc_bytes", "heap size at which the next GC triggers"),
		gcCycles:    reg.Gauge("go_gc_cycles_total", "completed GC cycles"),
		gcPauseNs:   reg.Gauge("go_gc_pause_ns_total", "cumulative GC stop-the-world pause, nanoseconds"),
		gcLastPause: reg.Gauge("go_gc_last_pause_ns", "most recent GC pause, nanoseconds"),
		gcCPUFrac:   reg.Gauge("go_gc_cpu_fraction", "fraction of available CPU spent in GC since start"),
		uptime:      reg.Gauge("process_uptime_seconds", "seconds since process start"),
	}
	reg.Gauge("process_start_time_seconds", "Unix time the process started").
		Set(float64(start.UnixNano()) / 1e9)
	goVersion, revision, modified := buildIdentity()
	commit := buildinfo.Commit
	if commit == "unknown" && revision != "unknown" {
		commit = revision // toolchain VCS stamping beats no stamping at all
	}
	reg.Gauge("build_info", "release identity stamped at link time; value is always 1",
		telemetry.L("version", buildinfo.Version),
		telemetry.L("commit", commit),
		telemetry.L("go_version", goVersion),
		telemetry.L("modified", modified)).Set(1)
	reg.OnSnapshot(c.refresh)
}

// refresh re-reads the runtime into the gauges; runs once per scrape.
func (c *collector) refresh() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.goroutines.Set(float64(runtime.NumGoroutine()))
	c.gomaxprocs.Set(float64(runtime.GOMAXPROCS(0)))
	c.heapAlloc.Set(float64(ms.HeapAlloc))
	c.heapSys.Set(float64(ms.HeapSys))
	c.heapObjects.Set(float64(ms.HeapObjects))
	c.totalAlloc.Set(float64(ms.TotalAlloc))
	c.nextGC.Set(float64(ms.NextGC))
	c.gcCycles.Set(float64(ms.NumGC))
	c.gcPauseNs.Set(float64(ms.PauseTotalNs))
	if ms.NumGC > 0 {
		c.gcLastPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
	c.gcCPUFrac.Set(ms.GCCPUFraction)
	c.uptime.Set(time.Since(start).Seconds())
}

// buildIdentity extracts the Go version and VCS revision from the binary's
// embedded build info, degrading to "unknown" when the binary was built
// without VCS stamping (go test, go run).
func buildIdentity() (goVersion, revision, modified string) {
	goVersion = runtime.Version()
	revision, modified = "unknown", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return goVersion, revision, modified
	}
	if info.GoVersion != "" {
		goVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			if s.Value != "" {
				revision = s.Value
			}
		case "vcs.modified":
			if s.Value != "" {
				modified = s.Value
			}
		}
	}
	return goVersion, revision, modified
}
