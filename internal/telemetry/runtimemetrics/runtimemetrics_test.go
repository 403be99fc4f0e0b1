package runtimemetrics

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// runtimeFamilies is the catalogue contract: every scrape of a registered
// registry must carry these families.
var runtimeFamilies = []string{
	"go_goroutines",
	"go_gomaxprocs",
	"go_heap_alloc_bytes",
	"go_heap_sys_bytes",
	"go_heap_objects",
	"go_total_alloc_bytes",
	"go_next_gc_bytes",
	"go_gc_cycles_total",
	"go_gc_pause_ns_total",
	"go_gc_cpu_fraction",
	"process_start_time_seconds",
	"process_uptime_seconds",
	"build_info",
}

func TestRegisterExportsRuntimeFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	Register(reg)
	s := reg.Snapshot()
	byName := map[string]telemetry.Metric{}
	for _, m := range s.Metrics {
		byName[m.Name] = m
	}
	for _, name := range runtimeFamilies {
		m, ok := byName[name]
		if !ok {
			t.Errorf("family %s missing from snapshot", name)
			continue
		}
		if m.Kind != "gauge" {
			t.Errorf("family %s kind %q, want gauge", name, m.Kind)
		}
	}
	if m := byName["go_goroutines"]; m.Value == nil || *m.Value < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", m.Value)
	}
	if m := byName["go_heap_alloc_bytes"]; m.Value == nil || *m.Value <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v, want > 0", m.Value)
	}
	if m := byName["process_start_time_seconds"]; m.Value == nil || *m.Value <= 0 {
		t.Errorf("process_start_time_seconds = %v, want > 0", m.Value)
	}
	if _, ok := byName["go_build_info"]; ok {
		t.Error("go_build_info is registered beside build_info")
	}
	bi := byName["build_info"]
	if bi.Value == nil || *bi.Value != 1 {
		t.Errorf("build_info value = %v, want 1", bi.Value)
	}
	for _, label := range []string{"version", "commit", "go_version", "modified"} {
		if bi.Labels[label] == "" {
			t.Errorf("build_info label %s empty", label)
		}
	}
	if !strings.HasPrefix(bi.Labels["go_version"], "go") && !strings.HasPrefix(bi.Labels["go_version"], "devel") {
		t.Errorf("go_version label %q does not look like a Go version", bi.Labels["go_version"])
	}
}

// TestGoldenRuntimeExposition is the golden test for the runtime families'
// shape on the wire: every family appears with a # TYPE gauge header in
// the Prometheus exposition.
func TestGoldenRuntimeExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range runtimeFamilies {
		if !strings.Contains(out, "# TYPE "+name+" gauge") {
			t.Errorf("exposition missing TYPE header for %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, `build_info{`) {
		t.Errorf("exposition missing labeled build_info:\n%s", out)
	}
}

func TestScrapeRefreshesGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	Register(reg)
	read := func() float64 {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == "process_uptime_seconds" {
				return *m.Value
			}
		}
		t.Fatal("process_uptime_seconds missing")
		return 0
	}
	first := read()
	second := read()
	if second < first {
		t.Errorf("uptime went backwards: %g then %g", first, second)
	}
	if first <= 0 {
		t.Errorf("uptime = %g, want > 0", first)
	}
}

func TestRegisterNilRegistry(t *testing.T) {
	Register(nil) // must not panic
}
