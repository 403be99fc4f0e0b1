package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestMetricsURLDerivation(t *testing.T) {
	cases := []struct {
		health, want string
	}{
		{"", ""},
		{"http://10.0.0.1:9090/readyz", "http://10.0.0.1:9090/metrics.json"},
		{"https://ims-3.prod:9090/readyz", "https://ims-3.prod:9090/metrics.json"},
		{"http://localhost:9090", "http://localhost:9090/metrics.json"},
	}
	for _, c := range cases {
		if got := (BackendConfig{HealthURL: c.health}).MetricsURL(); got != c.want {
			t.Errorf("MetricsURL(%q) = %q, want %q", c.health, got, c.want)
		}
	}
}

// fakeMetricsBackend serves a realistic imsd metrics surface: a registry
// with the families the fleet rollup distills, behind /metrics.json and a
// 200 /readyz for the gateway's probes.
func fakeMetricsBackend(t *testing.T) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.Gauge("acq_sessions_active", "").Set(3)
	reg.Counter("acq_frames_total", "", telemetry.L("path", "hybrid")).Add(100)
	reg.Counter("acq_frames_total", "", telemetry.L("path", "cpu")).Add(20)
	reg.Counter("acq_shed_total", "", telemetry.L("reason", "queue_full")).Add(7)
	reg.Gauge("acq_queue_depth", "", telemetry.L("shard", "0")).Set(2)
	reg.Gauge("acq_queue_depth", "", telemetry.L("shard", "1")).Set(5)
	reg.Gauge("health_status", "").Set(1)
	h := reg.Histogram("acq_stage_ns", "", telemetry.L("path", "hybrid"), telemetry.L("stage", "compute"))
	reg.Histogram("acq_stage_ns", "", telemetry.L("path", "hybrid"), telemetry.L("stage", "roundtrip")).Observe(1e9)
	for i := 0; i < 100; i++ {
		h.Observe(1e6)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics.json", reg.Handler())
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFleetHandlerRollup(t *testing.T) {
	up := fakeMetricsBackend(t)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusBadGateway)
	}))
	t.Cleanup(down.Close)

	cfg := testGwConfig("10.0.0.1:1", "10.0.0.2:1")
	cfg.Backends[0].HealthURL = up.URL + "/readyz"
	cfg.Backends[1].HealthURL = down.URL + "/readyz"
	gw, _ := startGateway(t, cfg)

	rec := httptest.NewRecorder()
	gw.FleetHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/fleet?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]float64{} // family -> backend -> value
	for _, m := range snap.Metrics {
		if m.Value == nil {
			continue
		}
		if got[m.Name] == nil {
			got[m.Name] = map[string]float64{}
		}
		got[m.Name][m.Labels["backend"]] = *m.Value
	}

	if got["gw_fleet_up"]["10.0.0.1:1"] != 1 || got["gw_fleet_up"]["10.0.0.2:1"] != 0 {
		t.Fatalf("gw_fleet_up = %v", got["gw_fleet_up"])
	}
	want := map[string]float64{
		"gw_fleet_sessions":      3,
		"gw_fleet_frames_total":  120, // summed across paths
		"gw_fleet_shed_total":    7,
		"gw_fleet_queue_depth":   7, // summed across shards
		"gw_fleet_health_status": 1,
	}
	for fam, v := range want {
		if got[fam]["10.0.0.1:1"] != v {
			t.Errorf("%s[up backend] = %v, want %v", fam, got[fam]["10.0.0.1:1"], v)
		}
		if _, present := got[fam]["10.0.0.2:1"]; present {
			t.Errorf("%s present for the down backend", fam)
		}
	}
	if p99 := got["gw_fleet_process_p99_ns"]["10.0.0.1:1"]; p99 <= 0 || p99 > 2e6 {
		t.Errorf("gw_fleet_process_p99_ns = %v, want the compute stage's 1 ms within its bucket", p99)
	}

	// The text exposition serves the same families for scrape tooling.
	rec = httptest.NewRecorder()
	gw.FleetHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("text exposition status %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "gw_fleet_up") {
		t.Fatalf("text exposition lacks gw_fleet_up:\n%s", body)
	}
}

func TestFleetRecorderPersistsIntoRegistry(t *testing.T) {
	// A backend that records which ?family= filter the scrape requested.
	var gotFamily atomic.Value
	reg := telemetry.NewRegistry()
	reg.Gauge("acq_sessions_active", "").Set(2)
	reg.Gauge("health_status", "").Set(0)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		gotFamily.Store(r.URL.Query().Get("family"))
		reg.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := testGwConfig("10.0.0.9:1")
	cfg.Backends[0].HealthURL = ts.URL + "/readyz"
	gw, _ := startGateway(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		gw.RunFleetRecorder(ctx, 5*time.Millisecond)
	}()

	// Within a few recorder ticks the gateway's OWN registry — the one a
	// history sampler diffs — carries the per-backend fleet gauges.
	deadline := time.Now().Add(3 * time.Second)
	for {
		snap := cfg.Metrics.Snapshot()
		up, sessions := -1.0, -1.0
		for _, m := range snap.Metrics {
			if m.Labels["backend"] != "10.0.0.9:1" || m.Value == nil {
				continue
			}
			switch m.Name {
			case "gw_fleet_up":
				up = *m.Value
			case "gw_fleet_sessions":
				sessions = *m.Value
			}
		}
		if up == 1 && sessions == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet gauges never landed in the gateway registry (up=%v sessions=%v)", up, sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	// The scrape asked the backend for only the families the rollup reads.
	if f, _ := gotFamily.Load().(string); f != fleetFamilyFilter {
		t.Fatalf("scrape family filter = %q, want %q", f, fleetFamilyFilter)
	}

	// A registry-less gateway must treat the recorder as a no-op rather
	// than publish into nil.
	cfg2 := testGwConfig("10.0.0.9:1")
	cfg2.Metrics = nil
	gw2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = gw2.Shutdown(ctx)
	}()
	recDone := make(chan struct{})
	go func() { defer close(recDone); gw2.RunFleetRecorder(context.Background(), time.Millisecond) }()
	select {
	case <-recDone:
	case <-time.After(2 * time.Second):
		t.Fatal("RunFleetRecorder with nil registry did not return immediately")
	}
}
