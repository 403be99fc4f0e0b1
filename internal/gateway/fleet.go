// fleet.go: the gateway's fleet metrics rollup — /metrics/fleet.  The
// gateway is the only process that already knows every backend, so it is
// the natural place to answer "how is the whole cluster doing" in one
// scrape: a handler that polls each backend's /metrics.json (the URL is
// derived from the configured /readyz health URL), distills the families
// an operator triages by, and re-exposes them as gw_fleet_* gauges
// labeled by backend.  cmd/imstop's fleet mode renders exactly this
// endpoint as a one-screen cluster view (docs/OBSERVABILITY.md).
//
// Families served here (all gauges; the *_total names mirror the backend
// counters they sample): gw_fleet_up, gw_fleet_sessions,
// gw_fleet_frames_total, gw_fleet_shed_total, gw_fleet_queue_depth,
// gw_fleet_process_p99_ns, gw_fleet_health_status.
package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// fleetScrapeTimeout bounds one backend metrics scrape; a backend that
// cannot answer within it reports gw_fleet_up 0 rather than stalling the
// whole rollup.
const fleetScrapeTimeout = 2 * time.Second

// fleetBackendStats is the distilled per-backend view one scrape yields.
type fleetBackendStats struct {
	up           bool
	sessions     float64
	frames       float64
	shed         float64
	queueDepth   float64
	processP99Ns float64
	healthStatus float64
}

// MetricsURL derives a backend's metrics endpoint from its health URL:
// the daemon mounts /metrics and /readyz on the same mux, so trimming the
// readiness path and appending /metrics.json lands on the JSON scrape.
// Empty when no health URL is configured (the TCP-probe-only case).
func (b BackendConfig) MetricsURL() string {
	if b.HealthURL == "" {
		return ""
	}
	u := b.HealthURL
	if i := strings.LastIndexByte(u, '/'); i > len("https://") {
		u = u[:i]
	}
	return u + "/metrics.json"
}

// fleetFamilyFilter is the ?family= prefix list a fleet scrape requests:
// the rollup only distills acq_* and health_status, so the backend can
// skip serializing everything else (PR 10's per-sample scrape diet).
const fleetFamilyFilter = "acq_,health_"

// scrapeFleetBackend polls one backend's /metrics.json and distills it.
func scrapeFleetBackend(ctx context.Context, client *http.Client, url string) fleetBackendStats {
	var st fleetBackendStats
	if url == "" {
		return st
	}
	url += "?family=" + fleetFamilyFilter
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st
	}
	resp, err := client.Do(req)
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return st
	}
	st.up = true
	for _, m := range snap.Metrics {
		v := 0.0
		if m.Value != nil {
			v = *m.Value
		}
		switch m.Name {
		case "acq_sessions_active":
			st.sessions += v
		case "acq_frames_total":
			st.frames += v
		case "acq_shed_total":
			st.shed += v
		case "acq_queue_depth":
			st.queueDepth += v
		case "acq_stage_ns":
			if m.Labels["stage"] != "compute" {
				continue
			}
			// Prefer the rolling-window p99 (recent behaviour); fall back
			// to lifetime.  Across compute paths, report the worst.
			p := m.P99
			if m.WP99 > 0 {
				p = m.WP99
			}
			if p > st.processP99Ns {
				st.processP99Ns = p
			}
		case "health_status":
			st.healthStatus = v
		}
	}
	return st
}

// scrapeFleet polls every backend concurrently within the scrape timeout.
func (g *Gateway) scrapeFleet(ctx context.Context, client *http.Client) []fleetBackendStats {
	ctx, cancel := context.WithTimeout(ctx, fleetScrapeTimeout)
	defer cancel()
	stats := make([]fleetBackendStats, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			stats[i] = scrapeFleetBackend(ctx, client, url)
		}(i, b.cfg.MetricsURL())
	}
	wg.Wait()
	return stats
}

// publishFleet writes one scrape's distilled stats into reg as the
// gw_fleet_* gauge families, labeled by backend address.
func (g *Gateway) publishFleet(reg *telemetry.Registry, stats []fleetBackendStats) {
	for i, b := range g.backends {
		l := telemetry.L("backend", b.cfg.Addr)
		st := stats[i]
		reg.Gauge("gw_fleet_up", "backend metrics endpoint scrapeable (1) or not (0)", l).Set(boolGauge(st.up))
		if !st.up {
			continue
		}
		reg.Gauge("gw_fleet_sessions", "open client sessions on the backend", l).Set(st.sessions)
		reg.Gauge("gw_fleet_frames_total", "frames accepted by the backend (all compute paths)", l).Set(st.frames)
		reg.Gauge("gw_fleet_shed_total", "frames shed by the backend (all reasons)", l).Set(st.shed)
		reg.Gauge("gw_fleet_queue_depth", "queued frames on the backend (all shards)", l).Set(st.queueDepth)
		reg.Gauge("gw_fleet_process_p99_ns", "worst per-path p99 deconvolution latency on the backend, nanoseconds", l).Set(st.processP99Ns)
		reg.Gauge("gw_fleet_health_status", "backend overall health: 0 healthy, 1 degraded, 2 unhealthy", l).Set(st.healthStatus)
	}
}

// FleetHandler returns the /metrics/fleet endpoint: each request scrapes
// every configured backend concurrently (bounded by fleetScrapeTimeout),
// rolls the results into a scratch registry, and serves it in the same
// text/JSON exposition as every other metrics endpoint.
func (g *Gateway) FleetHandler() http.Handler {
	client := &http.Client{Timeout: fleetScrapeTimeout}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		reg := telemetry.NewRegistry()
		g.publishFleet(reg, g.scrapeFleet(req.Context(), client))
		reg.Handler().ServeHTTP(w, req)
	})
}

// RunFleetRecorder scrapes the fleet every interval and publishes the
// gw_fleet_* gauges into the gateway's own metrics registry (not a
// scratch one), so a history sampler on the gateway persists per-backend
// fleet series — cluster-wide history from one process.  No-op when the
// gateway has no metrics registry.  Runs until ctx is cancelled; call in
// a dedicated goroutine.
func (g *Gateway) RunFleetRecorder(ctx context.Context, interval time.Duration) {
	if g.cfg.Metrics == nil {
		return
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	client := &http.Client{Timeout: fleetScrapeTimeout}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.publishFleet(g.cfg.Metrics, g.scrapeFleet(ctx, client))
		}
	}
}
