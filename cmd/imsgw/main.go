// Command imsgw is the cluster gateway: an IMSP/2-speaking front tier
// that consistent-hashes client sessions over a fleet of imsd backends,
// proxies frames over pooled multiplexed upstream connections, retries
// shed or failed requests once on a sibling backend under a per-session
// budget, and drains backends out of its routing ring the moment their
// /readyz flips — so a rolling restart of one backend loses nothing
// beyond the declared shed budget (see docs/CLUSTER.md).
//
// Usage:
//
//	imsgw -backends ADDR[@READYZ_URL],ADDR[@READYZ_URL],...
//	      [-addr HOST:PORT] [-replicas N] [-pool N]
//	      [-probe-interval D] [-dial-timeout D] [-upstream-timeout D]
//	      [-retry-budget N] [-max-inflight N]
//	      [-read-timeout D] [-write-timeout D]
//	      [-drain-timeout D] [-drain-grace D] [-metrics ADDR]
//	      [-trace FILE] [-trace-slow D] [-trace-sample N] [-trace-ring N]
//	      [-events N] [-events-dump DIR] [-pprof ADDR]
//	      [-profile-dir DIR] [-profile-cpu D] [-profile-interval D]
//	      [-profile-retain K] [-history DIR] [-history-interval D]
//
// Each backend is named by its IMSP address, optionally followed by
// @URL pointing at its /readyz endpoint; without a URL the gateway
// probes by TCP dial.  With -metrics, an HTTP endpoint serves the gw_*
// telemetry families at /metrics (JSON at /metrics.json), the fleet
// rollup at /metrics/fleet (the gateway scrapes every backend's metrics
// and re-exposes the triage families as gw_fleet_* gauges labeled by
// backend — cmd/imstop -fleet renders it as a one-screen cluster view;
// it needs @READYZ_URL entries, since the metrics URL is derived from
// them), the gateway's span rings at /debug/traces, the wide-event
// flight recorder at /debug/events, /healthz liveness, and /readyz
// readiness — 503 while draining or while zero backends are on the
// routing ring, so a load balancer in front of several gateways can
// route around one that has lost its whole fleet.  -events, -events-dump,
// -pprof and the -profile-* flags behave exactly as on imsd: the two share
// them, and the life cycle below, through internal/daemon.
//
// With -history, the gateway persists sampled metric history exactly as
// imsd does (embedded tsdb, /metrics/history endpoint) — and, because a
// fleet recorder re-scrapes every backend every 10 s and publishes the
// gw_fleet_* gauges into the gateway's own registry,
// the stored history includes per-backend fleet series: one gateway
// history directory answers "how was backend X doing an hour ago" for
// the whole cluster (see docs/OBSERVABILITY.md).
//
// On SIGINT/SIGTERM the gateway flips
// /readyz, holds -drain-grace, stops accepting, lets in-flight proxied
// frames finish on their backends, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/gateway"
)

// fleetRecordInterval is how often the fleet recorder scrapes the backends
// into the gateway registry (only with -history, which persists it).
const fleetRecordInterval = 10 * time.Second

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imsgw: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	cfg := gateway.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:7070", "listen address for client sessions")
	backends := flag.String("backends", "", "comma-separated imsd fleet: ADDR or ADDR@READYZ_URL per backend")
	flag.IntVar(&cfg.Replicas, "replicas", cfg.Replicas, "virtual nodes per backend on the hash ring")
	flag.IntVar(&cfg.PoolSize, "pool", cfg.PoolSize, "multiplexed upstream connections per backend")
	flag.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "backend readiness poll period")
	flag.DurationVar(&cfg.DialTimeout, "dial-timeout", cfg.DialTimeout, "upstream dial bound")
	flag.DurationVar(&cfg.UpstreamTimeout, "upstream-timeout", cfg.UpstreamTimeout, "one proxied request bound (a retried request may take twice this)")
	flag.IntVar(&cfg.RetryBudget, "retry-budget", cfg.RetryBudget, "sibling retries one client session may consume (0 disables retries)")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", cfg.MaxInflight, "concurrently proxied frames per session before the read loop applies backpressure")
	flag.DurationVar(&cfg.ReadIdleTimeout, "read-timeout", cfg.ReadIdleTimeout, "per-message client read deadline")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "per-response client write deadline")
	shared := daemon.AddFlags(flag.CommandLine)
	flag.Parse()

	fleet, err := parseBackends(*backends)
	if err != nil {
		fail("%v", err)
	}
	cfg.Backends = fleet

	d, err := daemon.Start("imsgw", shared)
	if err != nil {
		fail("%v", err)
	}
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.Trace = d.Registry, d.Log, d.Flight, d.Tracer
	gw, err := gateway.New(cfg)
	if err != nil {
		fail("%v", err)
	}
	d.Mux.Handle("/metrics/fleet", gw.FleetHandler())

	// With metric history on, the fleet recorder scrapes the backends into
	// the gateway's own registry, so the sampler persists per-backend
	// gw_fleet_* series alongside the gateway's gw_* families.
	if d.Sampler != nil {
		go gw.RunFleetRecorder(context.Background(), fleetRecordInterval)
	}

	noBackends := func() (bool, string) { return gw.ReadyBackends() == 0, "no ready backends" }
	if err := d.Run(*addr, gw, nil, noBackends, daemon.Signals(),
		"backends", len(fleet), "replicas", cfg.Replicas, "pool", cfg.PoolSize,
		"retry_budget", cfg.RetryBudget); err != nil {
		fail("%v", err)
	}
}

// parseBackends splits the -backends flag: comma-separated entries, each
// ADDR or ADDR@READYZ_URL.
func parseBackends(s string) ([]gateway.BackendConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("no -backends given (want ADDR[@READYZ_URL],...)")
	}
	var out []gateway.BackendConfig
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		addr, healthURL, _ := strings.Cut(entry, "@")
		if addr == "" {
			return nil, fmt.Errorf("backend entry %q has no address", entry)
		}
		out = append(out, gateway.BackendConfig{Addr: addr, HealthURL: healthURL})
	}
	if len(out) == 0 {
		return nil, errors.New("no backends parsed from -backends")
	}
	return out, nil
}
