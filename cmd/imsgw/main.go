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
//	      [-addr HOST:PORT] [-drain-timeout D] [-drain-grace D]
//	      [-metrics ADDR] [-pprof ADDR] [-trace FILE] [-events-dump DIR]
//	      [-profile-dir DIR] [-history DIR]
//
// Each backend is named by its IMSP address, optionally followed by
// @URL pointing at its /readyz endpoint; without a URL the gateway
// probes by TCP dial.  The routing and proxy tuning — virtual nodes,
// pool size, probe period, dial and upstream bounds, retry budget,
// in-flight cap, session deadlines — is fixed in package gateway.
//
// With -metrics, an HTTP endpoint serves the gw_* telemetry families at
// /metrics (JSON at /metrics.json), the fleet rollup at /metrics/fleet
// (the gateway scrapes every backend's metrics and re-exposes the triage
// families as gw_fleet_* gauges labeled by backend — cmd/imstop -fleet
// renders it as a one-screen cluster view;
// it needs @READYZ_URL entries, since the metrics URL is derived from
// them), the gateway's trace ring at /debug/traces, the wide-event
// flight recorder at /debug/events, /healthz liveness, and /readyz
// readiness — 503 while draining or while zero backends are on the
// routing ring, so a load balancer in front of several gateways can
// route around one that has lost its whole fleet.  -events-dump, -pprof,
// -trace and -profile-dir behave exactly as on imsd: the two share them,
// and the life cycle below, through internal/daemon.
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
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/gateway"
)

// fleetRecordInterval is how often the fleet recorder scrapes the backends
// into the gateway registry (only with -history, which persists it).
const fleetRecordInterval = 10 * time.Second

func main() { daemon.Main("imsgw", run) }

// run is imsgw: it parses args, proxies until a signal arrives on sigc,
// and returns nil on a clean drain.  The log goes to stdout, the usage to
// stderr.
func run(args []string, sigc <-chan os.Signal, stdout, stderr io.Writer) error {
	cfg := gateway.DefaultConfig()
	fs := flag.NewFlagSet("imsgw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address for client sessions")
	backends := fs.String("backends", "", "comma-separated imsd fleet: ADDR or ADDR@READYZ_URL per backend")
	shared, err := daemon.Parse(fs, args)
	if err != nil {
		return err
	}
	if cfg.Backends, err = parseBackends(*backends); err != nil {
		return err
	}

	d, err := daemon.Start("imsgw", shared, stdout)
	if err != nil {
		return err
	}
	defer d.Close()
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.Trace = d.Registry, d.Log, d.Flight, d.Tracer
	gw, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	d.Mux.Handle("/metrics/fleet", gw.FleetHandler())

	// With metric history on, the fleet recorder scrapes the backends into
	// the gateway's own registry, so the sampler persists per-backend
	// gw_fleet_* series alongside the gateway's gw_* families.
	if d.Sampler != nil {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go gw.RunFleetRecorder(ctx, fleetRecordInterval)
	}

	noBackends := func() (bool, string) { return gw.ReadyBackends() == 0, "no ready backends" }
	return d.Run(*addr, gw, nil, noBackends, sigc, "backends", len(cfg.Backends))
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
