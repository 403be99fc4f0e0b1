// Command imsd is the frame-acquisition daemon: it serves the IMSP
// protocol over TCP, feeding frames from many concurrent clients through
// sharded worker pools running the modeled hybrid FPGA offload or the CPU
// path, one transform of a frame's row sums (see docs/SERVING.md for the
// protocol and backpressure semantics).
//
// Usage:
//
//	imsd [-addr HOST:PORT] [-shards N] [-depth N] [-workers N]
//	     [-order N] [-max-tof N] [-coalesce-window D] [-slo-latency D]
//	     [-framelog DIR] [-framelog-fsync always|interval|none]
//	     [-drain-timeout D] [-drain-grace D] [-metrics ADDR] [-pprof ADDR]
//	     [-trace FILE] [-events-dump DIR] [-profile-dir DIR] [-history DIR]
//
// With -framelog, every accepted frame is appended to a durable,
// segmented, CRC-verified write-ahead log before it is enqueued, and on
// startup any records past the last-completed watermark are re-enqueued
// through the same worker pools (crash recovery).  Under -framelog-fsync
// always an acknowledged frame survives power loss; under interval (a
// sync every 50 ms) or none, results carry a not-durable flag instead.
// Segments rotate at 64 MiB and the newest walRetainSegments sealed ones
// are kept.  See docs/DURABILITY.md for the format, the fsync trade-offs,
// and the replay runbook.
//
// With -metrics, an HTTP endpoint serves the acq_* families (Prometheus
// text at /metrics, JSON with rolling 60-second quantiles at
// /metrics.json), the trace ring at /debug/traces, the wide-event flight
// recorder at /debug/events, net/http/pprof, /healthz and /readyz (503
// while draining or while an SLO budget burns UNHEALTHY).  Three SLOs are
// evaluated every healthInterval: frame latency (99 % under -slo-latency),
// shed rate (5 %) and error rate (1 %); while health is DEGRADED or worse
// the daemon sheds at half queue depth.  -events-dump, -pprof, -trace,
// -profile-dir, -history and the signal → grace → drain life cycle are
// shared with imsgw through internal/daemon, whose package doc lists how
// each surface is tuned; see docs/OBSERVABILITY.md.
//
// With -history, an EWMA+MAD anomaly detector (tsdb.AnomalyThreshold and
// the detector's other constants) also watches frame-latency p99 and shed
// spikes over the sampled history; an active episode turns the matching
// anomaly_* SLO DEGRADED, which sheds earlier and trips the
// flight-recorder dump.
//
// With -coalesce-window, CPU-path frames from different sessions that
// land on the same shard are gathered: a worker waits up to the window (or
// until acqserver.Config.CoalesceFillTarget frames arrive), then serves
// the gathered frames one after another, each checked against its own
// deadline just before its compute (see docs/PERFORMANCE.md).  Session
// read and write deadlines are acqserver.DefaultConfig's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/acqserver"
	"repro/internal/butterfly"
	"repro/internal/daemon"
	"repro/internal/framelog"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/tsdb"
)

// What imsd fixes rather than takes as a flag: the SLO evaluation period
// and how many sealed frame-log segments the janitor keeps.
const (
	healthInterval    = 5 * time.Second
	walRetainSegments = 16
)

func main() { daemon.Main("imsd", run) }

// run is imsd: it parses args, serves until a signal arrives on sigc, and
// returns nil on a clean drain.  The log goes to stdout, the usage to
// stderr.
func run(args []string, sigc <-chan os.Signal, stdout, stderr io.Writer) error {
	cfg := acqserver.DefaultConfig()
	fs := flag.NewFlagSet("imsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7071", "listen address")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "independent bounded work queues")
	fs.IntVar(&cfg.QueueDepth, "depth", cfg.QueueDepth, "frames queued per shard before shedding")
	fs.IntVar(&cfg.WorkersPerShard, "workers", cfg.WorkersPerShard, "worker goroutines per shard")
	fs.IntVar(&cfg.Order, "order", cfg.Order, "m-sequence order served (frames need 2^order-1 drift bins)")
	fs.IntVar(&cfg.MaxTOFBins, "max-tof", cfg.MaxTOFBins, "largest accepted m/z axis")
	fs.DurationVar(&cfg.CoalesceWindow, "coalesce-window", cfg.CoalesceWindow, "gather CPU-path frames across sessions for up to this long per batch (0 disables)")
	sloLatency := fs.Duration("slo-latency", 250*time.Millisecond, "frame-latency SLO threshold (rounds up to the enclosing power-of-two bucket)")
	walDir := fs.String("framelog", "", "append every accepted frame to a durable frame log in this directory (see docs/DURABILITY.md)")
	walFsync := fs.String("framelog-fsync", "interval", "frame-log fsync policy: always, interval, or none")
	shared, err := daemon.Parse(fs, args)
	if err != nil {
		return err
	}

	d, err := daemon.Start("imsd", shared, stdout)
	if err != nil {
		return err
	}
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log, reg := d.Log, d.Registry
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.Trace = reg, log, d.Flight, d.Tracer

	eval := buildEvaluator(reg, *sloLatency, d.Flight, log)
	cfg.DegradedMode = func() bool { return eval.Status() >= health.Degraded }
	watchAnomalies(d, eval)

	var wal *framelog.Log
	if *walDir != "" {
		policy, err := framelog.ParseFsyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		wcfg := framelog.DefaultConfig(*walDir)
		wcfg.Fsync = policy
		wcfg.RetainSegments = walRetainSegments
		wcfg.Metrics = reg
		wcfg.Trace = d.Tracer
		wcfg.Logger = log
		wal, err = framelog.Open(wcfg)
		if err != nil {
			return fmt.Errorf("framelog: %w", err)
		}
		info := wal.RecoveryInfo()
		log.Info("framelog recovered",
			"dir", *walDir, "fsync", policy.String(),
			"records", info.Records, "segments", info.Segments,
			"first_seq", info.FirstSeq, "last_seq", info.LastSeq,
			"watermark", info.Watermark, "pending", info.Pending,
			"truncated_bytes", info.TruncatedBytes)
		cfg.FrameLog = wal
	}

	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		return err
	}
	if wal != nil {
		go func() {
			n, err := srv.RecoverFrames(ctx)
			if err != nil {
				log.Error("framelog replay stopped", "enqueued", n, "err", err)
				return
			}
			if n > 0 {
				log.Info("framelog replay enqueued", "frames", n)
			}
		}()
	}

	go eval.Run(ctx, healthInterval)

	return d.Run(*addr, srv, eval, nil, sigc,
		"order", cfg.Order, "shards", cfg.Shards, "depth", cfg.QueueDepth,
		"workers_per_shard", cfg.WorkersPerShard, "fwht_backend", butterfly.Backend())
}

// watchAnomalies wires an EWMA+MAD anomaly detector over the stored metric
// history into eval as anomaly SLOs (active episode => DEGRADED =>
// flight-recorder dump via OnTransition, earlier shedding via
// DegradedMode).  Without -history there is no stored history to watch.
func watchAnomalies(d *daemon.Daemon, eval *health.Evaluator) {
	if d.Sampler == nil {
		return
	}
	detector := tsdb.NewDetector(tsdb.DetectorConfig{
		Targets: []tsdb.Target{
			{Name: "frame_latency_p99", Family: "acq_process_ns", Quantile: 0.99},
			{Name: "shed_spike", Family: "acq_shed_total"},
		},
		Metrics: d.Registry,
	}, d.History)
	detector.WarmupFromStore()
	d.Sampler.OnSample(detector.Observe)
	for _, name := range detector.TargetNames() {
		target := name
		eval.AddAnomaly(health.AnomalySLO{
			Name: "anomaly_" + target,
			Source: func() (float64, bool, string) {
				score, active, reason := detector.Status(target)
				return score / tsdb.AnomalyThreshold, active, reason
			},
		})
	}
}

// buildEvaluator declares the daemon's three SLOs over the same telemetry
// instances the acquisition server updates — the registry hands back the
// identical handle for a given family name and label set, so nothing
// internal to acqserver needs exporting.  Every slide into DEGRADED or
// worse trips a flight-recorder black-box dump: the ring's last N wide
// events are exactly the requests that burned the budget.
func buildEvaluator(reg *telemetry.Registry, latency time.Duration, flight *flightrec.Recorder, log *slog.Logger) *health.Evaluator {
	e := health.New(health.Config{
		Metrics: reg,
		OnTransition: func(from, to health.Status, rep health.Report) {
			log.Warn("health status changed", "from", from.String(), "to", to.String())
			if to >= health.Degraded {
				if path, err := flight.Dump(to.String()); err != nil {
					log.Error("flight recorder dump failed", "err", err)
				} else if path != "" {
					log.Info("flight recorder dumped", "reason", to.String(), "path", path)
				}
			}
		},
	})

	e.AddLatency(health.LatencySLO{
		Name: "frame_latency",
		Hists: []*telemetry.Histogram{
			reg.Histogram("acq_process_ns", "deconvolution wall time per compute path, nanoseconds", telemetry.L("path", "hybrid")),
			reg.Histogram("acq_process_ns", "deconvolution wall time per compute path, nanoseconds", telemetry.L("path", "cpu")),
		},
		ThresholdNs: float64(latency.Nanoseconds()),
		Target:      0.99, // of frames must process under -slo-latency
	})

	var sheds, frames []*telemetry.Counter
	for _, r := range []string{"queue_full", "draining", "degraded"} {
		sheds = append(sheds, reg.Counter("acq_shed_total", "frames rejected by load shedding, per reason", telemetry.L("reason", r)))
	}
	for _, p := range []string{"hybrid", "cpu"} {
		frames = append(frames, reg.Counter("acq_frames_total", "frames accepted for processing per compute path", telemetry.L("path", p)))
	}
	sumShed := func() int64 {
		var n int64
		for _, c := range sheds {
			n += c.Value()
		}
		return n
	}
	e.AddRatio(health.RatioSLO{
		Name: "shed_rate",
		Bad:  sumShed,
		Total: func() int64 { // offered load = accepted + shed
			n := sumShed()
			for _, c := range frames {
				n += c.Value()
			}
			return n
		},
		Budget: 0.05, // of offered frames may be shed before the budget burns
	})

	internal := reg.Counter("acq_responses_total", "responses sent per status code", telemetry.L("code", "INTERNAL"))
	var responses []*telemetry.Counter
	for _, code := range []string{"OK", "INVALID_ARGUMENT", "RESOURCE_EXHAUSTED", "DEADLINE_EXCEEDED", "UNAVAILABLE", "INTERNAL", "TOO_LARGE"} {
		responses = append(responses, reg.Counter("acq_responses_total", "responses sent per status code", telemetry.L("code", code)))
	}
	e.AddRatio(health.RatioSLO{
		Name: "error_rate",
		Bad:  internal.Value,
		Total: func() int64 {
			var n int64
			for _, c := range responses {
				n += c.Value()
			}
			return n
		},
		Budget: 0.01, // of responses may be INTERNAL before the budget burns
	})
	return e
}
