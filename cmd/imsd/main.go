// Command imsd is the frame-acquisition daemon: it serves the IMSP
// protocol over TCP, feeding frames from many concurrent clients through
// sharded worker pools running the modeled hybrid FPGA offload or the CPU
// software pipeline (see docs/SERVING.md for the protocol and backpressure
// semantics).
//
// Usage:
//
//	imsd [-addr HOST:PORT] [-shards N] [-depth N] [-workers N]
//	     [-order N] [-max-tof N] [-read-timeout D] [-write-timeout D]
//	     [-drain-timeout D] [-drain-grace D] [-metrics ADDR]
//	     [-health-interval D] [-slo-latency D]
//	     [-trace FILE] [-trace-slow D] [-trace-sample N] [-trace-ring N]
//	     [-framelog DIR] [-framelog-fsync always|interval|none]
//	     [-framelog-fsync-interval D] [-framelog-segment-bytes N]
//	     [-framelog-retain K]
//	     [-events N] [-events-dump DIR] [-pprof ADDR]
//	     [-profile-dir DIR] [-profile-cpu D] [-profile-interval D]
//	     [-profile-retain K] [-coalesce-window D] [-coalesce-fill N]
//	     [-history DIR] [-history-interval D]
//	     [-anomaly-threshold F] [-anomaly-warmup N]
//
// With -framelog, every accepted frame is appended to a durable,
// segmented, CRC-verified write-ahead log before it is enqueued, and on
// startup any records past the last-completed watermark are re-enqueued
// through the same worker pools (crash recovery).  Under -framelog-fsync
// always an acknowledged frame survives power loss; under interval or
// none, results carry a not-durable flag instead.  See docs/DURABILITY.md
// for the format, the fsync trade-offs, and the replay runbook.
//
// With -metrics, an HTTP endpoint serves the acq_* telemetry families in
// Prometheus text format at /metrics (JSON at /metrics.json, with rolling
// 60-second window quantiles alongside the cumulative ones), the Go
// runtime and build-info gauges, the span-tree ring buffer at
// /debug/traces, the wide-event flight recorder at /debug/events (one
// structured event per answered frame; -events sizes the ring and
// -events-dump enables black-box dumps on SLO degradation and recovered
// panics), plus net/http/pprof under /debug/pprof/ (a dedicated -pprof
// address serves pprof and nothing else).  With -profile-dir, a sampler
// continuously captures rotating CPU and heap profiles (-profile-cpu long,
// every -profile-interval, keeping -profile-retain per kind) that `go tool
// pprof -tags` breaks down by pprof label.  The same server answers
// /healthz (liveness: 200 while the process runs) and /readyz (readiness:
// 503 while draining or while an SLO error budget burns UNHEALTHY — see
// docs/OBSERVABILITY.md).  Three SLOs are evaluated every
// -health-interval: frame latency (99 % of frames under -slo-latency),
// shed rate (5 % of offered frames may be shed), and error rate (1 % of
// responses may be INTERNAL).  While health is DEGRADED or worse the
// daemon sheds earlier, at half queue depth, to stop the burn from
// compounding.
// With -trace, every frame is traced (socket read, queue wait, worker,
// modeled FPGA/DMA stages, response write) under the tail-sampling policy
// set by -trace-slow and -trace-sample, and the retained trees are written
// as Chrome/Perfetto trace-event JSON on exit.  Logs are structured
// (log/slog text) with trace and request ids attached.  On SIGINT or
// SIGTERM the daemon drains gracefully: it flips /readyz to 503, waits
// -drain-grace for load balancers to notice, stops accepting, completes
// every queued frame, flushes responses, and exits 0; -drain-timeout
// bounds the wait.  The flags imsgw takes too, and that whole life cycle,
// live in internal/daemon.
//
// With -history, a sampler goroutine diffs registry snapshots every
// -history-interval into an embedded on-disk time-series store (raw, 1m
// and 10m resolutions with per-resolution retention), served back at
// /metrics/history with family/label/range/quantile parameters — so
// "what did p99 look like an hour ago, across the last restart" is
// answerable without external infrastructure.  An EWMA+MAD anomaly
// detector watches frame-latency p99 and shed spikes over the sampled
// stream (tune with -anomaly-threshold/-warmup); an active episode
// turns the matching anomaly_* SLO DEGRADED, which sheds earlier and
// trips the flight-recorder black-box dump.  See docs/OBSERVABILITY.md.
//
// With -coalesce-window, CPU-path frames from different sessions that
// land on the same shard are micro-batched: a worker waits up to the
// window (or until -coalesce-fill frames arrive) and decodes the batch
// as one concatenated column space, trading bounded per-frame latency
// for blocked-kernel throughput (see docs/PERFORMANCE.md).
package main

import (
	"context"
	"flag"
	"fmt"
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

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imsd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	cfg := acqserver.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:7071", "listen address")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "independent bounded work queues")
	flag.IntVar(&cfg.QueueDepth, "depth", cfg.QueueDepth, "frames queued per shard before shedding")
	flag.IntVar(&cfg.WorkersPerShard, "workers", cfg.WorkersPerShard, "worker goroutines per shard")
	flag.IntVar(&cfg.Order, "order", cfg.Order, "m-sequence order served (frames need 2^order-1 drift bins)")
	flag.IntVar(&cfg.MaxTOFBins, "max-tof", cfg.MaxTOFBins, "largest accepted m/z axis")
	flag.DurationVar(&cfg.ReadIdleTimeout, "read-timeout", cfg.ReadIdleTimeout, "per-message read deadline")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", cfg.WriteTimeout, "per-response write deadline")
	flag.DurationVar(&cfg.CoalesceWindow, "coalesce-window", cfg.CoalesceWindow, "coalesce CPU-path frames across sessions for up to this long per batch (0 disables)")
	flag.IntVar(&cfg.CoalesceFillTarget, "coalesce-fill", cfg.CoalesceFillTarget, "dispatch a coalescing batch early at this many frames (needs -coalesce-window)")
	healthInterval := flag.Duration("health-interval", 5*time.Second, "SLO evaluation period")
	sloLatency := flag.Duration("slo-latency", 250*time.Millisecond, "frame-latency SLO threshold (rounds up to the enclosing power-of-two bucket)")
	walDir := flag.String("framelog", "", "append every accepted frame to a durable frame log in this directory (see docs/DURABILITY.md)")
	walFsync := flag.String("framelog-fsync", "interval", "frame-log fsync policy: always, interval, or none")
	walFsyncInterval := flag.Duration("framelog-fsync-interval", 50*time.Millisecond, "sync period under -framelog-fsync interval")
	walSegBytes := flag.Int64("framelog-segment-bytes", 64<<20, "rotate frame-log segments at this size")
	walRetain := flag.Int("framelog-retain", 16, "sealed segments kept before the janitor deletes the oldest (0 = keep all)")
	anomalyThreshold := flag.Float64("anomaly-threshold", 4, "robust-sigma score at which a watched series is anomalous (0 disables the detector; needs -history)")
	anomalyWarmup := flag.Int("anomaly-warmup", 12, "history samples a target needs before anomaly scoring starts")
	shared := daemon.AddFlags(flag.CommandLine)
	flag.Parse()

	d, err := daemon.Start("imsd", shared)
	if err != nil {
		fail("%v", err)
	}
	log, reg := d.Log, d.Registry
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.Trace = reg, log, d.Flight, d.Tracer

	eval := buildEvaluator(reg, *sloLatency, d.Flight, log)
	cfg.DegradedMode = func() bool { return eval.Status() >= health.Degraded }

	// An EWMA+MAD anomaly detector over the stored metric history, wired in
	// as anomaly SLOs (active episode => DEGRADED => flight-recorder dump
	// via OnTransition, earlier shedding via DegradedMode).
	if d.Sampler != nil && *anomalyThreshold > 0 {
		detector := tsdb.NewDetector(tsdb.DetectorConfig{
			Targets: []tsdb.Target{
				{Name: "frame_latency_p99", Family: "acq_process_ns", Quantile: 0.99},
				{Name: "shed_spike", Family: "acq_shed_total"},
			},
			Threshold: *anomalyThreshold,
			Warmup:    *anomalyWarmup,
			Metrics:   reg,
		}, d.History)
		detector.WarmupFromStore(30 * time.Minute)
		d.Sampler.OnSample(detector.Observe)
		for _, name := range detector.TargetNames() {
			target := name
			eval.AddAnomaly(health.AnomalySLO{
				Name: "anomaly_" + target,
				Source: func() (float64, bool, string) {
					score, active, reason := detector.Status(target)
					return score / detector.Threshold(), active, reason
				},
			})
		}
	}

	var wal *framelog.Log
	if *walDir != "" {
		policy, err := framelog.ParseFsyncPolicy(*walFsync)
		if err != nil {
			fail("%v", err)
		}
		wcfg := framelog.DefaultConfig(*walDir)
		wcfg.Fsync = policy
		wcfg.FsyncInterval = *walFsyncInterval
		wcfg.SegmentBytes = *walSegBytes
		wcfg.RetainSegments = *walRetain
		wcfg.Metrics = reg
		wcfg.Trace = d.Tracer
		wcfg.Logger = log
		wal, err = framelog.Open(wcfg)
		if err != nil {
			fail("framelog: %v", err)
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
		fail("%v", err)
	}
	if wal != nil {
		go func() {
			n, err := srv.RecoverFrames(context.Background())
			if err != nil {
				log.Error("framelog replay stopped", "enqueued", n, "err", err)
				return
			}
			if n > 0 {
				log.Info("framelog replay enqueued", "frames", n)
			}
		}()
	}

	go eval.Run(context.Background(), *healthInterval)

	if err := d.Run(*addr, srv, eval, nil, daemon.Signals(),
		"order", cfg.Order, "shards", cfg.Shards, "depth", cfg.QueueDepth,
		"workers_per_shard", cfg.WorkersPerShard, "fwht_backend", butterfly.Backend()); err != nil {
		fail("%v", err)
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
