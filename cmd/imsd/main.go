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
//	     [-health-interval D] [-slo-latency D] [-slo-latency-target F]
//	     [-slo-shed-budget F] [-slo-error-budget F]
//	     [-trace FILE] [-trace-slow D] [-trace-sample N] [-trace-ring N]
//	     [-framelog DIR] [-framelog-fsync always|interval|none]
//	     [-framelog-fsync-interval D] [-framelog-segment-bytes N]
//	     [-framelog-segment-age D] [-framelog-retain K]
//	     [-events N] [-events-dump DIR] [-pprof ADDR]
//	     [-profile-dir DIR] [-profile-cpu D] [-profile-interval D]
//	     [-profile-retain K] [-coalesce-window D] [-coalesce-fill N]
//	     [-history DIR] [-history-interval D] [-history-retain-raw D]
//	     [-anomaly-threshold F] [-anomaly-warmup N] [-anomaly-hold N]
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
// panics), plus net/http/pprof under /debug/pprof/ (also on a dedicated
// -pprof address).  With -profile-dir, a sampler continuously captures
// rotating CPU and heap profiles (-profile-cpu long, every
// -profile-interval, keeping -profile-retain per kind) that
// cmd/profiledump summarizes by pprof label.  The same
// server answers /healthz (liveness: 200 while the process runs) and
// /readyz (readiness: 503 while draining or while an SLO error budget
// burns UNHEALTHY — see docs/OBSERVABILITY.md).  Three SLOs are
// evaluated every -health-interval: frame latency (-slo-latency at
// -slo-latency-target), shed rate (-slo-shed-budget of frames may be
// shed), and error rate (-slo-error-budget of responses may be
// INTERNAL).  While health is DEGRADED or worse the daemon sheds
// earlier, at half queue depth, to stop the burn from compounding.
// With -trace, every frame is traced (socket read, queue wait, worker,
// modeled FPGA/DMA stages, response write) under the tail-sampling policy
// set by -trace-slow and -trace-sample, and the retained trees are written
// as Chrome/Perfetto trace-event JSON on exit.  Logs are structured
// (log/slog text) with trace and request ids attached.  On SIGINT or
// SIGTERM the daemon drains gracefully: it flips /readyz to 503, waits
// -drain-grace for load balancers to notice, stops accepting, completes
// every queued frame, flushes responses, and exits 0; -drain-timeout
// bounds the wait.
//
// With -history, a sampler goroutine diffs registry snapshots every
// -history-interval into an embedded on-disk time-series store (raw, 1m
// and 10m resolutions with per-resolution retention), served back at
// /metrics/history with family/label/range/quantile parameters — so
// "what did p99 look like an hour ago, across the last restart" is
// answerable without external infrastructure.  An EWMA+MAD anomaly
// detector watches frame-latency p99 and shed spikes over the sampled
// stream (tune with -anomaly-threshold/-warmup/-hold); an active episode
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/acqserver"
	"repro/internal/butterfly"
	"repro/internal/framelog"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/profiler"
	"repro/internal/telemetry/runtimemetrics"
	"repro/internal/telemetry/trace"
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
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
	drainGrace := flag.Duration("drain-grace", 0, "after SIGTERM, hold /readyz at 503 this long before draining so load balancers stop routing first")
	metricsAddr := flag.String("metrics", "", "serve telemetry, health and pprof on this HTTP address (e.g. localhost:9090)")
	healthInterval := flag.Duration("health-interval", 5*time.Second, "SLO evaluation period")
	sloLatency := flag.Duration("slo-latency", 250*time.Millisecond, "frame-latency SLO threshold (rounds up to the enclosing power-of-two bucket)")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0.99, "fraction of frames that must process under -slo-latency")
	sloShedBudget := flag.Float64("slo-shed-budget", 0.05, "fraction of offered frames that may be shed before the budget burns")
	sloErrorBudget := flag.Float64("slo-error-budget", 0.01, "fraction of responses that may be INTERNAL before the budget burns")
	tracePath := flag.String("trace", "", "trace every frame and write retained span trees as Perfetto JSON to this file on exit")
	traceSlow := flag.Duration("trace-slow", 0, "keep every trace at least this slow (0 keeps all)")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleEvery, "uniformly keep 1 in N traces under the slow threshold")
	traceRing := flag.Int("trace-ring", trace.DefaultRingSize, "retained traces per ring (slow and sampled)")
	walDir := flag.String("framelog", "", "append every accepted frame to a durable frame log in this directory (see docs/DURABILITY.md)")
	walFsync := flag.String("framelog-fsync", "interval", "frame-log fsync policy: always, interval, or none")
	walFsyncInterval := flag.Duration("framelog-fsync-interval", 50*time.Millisecond, "sync period under -framelog-fsync interval")
	walSegBytes := flag.Int64("framelog-segment-bytes", 64<<20, "rotate frame-log segments at this size")
	walSegAge := flag.Duration("framelog-segment-age", 0, "also rotate non-empty segments older than this (0 = never)")
	walRetain := flag.Int("framelog-retain", 16, "sealed segments kept before the janitor deletes the oldest (0 = keep all)")
	eventsRing := flag.Int("events", 4096, "wide events retained in the flight-recorder ring (0 disables)")
	eventsDump := flag.String("events-dump", "", "write flight-recorder black-box dumps to this directory on SLO degradation and recovered panics")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this dedicated HTTP address (pprof is also on -metrics)")
	historyDir := flag.String("history", "", "persist sampled metric history into this directory and serve /metrics/history (see docs/OBSERVABILITY.md)")
	historyInterval := flag.Duration("history-interval", 5*time.Second, "metric history sampling period")
	historyRetainRaw := flag.Duration("history-retain-raw", 2*time.Hour, "raw-resolution history retention")
	anomalyThreshold := flag.Float64("anomaly-threshold", 4, "robust-sigma score at which a watched series is anomalous (0 disables the detector; needs -history)")
	anomalyWarmup := flag.Int("anomaly-warmup", 12, "history samples a target needs before anomaly scoring starts")
	anomalyHold := flag.Int("anomaly-hold", 2, "consecutive anomalous samples before the anomaly SLO flips")
	profileDir := flag.String("profile-dir", "", "continuously capture rotating CPU+heap profiles into this directory")
	profileCPU := flag.Duration("profile-cpu", 10*time.Second, "length of each continuous CPU profile capture")
	profileInterval := flag.Duration("profile-interval", 60*time.Second, "period between continuous profile captures")
	profileRetain := flag.Int("profile-retain", 16, "profiles kept per kind before the janitor deletes the oldest")
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stdout, nil))
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	cfg.Logger = log
	runtimemetrics.Register(reg)

	var flight *flightrec.Recorder
	if *eventsRing > 0 {
		flight = flightrec.New(flightrec.Config{
			Size:    *eventsRing,
			Metrics: reg,
			DumpDir: *eventsDump,
			Logger:  log,
		})
		cfg.FlightRecorder = flight
	}

	eval := buildEvaluator(reg, *sloLatency, *sloLatencyTarget, *sloShedBudget, *sloErrorBudget, flight, log)
	cfg.DegradedMode = func() bool { return eval.Status() >= health.Degraded }

	// Metric history: an embedded tsdb fed by a snapshot-diff sampler,
	// with an EWMA+MAD anomaly detector over the stored series wired in
	// as anomaly SLOs (active episode => DEGRADED => flight-recorder
	// dump via OnTransition, earlier shedding via DegradedMode).
	var hist *tsdb.Store
	var sampler *tsdb.Sampler
	if *historyDir != "" {
		hcfg := tsdb.DefaultConfig(*historyDir)
		hcfg.RetainRaw = *historyRetainRaw
		hcfg.Metrics = reg
		hcfg.Logf = func(format string, args ...any) { log.Info(fmt.Sprintf(format, args...)) }
		var err error
		hist, err = tsdb.Open(hcfg)
		if err != nil {
			fail("history: %v", err)
		}
		sampler = tsdb.NewSampler(reg, hist, *historyInterval)
		if *anomalyThreshold > 0 {
			detector := tsdb.NewDetector(tsdb.DetectorConfig{
				Targets: []tsdb.Target{
					{Name: "frame_latency_p99", Family: "acq_process_ns", Quantile: 0.99},
					{Name: "shed_spike", Family: "acq_shed_total"},
				},
				Threshold: *anomalyThreshold,
				Warmup:    *anomalyWarmup,
				Hold:      *anomalyHold,
				Metrics:   reg,
			}, hist)
			detector.WarmupFromStore(30 * time.Minute)
			sampler.OnSample(detector.Observe)
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
		go sampler.Run()
		log.Info("metric history on", "dir", *historyDir,
			"interval", historyInterval.String(), "anomaly_threshold", *anomalyThreshold)
	}

	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Config{
			SlowThreshold: *traceSlow,
			SampleEvery:   *traceSample,
			RingSize:      *traceRing,
		})
		cfg.Trace = tracer
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
		wcfg.SegmentMaxAge = *walSegAge
		wcfg.RetainSegments = *walRetain
		wcfg.Metrics = reg
		wcfg.Trace = tracer
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

	healthCtx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	go eval.Run(healthCtx, *healthInterval)

	if *profileDir != "" {
		sampler, err := profiler.New(profiler.Config{
			Dir:         *profileDir,
			CPUDuration: *profileCPU,
			Interval:    *profileInterval,
			Retain:      *profileRetain,
			Metrics:     reg,
			Logger:      log,
		})
		if err != nil {
			fail("%v", err)
		}
		go sampler.Run(healthCtx)
		log.Info("continuous profiling on", "dir", *profileDir, "cpu", profileCPU.String(), "interval", profileInterval.String())
	}
	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; serving the default
		// mux on a second address gives pprof its own port (some deploys
		// firewall /metrics but want profiling reachable, or vice versa).
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof server failed", "err", err)
			}
		}()
		log.Info("imsd pprof server up", "url", fmt.Sprintf("http://%s/debug/pprof/", *pprofAddr))
	}

	// drainStarted flips /readyz before Shutdown begins, so with a
	// -drain-grace load balancers can stop routing while the daemon still
	// answers — the standard preStop pattern.
	var drainStarted atomic.Bool
	if *metricsAddr != "" {
		http.Handle("/metrics", reg.Handler())
		http.Handle("/metrics.json", reg.Handler())
		http.Handle("/metrics/history", hist.Handler())
		http.Handle("/debug/traces", tracer.Handler())
		http.Handle("/debug/events", flight.Handler())
		http.Handle("/healthz", health.LivenessHandler())
		http.Handle("/readyz", eval.ReadinessHandler(func() (bool, string) {
			if drainStarted.Load() || srv.Draining() {
				return true, "draining"
			}
			return false, ""
		}))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				log.Error("metrics server failed", "err", err)
			}
		}()
		log.Info("imsd metrics server up", "url", fmt.Sprintf("http://%s/metrics", *metricsAddr))
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	log.Info("imsd listening on "+ln.Addr().String(),
		"order", cfg.Order, "shards", cfg.Shards, "depth", cfg.QueueDepth,
		"workers_per_shard", cfg.WorkersPerShard, "tracing", tracer != nil,
		"fwht_backend", butterfly.Backend())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fail("serve: %v", err)
	case sig := <-sigc:
		drainStarted.Store(true)
		if *drainGrace > 0 {
			log.Info("imsd not ready, holding for drain grace", "grace", drainGrace.String())
			time.Sleep(*drainGrace)
		}
		log.Info("imsd draining", "signal", sig.String(), "bound", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail("drain: %v", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, net.ErrClosed) {
			fail("serve: %v", err)
		}
		if err := writeTrace(tracer, *tracePath); err != nil {
			fail("trace: %v", err)
		}
		if sampler != nil {
			sampler.Stop()
			sampler.SampleOnce(time.Now()) // capture the drain's final deltas
		}
		if err := hist.Close(); err != nil {
			fail("history close: %v", err)
		}
		log.Info("imsd drained cleanly")
	}
}

// buildEvaluator declares the daemon's three SLOs over the same telemetry
// instances the acquisition server updates — the registry hands back the
// identical handle for a given family name and label set, so nothing
// internal to acqserver needs exporting.  Every slide into DEGRADED or
// worse trips a flight-recorder black-box dump: the ring's last N wide
// events are exactly the requests that burned the budget.
func buildEvaluator(reg *telemetry.Registry, latency time.Duration, latencyTarget, shedBudget, errorBudget float64, flight *flightrec.Recorder, log *slog.Logger) *health.Evaluator {
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
		Target:      latencyTarget,
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
		Budget: shedBudget,
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
		Budget: errorBudget,
	})
	return e
}

// writeTrace dumps the tracer's retained span trees as Perfetto JSON.
func writeTrace(tracer *trace.Tracer, path string) error {
	if tracer == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WritePerfetto(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
