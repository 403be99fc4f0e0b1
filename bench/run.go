package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
)

// Every timed end-to-end number is computed per slice of its phase and the
// best slice is reported (README "Slice statistics"): on a shared machine a
// disturbance only ever slows a slice down.  The closed phase is read every
// closedTick and a slice is any closedWindow consecutive ticks (half a
// second, sliding by one tick); the open phase is cut into runs of at least
// openSliceArrivals consecutive arrivals, whole bursts only, so that a
// slice's p90 has ten samples beyond it.
const (
	closedTick        = 50 * time.Millisecond
	closedWindow      = 10
	openSliceArrivals = 100
)

// runConfig is one run's shape.  fullConfig and smokeConfig build it.
type runConfig struct {
	seed    int64
	trace   bool
	outDir  string // Perfetto traces
	walBase string // WAL and scratch logs are created under it

	poolSize int
	// Set-ups timed for setup_s, the fastest of which is reported: at
	// least setupReps, then more (up to twice as many) until setupBudget is
	// spent, so that a cheap set-up is measured as steadily as a dear one.
	// The last one is kept.
	setupReps       int
	setupBudget     time.Duration
	warmup          time.Duration
	closed          time.Duration
	open            time.Duration
	recoveryRecords int

	// Traced runs only.
	ladderIters  int
	ladderBudget time.Duration
	plainClosed  time.Duration // the registries-off closed phase
}

// fullConfig splits `seconds` of measuring over the phases.  An untraced
// run spends 10 % warming up, 40 % in the closed phase and 50 % in the
// open phase (2.4 s + 9.6 s + 12 s at run_seconds 24).
func fullConfig(seconds float64, trace bool) runConfig {
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	c := runConfig{poolSize: 16, setupReps: 5, setupBudget: 5 * time.Second, recoveryRecords: 256}
	if !trace {
		c.warmup, c.closed, c.open = share(0.1), share(0.4), share(0.5)
		return c
	}
	c.trace = true
	c.setupReps = 1
	c.warmup = share(0.05) // twice: once per topology
	c.plainClosed, c.closed, c.open = share(0.2), share(0.2), share(0.25)
	c.ladderIters, c.ladderBudget = 300, share(0.25)
	return c
}

// smokeConfig is the shortest run that still exercises every phase.
func smokeConfig(trace bool) runConfig {
	c := runConfig{
		trace: trace, poolSize: 4, setupReps: 1, recoveryRecords: 16,
		warmup: 100 * time.Millisecond, closed: 500 * time.Millisecond, open: 400 * time.Millisecond,
	}
	if trace {
		c.ladderIters, c.ladderBudget, c.plainClosed = 8, time.Second, 300*time.Millisecond
	}
	return c
}

// runResult is everything one run measured.
type runResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
	// Counts behind the metrics.
	Attempted   int `json:"attempted"`
	OK          int `json:"ok"`
	Shed        int `json:"shed"`
	Mismatched  int `json:"mismatched"`
	Errored     int `json:"errored"`
	OpenSamples int `json:"open_samples"`
	// Slices are the per-slice values behind the timed end-to-end metrics,
	// kept so that a disturbed run can be told from a slow program.
	Slices map[string][]float64 `json:"slices,omitempty"`
	// LayerShares is each ladder layer's median self time as a share of
	// the request median (traced runs).
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

func (r *runResult) failed() int { return r.Attempted - r.OK }

// count classifies every request of the run's phases and fills the counts
// and the two shares derived from them.
func (r *runResult) count(phases ...[]sample) {
	for _, samples := range phases {
		for _, s := range samples {
			r.Attempted++
			switch s.outcome {
			case outcomeOK:
				r.OK++
			case outcomeShed:
				r.Shed++
			case outcomeMismatch:
				r.Mismatched++
			default:
				r.Errored++
			}
		}
	}
	attempted := float64(max(r.Attempted, 1))
	r.Metrics[metricFailedShare] = float64(r.failed()) / attempted
	r.Metrics["acqserver.shed_share"] = float64(r.Shed) / attempted
}

// runner holds one live topology and the pool it is driven with.
type runner struct {
	w    workload
	cfg  runConfig
	pool *framePool
	topo *topology
	rec  *recorder
	// prefilled is the recovery log written during set-up.
	prefilled string
	closed    bool
	setupLaps []float64 // seconds per set-up stage
}

// do is the generator's request: send, wait, check against the reference.
func (r *runner) do(conn, frame int) (outcome, *acqserver.Result) {
	pf := &r.pool.frames[frame]
	resp, err := r.topo.clients[conn].DoPayload(context.Background(), pf.payload, 0)
	out := pf.check(resp, err)
	if out != outcomeOK {
		return out, nil
	}
	return out, resp.Result
}

// tracedDo wraps do in a client.do span whose children are the queue wait
// and processing time the Result reports.
func (r *runner) tracedDo(conn, frame int) (outcome, *acqserver.Result) {
	start := time.Now()
	out, res := r.do(conn, frame)
	end := time.Now()
	reqID := uint64(start.UnixNano())
	id := r.rec.add(spanClientDo, start, end, -1, reqID)
	addServerSpans(r.rec, id, reqID, start, end, res)
	return out, res
}

// stopwatch cuts an interval into consecutive laps.
type stopwatch struct {
	last time.Time
	laps []float64 // seconds
}

func newStopwatch() *stopwatch { return &stopwatch{last: time.Now()} }

// lap ends the current lap; a nil stopwatch ignores it.
func (s *stopwatch) lap() {
	if s == nil {
		return
	}
	now := time.Now()
	s.laps = append(s.laps, now.Sub(s.last).Seconds())
	s.last = now
}

// setUp generates the pool, computes the references, pre-fills the
// recovery log and starts the topology; it returns once a first request
// has been answered OK on every connection.  The runner's setupLaps cut
// the whole of it into stages: one per pool frame (the first holds the
// instrument's construction too), the log pre-fill on a WAL workload, and
// the topology's start until the last first OK.
func setUp(w workload, cfg runConfig, reg *telemetry.Registry, pool *framePool) (_ *runner, err error) {
	sw := newStopwatch()
	if pool == nil { // a traced run's second topology reuses the first one's pool
		if pool, err = buildPool(w, cfg.seed, cfg.poolSize, sw); err != nil {
			return nil, err
		}
	}
	r := &runner{w: w, cfg: cfg, pool: pool}
	if w.WAL {
		if r.prefilled, err = prefillLog(cfg.walBase, pool, cfg.recoveryRecords); err != nil {
			return nil, err
		}
		sw.lap()
	}
	if r.topo, err = startTopology(w, cfg.walBase, reg); err != nil {
		r.close()
		return nil, err
	}
	if err := r.topo.connect(&pool.frames[0]); err != nil {
		r.close()
		return nil, err
	}
	for c := range r.topo.clients {
		if out, _ := r.do(c, 0); out != outcomeOK {
			r.close()
			return nil, fmt.Errorf("bench: first request on connection %d: outcome %d", c, out)
		}
	}
	sw.lap()
	r.setupLaps = sw.laps
	return r, nil
}

func (r *runner) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	if r.topo != nil {
		err = r.topo.Close()
	}
	if r.prefilled != "" {
		_ = os.RemoveAll(r.prefilled)
	}
	return err
}

// prefillLog writes n uncompleted wide payloads to a fresh log and closes
// it: what a crashed daemon leaves behind for the recovery phase.
func prefillLog(base string, pool *framePool, n int) (string, error) {
	dir, err := os.MkdirTemp(base, "recover-")
	if err != nil {
		return "", err
	}
	log, err := framelog.Open(logConfig(dir))
	if err != nil {
		return dir, err
	}
	for i := 0; i < n; i++ {
		if _, err := log.Append(uint64(i+1), pool.frames[i%len(pool.frames)].payload); err != nil {
			_ = log.Close()
			return dir, err
		}
	}
	return dir, log.Close()
}

// closedStats are the closed-phase measurements.
type closedStats struct {
	samples []sample
	// fps and cpuMs hold one value per slice; the best slice is reported.
	fps, cpuMs []float64
	allocKB    float64
	allocs     float64
}

// rusage reads the process's resource usage; all zero if the call fails.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF into a valid pointer cannot fail
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// warmUp runs the closed loop for d and discards what it measured.
func (r *runner) warmUp(d time.Duration) {
	runClosed(realClock{}, time.Now(), d, len(r.topo.clients), r.w.InFlight, len(r.pool.frames), r.do)
}

// closedPhase runs the closed loop for d.  Throughput and CPU per frame
// are taken per slice; allocation, which does not depend on timing, over
// the whole phase.
func (r *runner) closedPhase(d time.Duration, do doFunc) closedStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	tickc := make(chan []cpuTick, 1)
	go func() { tickc <- sampleCPU(realClock{}, start, d, max(int(d/closedTick), 1), cpuTime) }()
	samples := runClosed(realClock{}, start, d, len(r.topo.clients), r.w.InFlight, len(r.pool.frames), do)
	ticks := <-tickc
	runtime.ReadMemStats(&after)

	st := closedStats{samples: samples}
	var done []time.Duration
	for _, s := range samples {
		if s.outcome == outcomeOK {
			done = append(done, s.done)
		}
	}
	st.fps, st.cpuMs = closedSlices(done, ticks, closedWindow)
	if n := float64(len(done)); n > 0 {
		st.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
		st.allocs = float64(after.Mallocs-before.Mallocs) / n
	}
	return st
}

// closedSlices returns the frames per second and the CPU milliseconds per
// frame of every run of window consecutive tick intervals (of all of them,
// when there are fewer); done are the completion instants of the correct
// frames.  A slice that completed nothing has no CPU per frame.
func closedSlices(done []time.Duration, ticks []cpuTick, window int) (fps, cpuMs []float64) {
	edges := make([]time.Duration, len(ticks))
	for i, t := range ticks {
		edges[i] = t.at
	}
	counts := perSlice(done, edges)
	window = min(window, len(counts))
	frames := sum(counts[:window])
	for i := 0; ; i++ {
		from, to := ticks[i], ticks[i+window]
		fps = append(fps, frames/(to.at-from.at).Seconds())
		if frames > 0 {
			cpuMs = append(cpuMs, float64(to.cpu-from.cpu)/float64(time.Millisecond)/frames)
		}
		if i+window == len(counts) {
			return fps, cpuMs
		}
		frames += counts[i+window] - counts[i]
	}
}

func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle empties sync.Pool victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// recoveryPhase opens the pre-filled log, hands it to a fresh server and
// waits until its last record reports completed.
func (r *runner) recoveryPhase(m map[string]float64) error {
	start := time.Now()
	log, err := framelog.Open(logConfig(r.prefilled))
	opened := time.Since(start)
	if err != nil {
		return err
	}
	info := log.RecoveryInfo()
	if info.Pending != r.cfg.recoveryRecords {
		_ = log.Close()
		return fmt.Errorf("bench: recovery log has %d pending records, want %d", info.Pending, r.cfg.recoveryRecords)
	}
	cfg := acqserver.DefaultConfig()
	cfg.FrameLog = log
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		_ = log.Close()
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	n, err := srv.RecoverFrames(ctx)
	if err == nil && n != r.cfg.recoveryRecords {
		err = fmt.Errorf("bench: recovered %d frames, want %d", n, r.cfg.recoveryRecords)
	}
	if err == nil {
		// Shutdown lets the workers finish every queued frame; each marks
		// its record completed, which is when the clock stops.
		err = srv.Shutdown(ctx)
	} else {
		_ = srv.Shutdown(ctx)
	}
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	// Prove the clock stopped at the right place: nothing is left pending.
	check, err := framelog.Open(logConfig(r.prefilled))
	if err != nil {
		return err
	}
	left := check.RecoveryInfo().Pending
	if err := check.Close(); err != nil {
		return err
	}
	if left != 0 {
		return fmt.Errorf("bench: %d records still pending after recovery", left)
	}
	m["framelog.open_ms"] = float64(opened) / float64(time.Millisecond)
	m[metricRecoveryFPS] = float64(r.cfg.recoveryRecords) / elapsed.Seconds()
	return nil
}

// runWorkload performs one full run of w.
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	if cfg.walBase == "" {
		cfg.walBase = cfg.outDir
	}
	if err := os.MkdirAll(cfg.walBase, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}, Slices: map[string][]float64{}}
	run := runUntraced
	if cfg.trace {
		run = runTraced
	}
	stolen, total := stealJiffies()
	err := run(w, cfg, res)
	if s, t := stealJiffies(); t > total {
		res.Metrics["loadgen.cpu_steal_share"] = float64(s-stolen) / float64(t-total)
	}
	return res, err
}

// stealJiffies reads the machine-wide CPU accounting: the time a hypervisor
// ran someone else while this guest wanted the CPU, and all time.  A run on
// a shared machine is only as steady as its steal share is low.  Both are 0
// where /proc/stat does not exist.
func stealJiffies() (stolen, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return stolen, total
}

func runUntraced(w workload, cfg runConfig, res *runResult) error {
	var laps [][]float64
	var r *runner
	began := time.Now()
	for i := 0; i < cfg.setupReps || (i < 2*cfg.setupReps && time.Since(began) < cfg.setupBudget); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return err
			}
		}
		var err error
		if r, err = setUp(w, cfg, nil, nil); err != nil {
			return err
		}
		laps = append(laps, r.setupLaps)
	}
	defer r.close()
	m := res.Metrics
	m["setup_s"] = fastestStages(laps)
	for _, rep := range laps {
		res.Slices["setup_s"] = append(res.Slices["setup_s"], sum(rep))
	}

	r.warmUp(cfg.warmup)

	cs := r.closedPhase(cfg.closed, r.do)
	m["throughput_fps"] = best(cs.fps, "higher")
	m["cpu_ms_per_frame"] = best(cs.cpuMs, "lower")
	res.Slices["throughput_fps"], res.Slices["cpu_ms_per_frame"] = cs.fps, cs.cpuMs
	m["alloc_kb_per_frame"] = cs.allocKB
	m["allocs_per_frame"] = cs.allocs
	m["live_heap_mb"] = liveHeapMiB()

	sched := buildSchedule(cfg.seed, w.Rate, w.Burst, cfg.open, len(r.pool.frames))
	open := runOpen(realClock{}, spawnGoroutine, sched, len(r.topo.clients), openWindow, r.do)
	openMetrics(res, open, w.Burst)
	res.OpenSamples = len(open)

	res.count(cs.samples, open)
	m["loadgen.peak_rss_mb"] = peakRSSMiB()
	if w.Path == acqserver.PathHybrid {
		m[metricRealtimeMargin] = realtimeMargin(r.pool, append(cs.samples, open...))
	}
	if w.WAL {
		if err := r.recoveryPhase(m); err != nil {
			return err
		}
	}
	return r.close()
}

// openMetrics fills the open-phase latency numbers: p50 and p90 per slice,
// the best slice reported, and the p99 and max diagnostics over the whole
// phase.  open is in schedule order.
func openMetrics(res *runResult, open []sample, burst int) {
	m := res.Metrics
	size := (openSliceArrivals + burst - 1) / burst * burst
	for name, q := range map[string]float64{"latency_p50_ms": 0.5, "latency_p90_ms": 0.9} {
		res.Slices[name] = latencySlices(open, size, q)
		m[name] = best(res.Slices[name], "lower")
	}
	var lat []time.Duration
	for _, s := range open {
		if s.outcome == outcomeOK {
			lat = append(lat, s.latency())
		}
	}
	ms := sortedMs(lat)
	m["loadgen.latency_p99_ms"] = quantile(ms, 0.99)
	m["loadgen.latency_max_ms"] = quantile(ms, 1)
	m["loadgen.max_late_ms"] = float64(maxLate(open)) / float64(time.Millisecond)
}

// realtimeMargin is the paper's claim as a number: the instrument's frame
// period over the modeled FPGA time per frame.  Both are modeled, so it
// repeats exactly.
func realtimeMargin(pool *framePool, samples []sample) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.res != nil {
			sum += float64(s.res.SimulatedNs)
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return pool.cfg.CycleDuration() * 1e9 / (sum / float64(n))
}

func runTraced(w workload, cfg runConfig, res *runResult) error {
	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0 // a layer off this workload's path reports 0
	}

	// Registries off: the baseline the metrics plane is priced against, and
	// the topology the serial ladder's round trips are taken on, so that
	// the unattributed remainder holds no telemetry cost.
	rec := newRecorder()
	plain, err := setUp(w, cfg, nil, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	plain.warmUp(cfg.warmup)
	base := plain.closedPhase(cfg.plainClosed, plain.do)

	lad, err := newLadder(w, plain.pool, rec, cfg.walBase)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(cfg.ladderBudget)
	for i := 0; i < cfg.ladderIters && (i < len(plain.pool.frames) || time.Now().Before(deadline)); i++ {
		if err := lad.step(context.Background(), plain.topo, i%len(plain.pool.frames)); err != nil {
			_, _ = lad.finish()
			return err
		}
	}
	if err := lad.report(m, res); err != nil {
		return err
	}
	if err := plain.close(); err != nil {
		return err
	}

	reg := telemetry.NewRegistry()
	r, err := setUp(w, cfg, reg, plain.pool)
	if err != nil {
		return err
	}
	defer r.close()
	r.rec = rec
	r.warmUp(cfg.warmup)

	cs := r.closedPhase(cfg.closed, r.tracedDo)
	if off := best(base.cpuMs, "lower"); off > 0 {
		m["telemetry.metrics_overhead_share"] = best(cs.cpuMs, "lower")/off - 1
	}
	sched := buildSchedule(cfg.seed, w.Rate, w.Burst, cfg.open, len(r.pool.frames))
	open := runOpen(realClock{}, spawnGoroutine, sched, len(r.topo.clients), openWindow, r.tracedDo)
	openMetrics(res, open, w.Burst)
	for _, k := range []string{"latency_p50_ms", "latency_p90_ms"} {
		delete(m, k) // end-to-end numbers come from untraced runs only
	}
	res.OpenSamples = len(open)

	var wait, proc []float64
	for _, s := range open {
		if s.res != nil {
			wait = append(wait, float64(s.res.QueueWaitNs)/1e3)
			proc = append(proc, float64(s.res.ProcessNs)/1e3)
		}
	}
	sort.Float64s(wait)
	sort.Float64s(proc)
	m["acqserver.queue_wait_us_p50"] = quantile(wait, 0.5)
	m["acqserver.queue_wait_us_p90"] = quantile(wait, 0.9)
	m["acqserver.process_us_p50"] = quantile(proc, 0.5)

	all := append(cs.samples, open...)
	res.count(base.samples, all)
	if w.Path == acqserver.PathHybrid {
		m[metricRealtimeMargin] = realtimeMargin(r.pool, all)
	}
	if w.Gateway {
		gatewayMetrics(m, all, len(r.topo.backends))
		m["acqserver.coalesce_fill_p50"] = reg.Histogram("acq_coalesce_batch_fill", "").Quantile(0.5)
		m["acqserver.coalesce_wait_us_p50"] = reg.Histogram("acq_coalesce_wait_ns", "").Quantile(0.5) / 1e3
	}
	if w.WAL {
		if appended := reg.Counter("framelog_append_records_total", "").Value(); appended > 0 {
			m["framelog.fsyncs_per_frame"] = float64(reg.Counter("framelog_fsync_total", "").Value()) / float64(appended)
		}
		if err := r.recoveryPhase(m); err != nil {
			return err
		}
	}
	m["loadgen.peak_rss_mb"] = peakRSSMiB()

	res.TraceFile = filepath.Join(cfg.outDir, "trace-"+w.Name+".json")
	if err := writePerfetto(res.TraceFile, r.rec.spans); err != nil {
		return err
	}
	return r.close()
}

// gatewayMetrics reads routing facts off the Results.
func gatewayMetrics(m map[string]float64, samples []sample, backends int) {
	perBackend := make([]float64, backends)
	var retries, frames float64
	for _, s := range samples {
		if s.res == nil || s.res.Backend == 0 || int(s.res.Backend) > backends {
			continue
		}
		perBackend[s.res.Backend-1]++
		frames++
		if s.res.Attempts > 1 {
			retries += float64(s.res.Attempts - 1)
		}
	}
	if frames == 0 {
		return
	}
	m["gateway.retries_per_frame"] = retries / frames
	sort.Float64s(perBackend)
	if perBackend[0] > 0 {
		m["gateway.backend_skew"] = perBackend[backends-1] / perBackend[0]
	}
}

// report turns the ladder's timings into per-layer metrics and closes it.
func (l *ladder) report(m map[string]float64, res *runResult) error {
	us := func(name string) float64 { return median(l.dur[name]) / 1e3 }
	cols := float64(l.w.TOFBins)
	n := 1<<order - 1

	var wire float64
	for _, pf := range l.pool.frames {
		wire += float64(len(pf.payload))
	}
	m["frameio.wire_bytes_per_frame"] = wire / float64(len(l.pool.frames))
	m["frameio.read_us_per_frame"] = us(spanRead)
	m["frameio.write_us_per_frame"] = us(spanWrite)
	m["peaks.detect_us_per_frame"] = us(spanPeaks)
	m["acqserver.result_codec_us"] = us(spanCodec)
	m["acqserver.roundtrip_us_p50"] = us(spanRequest)

	if l.w.Path == acqserver.PathHybrid {
		m["hybrid.offload_us_per_frame"] = us(spanOffload)
		m["fpga.deconvolve_batch_ns_per_col"] = median(l.dur[spanFPGA]) / cols
		m["hybrid.model_overhead_share"] = 1 - median(l.dur[spanFPGA])/median(l.dur[spanOffload])
		m["hybrid.simulated_us_per_frame"] = l.simulatedS * 1e6 / float64(l.iterations)
		m["fpga.saturations_per_frame"] = float64(l.saturations) / float64(l.iterations)
	} else {
		kernel := median(l.dur[spanKernel])
		m["pipeline.deconvolve_us_per_frame"] = us(spanDeconvolve)
		m["pipeline.deconvolve_ns_per_col"] = median(l.dur[spanDeconvolve]) / cols
		m["pipeline.overhead_share"] = 1 - kernel/median(l.dur[spanSerial])
		m["hadamard.decode_batch_ns_per_col"] = kernel / cols
		// N log2 N add/sub per column on the padded length: fixed by the math.
		m["hadamard.gflops"] = float64((n+1)*order) * cols / kernel
		m["instrument.gather_scatter_ns_per_col"] = median(l.dur[spanGather]) / cols
		// gather reads a column and writes a tile lane, scatter the reverse.
		m["instrument.computed_bytes_per_col"] = float64(4 * n * 8)
		if l.w.Gateway {
			m["pipeline.multiframe_ns_per_col"] = median(l.dur[spanDeconvFrame]) / (cols * multiframeBatch)
		}
	}
	if direct := l.dur[spanRequestDirect]; len(direct) > 0 {
		m["gateway.hop_us_p50"] = us(spanRequest) - median(direct)/1e3
	}
	if l.scratch != nil {
		m["framelog.append_us_per_frame"] = us(spanAppend)
	}

	attributed := 0.0
	for _, name := range onPath(l.w) {
		attributed += us(name)
	}
	m["acqserver.unattributed_us"] = us(spanRequest) - attributed
	m["acqserver.unattributed_share"] = m["acqserver.unattributed_us"] / us(spanRequest)

	// Allocation counts, taken while the servers are idle.
	pf := &l.pool.frames[0]
	reads := 2 * len(l.pool.frames)
	objs, kib, err := allocsPerCall(reads, func() error {
		_, _, err := frameio.ReadLimited(bytes.NewReader(pf.payload[5:]), l.limits)
		return err
	})
	if err != nil {
		return err
	}
	m["frameio.read_allocs_per_frame"], m["frameio.read_alloc_kb_per_frame"] = objs, kib
	if l.w.Path != acqserver.PathHybrid {
		workers := acqserver.DefaultConfig().CPUWorkersPerFrame
		objs, kib, err := allocsPerCall(reads, func() error {
			return pipeline.DeconvolveFrameIntoContext(context.Background(), l.spare, pf.frame, l.factory, workers, nil)
		})
		if err != nil {
			return err
		}
		m["pipeline.allocs_per_frame"], m["pipeline.alloc_kb_per_frame"] = objs, kib
	}

	st, err := l.finish()
	if err != nil {
		return err
	}
	if l.scratch != nil {
		m["framelog.disk_bytes_per_frame"] = st.diskBytesPerFrame
		m["framelog.scan_us_per_record"] = st.scanUsPerRecord
	}

	// Each layer's self time as a share of the request median.
	res.LayerShares = map[string]float64{}
	req := median(l.dur[spanRequest])
	for name, self := range selfByName(l.rec.spans) {
		if name != spanRequest && name != spanLadder && name != spanRequestDirect {
			res.LayerShares[name] = float64(self) / req
		}
	}
	return nil
}
