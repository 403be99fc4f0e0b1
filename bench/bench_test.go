package main

import (
	"encoding/json"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
)

func TestQuantileAndSliceMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1 (5.5 / 5.5)", got)
	}
	if got := spread([]float64{100, 110}); math.Abs(got-10.0/105) > 1e-12 {
		t.Errorf("two-value spread = %g, want range/median", got)
	}

	// Five slices holding 3, 1, 2, 9, 2 completions, the last slice half as
	// long as the others: rates 3, 1, 2, 9, 4 per second, median 3, best 9.
	// A completion past the phase end belongs to no slice.
	sec := time.Second
	edges := []time.Duration{0, sec, 2 * sec, 3 * sec, 4 * sec, 4*sec + sec/2}
	var done []time.Duration
	for slice, n := range []int{3, 1, 2, 9, 2} {
		for i := 0; i < n; i++ {
			done = append(done, edges[slice]+time.Duration(i+1)*time.Millisecond)
		}
	}
	done = append(done, 5*sec)
	counts := perSlice(done, edges)
	var rates []float64
	for i, c := range counts {
		rates = append(rates, c/(edges[i+1]-edges[i]).Seconds())
	}
	if got := median(rates); got != 3 {
		t.Errorf("median slice rate = %g (counts %v), want 3", got, counts)
	}
	if got := best(rates, "higher"); got != 9 {
		t.Errorf("best slice rate = %g, want 9", got)
	}

	// The closed phase slides a window of consecutive ticks over the same
	// completions, ticks a second apart (the one at 5 s now counts):
	// two-tick windows hold 4, 3, 11, 12 frames over 2 s each.
	ms := time.Millisecond
	var ticks []cpuTick
	for i, cpu := range []time.Duration{0, 30 * ms, 50 * ms, 60 * ms, 150 * ms, 190 * ms} {
		ticks = append(ticks, cpuTick{at: time.Duration(i) * sec, cpu: cpu})
	}
	fps, cpuMs := closedSlices(done, ticks, 2)
	wantFPS, wantCPU := []float64{2, 1.5, 5.5, 6}, []float64{12.5, 10, 100.0 / 11, 130.0 / 12}
	for i := range wantFPS {
		if len(fps) != 4 || len(cpuMs) != 4 || fps[i] != wantFPS[i] || math.Abs(cpuMs[i]-wantCPU[i]) > 1e-12 {
			t.Fatalf("two-tick windows: fps %v, cpu ms/frame %v; want %v, %v", fps, cpuMs, wantFPS, wantCPU)
		}
	}
	// A phase shorter than the window is one slice.
	if fps, cpuMs := closedSlices(done, ticks, 10); len(fps) != 1 || fps[0] != 18.0/5 || cpuMs[0] != 190.0/18 {
		t.Errorf("one window over the whole phase: fps %v, cpu ms/frame %v", fps, cpuMs)
	}

	// Set-up time is assembled from each stage's fastest repetition.
	if got := fastestStages([][]float64{{1, 5, 3}, {2, 4, 9}, {3, 6, 2}}); got != 7 {
		t.Errorf("fastestStages = %g, want 1 + 4 + 2", got)
	}

	// Open-phase latency is taken per slice of 100 consecutive arrivals,
	// the last slice taking the remainder: slices whose requests stalled
	// move neither the best slice's p50 nor its p90.
	var open []sample
	for i := 0; i < 450; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		lat := time.Duration(1+i%10) * time.Millisecond
		if i < 100 || i >= 200 {
			lat += time.Second
		}
		open = append(open, sample{due: due, done: due + lat})
	}
	open[150] = sample{due: open[150].due, done: time.Hour, outcome: outcomeShed} // failed: no latency
	p50, p90 := latencySlices(open, 100, 0.5), latencySlices(open, 100, 0.9)
	if len(p50) != 4 {
		t.Fatalf("450 arrivals cut into %d slices, want 4 (100, 100, 100, 150)", len(p50))
	}
	// The quiet slice answered 99 requests: nine of 1 ms, ten each of 2..10 ms.
	if got := best(p50, "lower"); math.Abs(got-6) > 1e-9 {
		t.Errorf("best slice p50 = %g ms, want 6", got)
	}
	if got := best(p90, "lower"); math.Abs(got-9.2) > 1e-9 {
		t.Errorf("best slice p90 = %g ms, want 9.2", got)
	}
	if got := best(nil, "lower"); got != 0 {
		t.Errorf("best of nothing = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // clipped at the parent's end
		{ID: 4, Parent: 2, Name: "leaf", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSchedules(t *testing.T) {
	even := buildSchedule(7, 250, 1, time.Second, 16)
	if len(even) != 250 {
		t.Fatalf("even schedule has %d arrivals, want 250", len(even))
	}
	for i, s := range even {
		if s.due != time.Duration(i)*4*time.Millisecond {
			t.Fatalf("arrival %d due at %v, want %v", i, s.due, time.Duration(i)*4*time.Millisecond)
		}
		if s.frame < 0 || s.frame >= 16 {
			t.Fatalf("arrival %d carries frame %d outside the pool", i, s.frame)
		}
	}
	burst := buildSchedule(7, 300, 8, time.Second, 16)
	rate := 300.0
	period := time.Duration(8 / rate * float64(time.Second)) // 26.67 ms
	if len(burst)%8 != 0 || len(burst) != 8*38 {
		t.Fatalf("burst schedule has %d arrivals, want 38 bursts of 8", len(burst))
	}
	for i, s := range burst {
		if want := time.Duration(i/8) * period; s.due != want {
			t.Fatalf("arrival %d due at %v, want %v", i, s.due, want)
		}
	}
	again := buildSchedule(7, 300, 8, time.Second, 16)
	other := buildSchedule(8, 300, 8, time.Second, 16)
	same, differs := true, false
	for i := range burst {
		same = same && burst[i] == again[i]
		differs = differs || burst[i].frame != other[i].frame
	}
	if !same || !differs {
		t.Errorf("schedule must be a function of the seed: same seed equal=%v, other seed differs=%v", same, differs)
	}
}

// fakeClock only moves when someone sleeps or a stub advances it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// A server that stalls once must see the stall charged to every request
// that was due while it was stuck: latency runs from the due instant, and
// late sends are neither dropped nor given a fresh due time.  (imsload
// -rate times from the actual send and so hides exactly this.)
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const service, stall = 1 * ms, 100 * ms
	calls := 0
	do := func(conn, frame int) (outcome, *acqserver.Result) {
		calls++
		clk.now = clk.now.Add(service)
		if calls == 3 { // the third request hangs
			clk.now = clk.now.Add(stall)
		}
		return outcomeOK, nil
	}
	sched := buildSchedule(1, 100, 1, 200*ms, 4) // every 10 ms: 20 arrivals
	synchronous := func(f func()) { f() }        // one sender: sends queue behind the stall
	samples := runOpen(clk, synchronous, sched, 2, openWindow, do)

	if calls != len(sched) || len(samples) != len(sched) {
		t.Fatalf("%d of %d scheduled requests were sent", calls, len(sched))
	}
	for i, s := range samples {
		if s.due != sched[i].due {
			t.Fatalf("request %d was re-timed: due %v, scheduled %v", i, s.due, sched[i].due)
		}
	}
	// Request 2 (due 20 ms) returns at 121 ms.  Requests 3..12 were due
	// at 30..120 ms, while the server hung: each waits for the stall.
	if got := samples[2].latency(); got != service+stall {
		t.Errorf("stalled request latency = %v, want %v", got, service+stall)
	}
	for i := 3; i <= 12; i++ {
		sentAt := 121*ms + time.Duration(i-3)*service
		if samples[i].sent != sentAt {
			t.Errorf("request %d sent at %v, want %v (right behind the stall)", i, samples[i].sent, sentAt)
		}
		want := sentAt + service - sched[i].due
		if got := samples[i].latency(); got != want {
			t.Errorf("request %d latency = %v, want %v (from its due instant)", i, got, want)
		}
		if fromSend := samples[i].done - samples[i].sent; fromSend != service {
			t.Errorf("request %d: timing from the send would have reported %v", i, fromSend)
		}
	}
	// Once the backlog is gone the generator is on schedule again.
	if last := samples[len(samples)-1]; last.sent != last.due || last.latency() != service {
		t.Errorf("last request: sent %v due %v latency %v, want on time", last.sent, last.due, last.latency())
	}
	if got, want := maxLate(samples), 121*ms-30*ms; got != want {
		t.Errorf("max lateness = %v, want %v", got, want)
	}
}

func TestPayloadPrefixRoundTrip(t *testing.T) {
	pool, err := buildPool(workload{Path: acqserver.PathCPU, TOFBins: 16, Encodings: []frameio.Encoding{frameio.Raw}}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []acqserver.FrameOptions{
		{Path: acqserver.PathHybrid},
		{Path: acqserver.PathCPU, Deadline: 1234 * time.Millisecond},
	} {
		payload, err := encodePayload(pool.frames[0].frame, frameio.Delta, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := acqserver.SplitFramePayload(payload)
		if err != nil || got != opts {
			t.Fatalf("SplitFramePayload = %+v, %v; want %+v", got, err, opts)
		}
		if len(rest) != len(payload)-5 {
			t.Fatalf("prefix is %d bytes, want 5", len(payload)-len(rest))
		}
	}
}

func TestReferenceEqualsServerOnBothPaths(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []acqserver.Path{acqserver.PathCPU, acqserver.PathHybrid} {
		w := workload{Name: path.String(), Path: path, TOFBins: 64, Encodings: []frameio.Encoding{frameio.Delta}, InFlight: 1}
		r, err := setUp(w, runConfig{seed: 5, poolSize: 1, walBase: dir}, nil, nil)
		if err != nil {
			t.Fatalf("%v path: %v", path, err)
		}
		out, res := r.do(0, 0)
		if out != outcomeOK || len(res.Peaks) < len(mixtureDefs) {
			t.Errorf("%v path: outcome %d, result %+v", path, out, res)
		}
		// The check must be able to fail: a shifted centroid is a mismatch.
		pf := r.pool.frames[0]
		bad := append([]acqserver.PeakSummary(nil), pf.want...)
		bad[0].Centroid += 1e-9
		forged := &acqserver.Response{Code: acqserver.CodeOK, Result: &acqserver.Result{Peaks: bad, SimulatedNs: pf.simulatedNs}}
		if got := pf.check(forged, nil); got != outcomeMismatch {
			t.Errorf("%v path: forged response classified %d, want mismatch", path, got)
		}
		if got := pf.check(&acqserver.Response{Code: acqserver.CodeResourceExhausted}, nil); got != outcomeShed {
			t.Errorf("shed response classified %d", got)
		}
		if err := r.close(); err != nil {
			t.Error(err)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.Name)
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, spec.Workloads[i].Name, w.Name)
		}
		if why := spec.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(why))
		}
	}
	match := func(kind string, defs []metricDef, got []specMetric, bounded bool) {
		if len(defs) != len(got) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code has %d", len(got), kind, len(defs))
		}
		for i, d := range defs {
			checkName(kind, d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is not a valid unit", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %s/%s/%s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, g.Bound)
			}
		}
	}
	match("end_to_end", endToEnd, spec.EndToEnd, true)
	match("per_layer", perLayer, spec.PerLayer, false)
	if m := spec.bounds()["setup_s"]; m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s must be declared in seconds, lower is better: %+v", m)
	}
}

func TestResultLineIsTheContract(t *testing.T) {
	res := &runResult{Workload: "ingest_cpu_wide", Attempted: 10, OK: 9, Metrics: map[string]float64{"throughput_fps": 123.456}}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if *got.Correct || *got.Attempted != 10 || *got.Failed != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", *got.Correct, *got.Attempted, *got.Failed)
	}
	if len(got.Metrics) != len(endToEnd) || *got.Metrics["throughput_fps"].Value != 123.456 || got.Metrics["setup_s"].Unit != "s" {
		t.Errorf("untraced line must carry exactly the end-to-end metrics: %+v", got.Metrics)
	}
	res.Trace = true
	var traced struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(res)), &traced); err != nil || len(traced.Metrics) != len(perLayer) {
		t.Errorf("traced line must carry exactly the per-layer metrics: %d, %v", len(traced.Metrics), err)
	}
}

func TestCompareRules(t *testing.T) {
	a := fingerprint{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", GitCommit: "aaa", Seed: 1}
	b := a
	b.GitCommit = "bbb"
	if err := a.sameMachine(b); err != nil {
		t.Errorf("a different commit is what a comparison is for: %v", err)
	}
	b.NProc = 8
	if err := a.sameMachine(b); err == nil {
		t.Error("results from machines with different core counts must not be compared")
	}
	b = a
	b.Seed = 2
	if err := a.sameMachine(b); err == nil {
		t.Error("results from different seeds must not be compared")
	}

	steadyA := []float64{100, 101, 100, 99, 100}
	for _, c := range []struct {
		name   string
		better string
		b      []float64
		want   string
	}{
		{"same", "lower", []float64{100, 100, 101, 99, 100}, "within bound"},
		{"slower", "lower", []float64{110, 111, 110, 109, 110}, "REGRESSION"},
		{"slower throughput", "higher", []float64{90, 91, 90, 89, 90}, "REGRESSION"},
		{"faster", "lower", []float64{95, 96, 95, 94, 95}, "better"},
		{"noisy", "lower", []float64{80, 120, 100, 90, 115}, "unresolved (spread exceeds the bound)"},
		{"noisy but every run worse", "lower", []float64{150, 190, 170, 160, 185}, "worse (every run)"},
	} {
		if got := verdict(c.better, steadyA, c.b, 0.05); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// The smoke run drives all four topologies through every phase (set-up,
// warm-up, closed, ladder, open, recovery) and shuts everything down.
func TestSmokeAllTopologies(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, w := range workloads {
		cfg := smokeConfig(true)
		cfg.seed, cfg.outDir, cfg.walBase = 2007, dir, dir
		res, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.failed() != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed", w.Name, res.failed(), res.Attempted)
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: traced run did not report %s", w.Name, d.Name)
			}
		}
		zero := func(prefix string) bool {
			for name, v := range res.Metrics {
				if strings.HasPrefix(name, prefix) && v != 0 {
					return false
				}
			}
			return true
		}
		if got := zero("framelog."); got != !w.WAL {
			t.Errorf("%s: framelog.* all zero = %v", w.Name, got)
		}
		if got := zero("gateway."); got != !w.Gateway {
			t.Errorf("%s: gateway.* all zero = %v", w.Name, got)
		}
		if got := zero("fpga.deconvolve") && zero("hybrid."); got != (w.Path != acqserver.PathHybrid) {
			t.Errorf("%s: fpga/hybrid all zero = %v", w.Name, got)
		}
		// By construction: on-path layer sum + unattributed = request median.
		sum := res.Metrics["acqserver.unattributed_us"]
		for _, name := range onPath(w) {
			sum += res.Metrics[map[string]string{
				spanRead: "frameio.read_us_per_frame", spanAppend: "framelog.append_us_per_frame",
				spanDeconvolve: "pipeline.deconvolve_us_per_frame", spanOffload: "hybrid.offload_us_per_frame",
				spanPeaks: "peaks.detect_us_per_frame", spanCodec: "acqserver.result_codec_us",
			}[name]]
		}
		if rt := res.Metrics["acqserver.roundtrip_us_p50"]; math.Abs(sum-rt) > 1e-6*rt {
			t.Errorf("%s: layers + unattributed = %g us, request = %g us", w.Name, sum, rt)
		}
	}
	fleet, _ := findWorkload("fleet_narrow_bursty")
	cfg := smokeConfig(false)
	cfg.seed, cfg.outDir, cfg.walBase = 2007, dir, dir
	res, err := runWorkload(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if res.Metrics[d.Name] <= 0 {
			t.Errorf("untraced run: %s = %g, must be positive", d.Name, res.Metrics[d.Name])
		}
	}
	// Every server, gateway, log and client goroutine must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("%d goroutines before, %d after: something was not shut down", before, n)
	}
}
