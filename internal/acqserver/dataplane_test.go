// dataplane_test.go: the pooled data plane — frames decoded into pooled
// frames, pooled profile buffers, vectored writes — must answer exactly what
// an unpooled decode of the same bytes answers, however frames of different
// shapes and encodings chase each other through the pools, and must not
// allocate per frame (TestServeFrameAllocs, part of `make allocgate`).
package acqserver

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/prs"
)

// signalFrame is a multiplexed frame of integral counts with two drift
// peaks per column over a low pseudo-random floor, so the result summary
// carries peaks (testFrame's ramp has none worth comparing).
func signalFrame(t testing.TB, order, tofBins int, seed int64) *instrument.Frame {
	t.Helper()
	seq := prs.MustMSequence(order)
	n := len(seq)
	rng := rand.New(rand.NewSource(seed))
	f := instrument.NewFrame(n, tofBins)
	a, b := n/4+rng.Intn(3), 2*n/3+rng.Intn(3)
	for c := 0; c < tofBins; c++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(3))
		}
		for d, h := range []float64{40, 160, 400, 160, 40} {
			x[a-2+d] += h
			x[b-2+d] += h / 2
		}
		y, err := hadamard.Encode(seq, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			y[i] = math.Round(y[i]) // Encode convolves by FFT; counts are integral
		}
		f.SetDriftVector(c, y)
	}
	return f
}

// encodedPayload encodes a FRAME message payload: options, then the frame
// in the given encoding.
func encodedPayload(t testing.TB, f *instrument.Frame, enc frameio.Encoding, opts FrameOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(encodeFrameOpts(nil, opts))
	if err := frameio.Write(&buf, f, nil, enc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func samePeaks(a, b []PeakSummary) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPeaksIdenticalSoloCoalescedRecovered serves one payload three ways —
// alone, gathered with others by the coalescer, and replayed from the frame log by
// RecoverFrames — and requires the same peaks, exactly, each time.
func TestPeaksIdenticalSoloCoalescedRecovered(t *testing.T) {
	payload := encodedPayload(t, signalFrame(t, 5, 23, 1), frameio.Delta, FrameOptions{Path: PathCPU})

	_, soloAddr := startServer(t, testConfig())
	solo, err := dialClient(t, soloAddr).DoPayload(context.Background(), payload, 0)
	if err != nil || solo.Code != CodeOK {
		t.Fatalf("solo: %v / %+v", err, solo)
	}
	if len(solo.Result.Peaks) < 2 {
		t.Fatalf("fixture too quiet: %d peaks", len(solo.Result.Peaks))
	}

	co, coAddr := startServer(t, coalesceConfig(200*time.Millisecond, 3))
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(coAddr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			resp, err := c.DoPayload(context.Background(), payload, 0)
			if err != nil || resp.Code != CodeOK {
				t.Errorf("coalesced: %v / %+v", err, resp)
				return
			}
			if !samePeaks(resp.Result.Peaks, solo.Result.Peaks) {
				t.Errorf("coalesced peaks %+v != solo %+v", resp.Result.Peaks, solo.Result.Peaks)
			}
		}()
	}
	wg.Wait()
	if !gatheredTogether(co) {
		t.Fatal("no batch gathered two frames")
	}

	// Replay: the recovering server's compute step is a hook that runs a
	// second, hook-free server's real compute (on a worker state of its
	// own) on the recovered task and keeps its summary — recovered frames
	// answer nobody, so this is the only place their peaks can be seen.
	dir := t.TempDir()
	wal := openWAL(t, dir, framelog.FsyncNone)
	const replayed = 3
	for i := 0; i < replayed; i++ {
		if _, err := wal.Append(uint64(i+1), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	engine, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Shutdown(context.Background())
	var mu sync.Mutex
	var seen [][]PeakSummary
	cfg := testConfig()
	cfg.FrameLog = openWAL(t, dir, framelog.FsyncNone)
	cfg.processHook = func(tk *task) (*Result, error) {
		ws, err := engine.newWorkerState()
		if err != nil {
			return nil, err
		}
		res, err := engine.compute(context.Background(), ws, tk)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		seen = append(seen, res.Peaks)
		mu.Unlock()
		return &res, nil
	}
	rec, _ := startServer(t, cfg)
	if n, err := rec.RecoverFrames(context.Background()); err != nil || n != replayed {
		t.Fatalf("RecoverFrames = %d, %v", n, err)
	}
	waitFor(t, "recovered frames to process", func() bool { return rec.m.recovered["ok"].Value() == replayed })
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != replayed {
		t.Fatalf("saw %d recovered results, want %d", len(seen), replayed)
	}
	for i, p := range seen {
		if !samePeaks(p, solo.Result.Peaks) {
			t.Fatalf("recovered frame %d peaks %+v != solo %+v", i, p, solo.Result.Peaks)
		}
	}
}

// TestNonFiniteRawCellsAnswered: a Raw frame may carry any float64.  One NaN
// or infinity spreads through its column's whole transform, so the drift
// profile handed to peak detection is NaN from end to end — the noise
// selection must terminate, the worker must not panic, the request must be
// answered (OK or a typed error), and neither the pooled profile buffer nor
// the decoder scratch may carry the poison into the next answer.  Through a
// coalescing server the hostile frame is gathered with a clean one, whose
// answer must not move.
func TestNonFiniteRawCellsAnswered(t *testing.T) {
	good := signalFrame(t, 5, 23, 1)
	goodPayload := encodedPayload(t, good, frameio.Delta, FrameOptions{Path: PathCPU})
	var hostile [][]byte
	for _, poison := range [][]float64{
		{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {math.MaxFloat64},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
	} {
		f := instrument.NewFrame(good.DriftBins, good.TOFBins)
		copy(f.Data, good.Data)
		for i := 0; i < len(f.Data); i += 37 {
			f.Data[i] = poison[i%len(poison)]
		}
		for _, path := range []Path{PathCPU, PathHybrid} {
			hostile = append(hostile, encodedPayload(t, f, frameio.Raw, FrameOptions{Path: path}))
		}
	}
	do := func(c *Client, payload []byte) *Response {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		resp, err := c.DoPayload(ctx, payload, 0)
		if err != nil {
			t.Fatalf("no answer: %v", err)
		}
		return resp
	}
	for name, cfg := range map[string]Config{"solo": testConfig(), "coalesced": coalesceConfig(80*time.Millisecond, 2)} {
		t.Run(name, func(t *testing.T) {
			s, addr := startServer(t, cfg)
			c, other := dialClient(t, addr), dialClient(t, addr)
			want := do(c, goodPayload)
			if want.Code != CodeOK || len(want.Result.Peaks) < 2 {
				t.Fatalf("fixture: %+v", want)
			}
			for i, payload := range hostile {
				// The clean frame travels beside the hostile one (same batch
				// when coalescing), then alone through the recycled buffers.
				beside := make(chan *Response, 1)
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					resp, err := other.DoPayload(ctx, goodPayload, 0)
					if err != nil {
						t.Errorf("hostile frame %d: clean frame beside it got no answer: %v", i, err)
					}
					beside <- resp
				}()
				if resp := do(c, payload); resp.Code != CodeOK && resp.Code != CodeInternal && resp.Code != CodeInvalidArgument {
					t.Errorf("hostile frame %d answered %v", i, resp.Code)
				}
				for _, resp := range []*Response{<-beside, do(c, goodPayload)} {
					if resp == nil {
						continue
					}
					if resp.Code != CodeOK || !samePeaks(resp.Result.Peaks, want.Result.Peaks) {
						t.Fatalf("after hostile frame %d: clean frame answered %+v, want peaks %+v", i, resp, want.Result.Peaks)
					}
				}
			}
			if got := s.m.panics["worker"].Value(); got != 0 {
				t.Errorf("%d worker panics", got)
			}
			if cfg.CoalesceWindow > 0 && !gatheredTogether(s) {
				t.Errorf("no hostile frame was gathered with a clean one")
			}
		})
	}
}

// TestPooledFrameReuseAcrossShapes drives one connection with frames that
// alternate width, encoding and compute path, several in flight, so every
// pooled frame, profile buffer and worker decoder is reused by a request of
// another shape.  Each answer must equal a reference decode of the same
// frame, column by column or through a fresh offloader: a
// frame recycled while still in use, or a stale cell surviving from the
// previous owner, shows up as a wrong peak list (and, under -race, as a
// race).
func TestPooledFrameReuseAcrossShapes(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard = 1, 3
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)

	type variant struct {
		payload []byte
		want    []PeakSummary
	}
	dec, err := hadamard.NewFHTDecoder(cfg.Order)
	if err != nil {
		t.Fatal(err)
	}
	var variants []variant
	for i, v := range []struct {
		tof  int
		enc  frameio.Encoding
		path Path
	}{
		{64, frameio.Delta, PathCPU}, {5, frameio.Raw, PathCPU}, {64, frameio.Raw, PathHybrid},
		{17, frameio.Delta, PathCPU}, {1, frameio.Delta, PathHybrid}, {33, frameio.Raw, PathCPU},
	} {
		f := signalFrame(t, cfg.Order, v.tof, int64(10+i))
		var want []PeakSummary
		if v.path == PathCPU {
			want = s.summarize(columnProfile(t, dec, f))
		} else {
			hr, err := hybrid.HybridDeconvolveFrame(f, s.offload) // a fresh offloader into a fresh frame
			if err != nil {
				t.Fatal(err)
			}
			want = s.summarize(hr.Decoded.DriftProfile())
		}
		if len(want) == 0 {
			t.Fatalf("variant %d: fixture has no peaks", i)
		}
		variants = append(variants, variant{encodedPayload(t, f, v.enc, FrameOptions{Path: v.path}), want})
	}

	const inFlight, perWorker = 4, 60
	var wg sync.WaitGroup
	for g := 0; g < inFlight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				v := variants[(g+k)%len(variants)]
				resp, err := c.DoPayload(context.Background(), v.payload, 0)
				if err != nil || resp.Code != CodeOK {
					t.Errorf("request %d/%d: %v / %+v", g, k, err, resp)
					return
				}
				if !samePeaks(resp.Result.Peaks, v.want) {
					t.Errorf("request %d/%d (variant %d): peaks %+v, reference %+v",
						g, k, (g+k)%len(variants), resp.Result.Peaks, v.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// A rejected frame must not poison the pool either: a good frame with
	// the wrong drift-bin count is decoded into a pooled frame, refused and
	// recycled.
	bad := encodedPayload(t, instrument.NewFrame(15, 4), frameio.Delta, FrameOptions{Path: PathCPU})
	if resp, err := c.DoPayload(context.Background(), bad, 0); err != nil || resp.Code != CodeInvalidArgument {
		t.Fatalf("wrong-order frame: %v / %+v", err, resp)
	}
	resp, err := c.DoPayload(context.Background(), variants[0].payload, 0)
	if err != nil || resp.Code != CodeOK || !samePeaks(resp.Result.Peaks, variants[0].want) {
		t.Fatalf("after a rejected frame: %v / %+v", err, resp)
	}
}

// TestServeFrameAllocs is the serving path's allocation gate: an in-process
// server on loopback, warm, answering wide delta frames through
// Client.DoPayload, must stay within its budget of heap bytes and objects
// per frame, client side included.  Neither path takes an output frame:
// the CPU path transforms the frame's row sums into a pooled profile
// buffer (measured 2.4 KiB and 23 objects; budget 2.8 KiB and 26), the
// hybrid path reduces into one through a pooled offloader (measured
// 2.6 KiB and 25 objects; budget 3.5 KiB and 39), and peak detection's
// noise estimate works in a pooled one too.  (Before the pooled data plane
// the same loop cost 1.5 MiB per frame.)  The steady state is the cheapest
// of four 100-frame windows: a sync.Pool miss — an item parked in another
// P's private slot, or a collection emptying the pools — re-allocates a
// whole 512 KiB counts frame once (the integral frames served here are
// held as int32 counts), 5 KiB per frame of its window, and is not a
// per-frame cost; a per-frame regression shows in every window.  A lone
// frame through the coalescer pays the gather timer's three objects on top
// (measured 2.6 KiB and 26 objects; budget 3.0 KiB and 29): the batch lives
// in the worker, so two slices allocated per batch fail it.
func TestServeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if testing.Short() {
		t.Skip("serves 1350 order-9 frames")
	}
	frame := signalFrame(t, DefaultConfig().Order, 256, 7)
	for _, tc := range []struct {
		name   string
		window time.Duration
		path   Path
		kib    float64
		objs   float64
	}{
		{"cpu", 0, PathCPU, 2.8, 26},
		{"hybrid", 0, PathHybrid, 3.5, 39},
		{"cpu coalescing", 200 * time.Microsecond, PathCPU, 3.0, 29},
	} {
		cfg := DefaultConfig()
		cfg.Shards, cfg.WorkersPerShard = 1, 1
		cfg.CoalesceWindow, cfg.CoalesceFillTarget = tc.window, 2
		_, addr := startServer(t, cfg)
		c := dialClient(t, addr)
		payload := encodedPayload(t, frame, frameio.Delta, FrameOptions{Path: tc.path})
		serve := func(n int) {
			for i := 0; i < n; i++ {
				resp, err := c.DoPayload(context.Background(), payload, 0)
				if err != nil || resp.Code != CodeOK {
					t.Fatalf("%s frame %d: %v / %+v", tc.name, i, err, resp)
				}
			}
		}
		serve(50) // warm the pools and the client buffer
		runtime.GC()
		const windows, frames = 4, 100
		kib, objs := math.Inf(1), math.Inf(1)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			serve(frames)
			runtime.ReadMemStats(&after)
			kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/frames)
			objs = min(objs, float64(after.Mallocs-before.Mallocs)/frames)
		}
		t.Logf("%s: %.1f KiB and %.1f objects allocated per frame", tc.name, kib, objs)
		if kib > tc.kib || objs > tc.objs {
			t.Errorf("%s allocates %.1f KiB in %.1f objects per frame, budget is %.1f KiB and %.0f objects",
				tc.name, kib, objs, tc.kib, tc.objs)
		}
	}
}

// servedInput is one row of TestServedInputMatrix: a frame, its encoding,
// and whether the server holds it as int32 counts.
type servedInput struct {
	name   string
	frame  *instrument.Frame
	enc    frameio.Encoding
	counts bool
}

// servedInputs are the frames frameio.ReadCounts decides between: integral
// Delta and Raw frames (counts), a Raw frame with one fractional cell and a
// Delta frame with a cell past int32 (both promoted to float mid-read), a
// Delta frame of counts whose DriftBins·Bound passes 2^31 (the int64
// network), and a 20-column frame (a full tile and a narrow one).
func servedInputs(t *testing.T, order int) []servedInput {
	scaled := func(f *instrument.Frame, gain float64) *instrument.Frame {
		for i := range f.Data {
			f.Data[i] *= gain
		}
		return f
	}
	fractional := signalFrame(t, order, 23, 62)
	fractional.Data[7*23+3] += 0.5
	wide := signalFrame(t, order, 23, 63)
	wide.Data[11*23+5] = 3e9
	return []servedInput{
		{"delta", signalFrame(t, order, 23, 60), frameio.Delta, true},
		{"raw integral", signalFrame(t, order, 23, 61), frameio.Raw, true},
		{"raw fractional", fractional, frameio.Raw, false},
		{"delta past int32", wide, frameio.Delta, false},
		{"delta past the int32 network", scaled(signalFrame(t, order, 23, 64), 1e5), frameio.Delta, true},
		{"20 columns", signalFrame(t, order, 20, 65), frameio.Delta, true},
	}
}

// TestServedInputMatrix serves every servedInputs frame on both paths —
// solo, all at once through a coalescing server (so a gathered batch mixes
// counts and float frames), and replayed from the frame log — and requires
// exactly what a float reference answers for the same cells: for the CPU
// path the frame decoded column by column (every input here is exactly
// summable, see driftProfile), for the hybrid path its float-source tile
// path (which TestHybridPathMatchesScalarCore pins to the scalar core).
// Peaks, Saturations and SimulatedNs must all match.
func TestServedInputMatrix(t *testing.T) {
	cfg := testConfig()
	probe, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Shutdown(context.Background())
	inputs := servedInputs(t, cfg.Order)
	dec, err := hadamard.NewFHTDecoder(cfg.Order)
	if err != nil {
		t.Fatal(err)
	}
	off, err := hybrid.NewOffloader(probe.offload)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		payload []byte
		want    Result
	}
	var rows []row
	for _, path := range []Path{PathCPU, PathHybrid} {
		for _, in := range inputs {
			c, f, _, err := frameio.ReadCounts(bytes.NewReader(encodedPayload(t, in.frame, in.enc, FrameOptions{})[frameOptsSize:]), probe.limits, nil)
			if err != nil || (c != nil) != in.counts || (f != nil) == in.counts {
				t.Fatalf("%s: read as counts %v, float %v (%v); want counts %v", in.name, c != nil, f != nil, err, in.counts)
			}
			profile := make([]float64, in.frame.DriftBins)
			var want Result
			if path == PathCPU {
				profile = columnProfile(t, dec, in.frame)
			} else {
				var hr *hybrid.HybridResult
				if hr, err = off.DeconvolveProfileInto(context.Background(), profile, in.frame); err == nil {
					want.Saturations, want.SimulatedNs = uint64(hr.Saturations), uint64(hr.SimulatedTimeS*1e9)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			want.Peaks = probe.summarize(profile)
			rows = append(rows, row{encodedPayload(t, in.frame, in.enc, FrameOptions{Path: path}), want})
		}
	}
	name := func(i int) string { return Path(i/len(inputs)).String() + " " + inputs[i%len(inputs)].name }
	if name(0) == name(len(inputs)) {
		t.Fatal("paths not told apart")
	}
	check := func(mode string, i int, got Result) {
		t.Helper()
		want := rows[i].want
		if !samePeaks(got.Peaks, want.Peaks) || got.Saturations != want.Saturations || got.SimulatedNs != want.SimulatedNs {
			t.Errorf("%s %s: peaks %+v sats %d sim %d; float path %+v sats %d sim %d", mode, name(i),
				got.Peaks, got.Saturations, got.SimulatedNs, want.Peaks, want.Saturations, want.SimulatedNs)
		}
	}
	if len(rows[0].want.Peaks) < 2 {
		t.Fatalf("fixture too quiet: %+v", rows[0].want)
	}

	_, soloAddr := startServer(t, cfg)
	solo := dialClient(t, soloAddr)
	for i, r := range rows {
		resp, err := solo.DoPayload(context.Background(), r.payload, 0)
		if err != nil || resp.Code != CodeOK {
			t.Fatalf("solo %s: %v / %+v", name(i), err, resp)
		}
		check("solo", i, *resp.Result)
	}

	co, coAddr := startServer(t, coalesceConfig(200*time.Millisecond, len(inputs)))
	var wg sync.WaitGroup
	for i, r := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(coAddr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			resp, err := c.DoPayload(context.Background(), r.payload, 0)
			if err != nil || resp.Code != CodeOK {
				t.Errorf("coalesced %s: %v / %+v", name(i), err, resp)
				return
			}
			check("coalesced", i, *resp.Result)
		}()
	}
	wg.Wait()
	if !gatheredTogether(co) {
		t.Error("no batch gathered two frames")
	}

	dir := t.TempDir()
	wal := openWAL(t, dir, framelog.FsyncNone)
	for i, r := range rows {
		if _, err := wal.Append(uint64(i+1), r.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	recovered := map[int]Result{}
	rcfg := testConfig()
	rcfg.FrameLog = openWAL(t, dir, framelog.FsyncNone)
	rcfg.processHook = func(tk *task) (*Result, error) {
		ws, err := probe.newWorkerState()
		if err != nil {
			return nil, err
		}
		res, err := probe.compute(context.Background(), ws, tk)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		recovered[int(tk.traceID)-1] = res
		mu.Unlock()
		return &res, nil
	}
	rec, _ := startServer(t, rcfg)
	if n, err := rec.RecoverFrames(context.Background()); err != nil || n != len(rows) {
		t.Fatalf("RecoverFrames = %d, %v", n, err)
	}
	waitFor(t, "recovered frames to process", func() bool { return rec.m.recovered["ok"].Value() == int64(len(rows)) })
	mu.Lock()
	defer mu.Unlock()
	for i := range rows {
		check("recovered", i, recovered[i])
	}
}
