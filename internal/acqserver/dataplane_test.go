// dataplane_test.go: the pooled data plane — frames decoded into pooled
// frames, borrowed decoder sets, vectored writes — must answer exactly what
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
	"repro/internal/pipeline"
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
// alone, inside a coalesced batch, and replayed from the frame log by
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
	if got := co.m.coalesceFrames.Value(); got < 2 {
		t.Fatalf("only %d frames went through a multi-frame batch", got)
	}

	// Replay: the recovering server's compute step is a hook that runs a
	// second, hook-free server's real compute on the recovered task and
	// keeps its summary — recovered frames answer nobody, so this is the
	// only place their peaks can be seen.
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
		res, err := engine.compute(context.Background(), []*task{tk})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		seen = append(seen, res[0].Peaks)
		mu.Unlock()
		return &res[0], nil
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
// the decoder scratch may carry the poison into the next answer.  Inside a
// coalesced batch the hostile frame shares tiles with a clean one, whose
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
			if cfg.CoalesceWindow > 0 && s.m.coalesceFrames.Value() < 2 {
				t.Errorf("no hostile frame shared a batch with a clean one")
			}
		})
	}
}

// TestPooledFrameReuseAcrossShapes drives one connection with frames that
// alternate width, encoding and compute path, several in flight, so every
// pooled frame and decoder set is reused by a request of another shape.
// Each answer must equal an unpooled reference decode of the same frame: a
// frame recycled while still in use, or a stale cell surviving from the
// previous owner, shows up as a wrong peak list (and, under -race, as a
// race).
func TestPooledFrameReuseAcrossShapes(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard, cfg.CPUWorkersPerFrame = 1, 3, 2
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)

	type variant struct {
		payload []byte
		want    []PeakSummary
	}
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(cfg.Order) }
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
			decoded, err := pipeline.DeconvolveFrame(f, factory, 1)
			if err != nil {
				t.Fatal(err)
			}
			want = s.summarize(decoded.DriftProfile())
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
// Client.DoPayload, must stay within 3.5 KiB and 39 heap objects per frame,
// client side included, on both compute paths — the measured 2.8 KiB and
// 31 objects of the CPU path plus 25 %.  Neither path takes an output
// frame: both reduce into a pooled profile buffer, and peak detection's
// noise estimate works in a pooled one too (the hybrid path, through a
// pooled offloader, measured 2.6 KiB and 25 objects).  (Before the pooled
// data plane the same loop cost 1.5 MiB per frame.)  The steady state is
// the cheapest of four 100-frame windows: a sync.Pool miss — an item
// parked in another P's private slot,
// or a collection emptying the pools — re-allocates a whole 1 MiB frame
// once, 10 KiB per frame of its window, and is not a per-frame cost; a
// per-frame regression shows in every window.  A lone frame through the
// coalescer is held to the measured solo CPU figure plus the gather timer's
// three objects and one of slack: the batch lives in the worker, so two
// slices allocated per batch fail it.
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
		{"cpu", 0, PathCPU, 3.5, 39},
		{"hybrid", 0, PathHybrid, 3.5, 39},
		{"cpu coalescing", 200 * time.Microsecond, PathCPU, 3.8, 35},
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
