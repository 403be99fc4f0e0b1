package hybrid

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fpga"
	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/prs"
	"repro/internal/xd1"
)

func TestAnalyzeDataPathReference(t *testing.T) {
	r, err := AnalyzeDataPath(DefaultDataPathConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The digitizer runs at its native 2 GS/s.
	if math.Abs(r.RawByteRate-2e9) > 1 {
		t.Errorf("raw byte rate %g", r.RawByteRate)
	}
	// On-FPGA rebinning plus accumulation collapses the stream by orders
	// of magnitude.
	if r.ReductionFactor < 50 {
		t.Errorf("reduction factor %g, want > 50", r.ReductionFactor)
	}
	if !r.RealTime {
		t.Error("reference front end must keep up in real time")
	}
	if r.RawFabricUtilization <= r.AccumulatedFabricUtilization {
		t.Error("accumulation must reduce fabric load")
	}
	if r.FPGAUtilization <= 0 || r.FPGAUtilization > 1 {
		t.Errorf("FPGA utilization %g out of (0,1]", r.FPGAUtilization)
	}
	if !r.BRAMOK {
		t.Log("accumulator exceeds on-chip BRAM: spills to attached QDR (as on the real XD1)")
	}
	if r.FramesPerSec <= 0 || r.FrameBytes <= 0 {
		t.Error("frame geometry not computed")
	}
}

// TestAnalyzeDataPathMoreAveragingMoreReduction: accumulating more cycles
// on-FPGA increases the data reduction factor proportionally.
func TestAnalyzeDataPathMoreAveragingMoreReduction(t *testing.T) {
	base := DefaultDataPathConfig()
	r1, _ := AnalyzeDataPath(base)
	base.CyclesAccumulated *= 4
	r4, _ := AnalyzeDataPath(base)
	if math.Abs(r4.ReductionFactor/r1.ReductionFactor-4) > 0.01 {
		t.Errorf("reduction ratio %g, want 4", r4.ReductionFactor/r1.ReductionFactor)
	}
}

func TestAnalyzeDataPathNativeRateValidation(t *testing.T) {
	bad := DefaultDataPathConfig()
	bad.NativeSampleRate = 0
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("zero native rate should fail")
	}
}

func TestAnalyzeDataPathValidation(t *testing.T) {
	bad := DefaultDataPathConfig()
	bad.SamplesPerSpectrum = 0
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("zero samples")
	}
	bad = DefaultDataPathConfig()
	bad.SpectraPerSec = 0
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("zero rate")
	}
	bad = DefaultDataPathConfig()
	bad.AccumWordBytes = 9
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("wide words")
	}
	bad = DefaultDataPathConfig()
	bad.AccumBanks = 0
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("zero banks")
	}
	bad = DefaultDataPathConfig()
	bad.Node.Fabric.BandwidthBytes = 0
	if _, err := AnalyzeDataPath(bad); err == nil {
		t.Error("invalid node")
	}
}

func TestAnalyzeOffloadReference(t *testing.T) {
	r, err := AnalyzeOffload(DefaultOffloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.ColumnCycles <= 0 || r.ComputeTimeS <= 0 {
		t.Fatal("compute budget not computed")
	}
	if r.FramesPerSec <= 0 {
		t.Fatal("frame rate not computed")
	}
	// The frame time is the max of the stages.
	max := math.Max(r.ComputeTimeS, math.Max(r.TransferInS, r.TransferOutS))
	if r.FrameTimeS != max {
		t.Error("frame time should be the slowest stage (double buffering)")
	}
	if r.Bottleneck == "" {
		t.Error("bottleneck not named")
	}
	// The reference instrument produces ~2 accumulated frames/s; the
	// offload must beat that with margin (real-time requirement).
	if r.FramesPerSec < 2 {
		t.Errorf("offload sustains %g frames/s, below instrument rate", r.FramesPerSec)
	}
}

// TestOffloadParallelismHelps: more butterfly units raise the frame rate
// until transfers dominate.
func TestOffloadParallelismHelps(t *testing.T) {
	slow := DefaultOffloadConfig()
	slow.ButterflyUnits = 1
	fast := DefaultOffloadConfig()
	fast.ButterflyUnits = 16
	fast.MemPorts = 8
	rs, _ := AnalyzeOffload(slow)
	rf, _ := AnalyzeOffload(fast)
	if rf.FramesPerSec <= rs.FramesPerSec {
		t.Errorf("16 butterflies (%g fps) should beat 1 (%g fps)", rf.FramesPerSec, rs.FramesPerSec)
	}
}

func TestAnalyzeOffloadValidation(t *testing.T) {
	bad := DefaultOffloadConfig()
	bad.TOFColumns = 0
	if _, err := AnalyzeOffload(bad); err == nil {
		t.Error("zero columns")
	}
	bad = DefaultOffloadConfig()
	bad.WordBytes = 0
	if _, err := AnalyzeOffload(bad); err == nil {
		t.Error("zero word bytes")
	}
	bad = DefaultOffloadConfig()
	bad.DMABurstBytes = 0
	if _, err := AnalyzeOffload(bad); err == nil {
		t.Error("zero burst")
	}
	bad = DefaultOffloadConfig()
	bad.Order = 1
	if _, err := AnalyzeOffload(bad); err == nil {
		t.Error("bad order")
	}
}

func TestHybridDeconvolveFrame(t *testing.T) {
	order := 7
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(90))
	cols := 16
	truth := instrument.NewFrame(n, cols)
	enc := instrument.NewFrame(n, cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, n)
		x[rng.Intn(n)] = 100 + rng.Float64()*900
		y, _ := hadamard.Encode(s, x)
		truth.SetDriftVector(c, x)
		enc.SetDriftVector(c, y)
	}
	cfg := DefaultOffloadConfig()
	cfg.Order = order
	cfg.Format = fpga.MustQ(40, 10)
	res, err := HybridDeconvolveFrame(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SimulatedTimeS <= 0 {
		t.Error("no simulated time")
	}
	if res.Saturations != 0 {
		t.Errorf("saturations %d with wide format", res.Saturations)
	}
	for c := 0; c < cols; c++ {
		e, _ := hadamard.ReconstructionError(res.Decoded.DriftVector(c), truth.DriftVector(c))
		if e > 1e-3 {
			t.Fatalf("column %d error %g", c, e)
		}
	}
}

func TestHybridDeconvolveFrameErrors(t *testing.T) {
	if _, err := HybridDeconvolveFrame(nil, DefaultOffloadConfig()); err == nil {
		t.Error("nil frame")
	}
	f := instrument.NewFrame(10, 4) // not 2^n-1 drift bins
	cfg := DefaultOffloadConfig()
	cfg.Order = 7
	if _, err := HybridDeconvolveFrame(f, cfg); err == nil {
		t.Error("geometry mismatch")
	}
	bad := DefaultOffloadConfig()
	bad.WordBytes = 0
	if _, err := HybridDeconvolveFrame(instrument.NewFrame(127, 4), bad); err == nil {
		t.Error("invalid config")
	}
}

func TestSoftwareEstimate(t *testing.T) {
	est := SoftwareEstimate{MeasuredFrameS: 0.1, HostClockHz: 3e9}
	// On a 1.5 GHz, 2-core target: 0.1 × 2 / 2 = 0.1 s.
	got, err := est.FrameTimeOn(xd1.CPU{Cores: 2, ClockHz: 1.5e9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("frame time %g, want 0.1", got)
	}
	// More cores help linearly.
	got4, _ := est.FrameTimeOn(xd1.CPU{Cores: 4, ClockHz: 1.5e9})
	if math.Abs(got4-0.05) > 1e-12 {
		t.Errorf("4-core frame time %g, want 0.05", got4)
	}
	if _, err := est.FrameTimeOn(xd1.CPU{}); err == nil {
		t.Error("invalid CPU")
	}
	if _, err := (SoftwareEstimate{}).FrameTimeOn(xd1.OpteronSMP()); err == nil {
		t.Error("empty estimate")
	}
}

// BenchmarkHybridDeconvolveFrame prices the one-shot entry point on 64
// columns: a fresh Offloader (core, permutation ROMs, work tile) and
// output frame per call, so most of what it measures is construction.
// BenchmarkOffloaderProfile is the served shape.
func BenchmarkHybridDeconvolveFrame(b *testing.B) {
	order := 9
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(91))
	cols := 64
	enc := instrument.NewFrame(n, cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, n)
		x[rng.Intn(n)] = 500
		y, _ := hadamard.Encode(s, x)
		enc.SetDriftVector(c, y)
	}
	cfg := DefaultOffloadConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HybridDeconvolveFrame(enc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAnalyzeCluster(t *testing.T) {
	cfg := DefaultOffloadConfig()
	host := xd1.RapidArray()
	r1, err := AnalyzeCluster(cfg, 1, host)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Efficiency < 0.99 || r1.LimitedBy != "compute" {
		t.Errorf("single node should be compute-limited at full efficiency: %+v", r1)
	}
	// Scaling is linear until the host link saturates.
	prev := r1.AggregateFPS
	sawHostLimit := false
	for nodes := 2; nodes <= 64; nodes *= 2 {
		r, err := AnalyzeCluster(cfg, nodes, host)
		if err != nil {
			t.Fatal(err)
		}
		if r.AggregateFPS < prev {
			t.Errorf("%d nodes: aggregate decreased", nodes)
		}
		if r.LimitedBy == "host-link" {
			sawHostLimit = true
			if r.AggregateFPS > r.HostLimitFPS*1.0001 {
				t.Errorf("aggregate %g exceeds host limit %g", r.AggregateFPS, r.HostLimitFPS)
			}
			if r.Efficiency >= 1 {
				t.Errorf("host-limited efficiency %g should be below 1", r.Efficiency)
			}
		}
		prev = r.AggregateFPS
	}
	if !sawHostLimit {
		t.Error("host link never saturated up to 64 nodes — collection model inert")
	}
	if _, err := AnalyzeCluster(cfg, 0, host); err == nil {
		t.Error("zero nodes")
	}
	if _, err := AnalyzeCluster(cfg, 2, xd1.Fabric{}); err == nil {
		t.Error("invalid host link")
	}
	bad := cfg
	bad.Order = 1
	if _, err := AnalyzeCluster(bad, 2, host); err == nil {
		t.Error("invalid offload")
	}
}

// TestOffloaderMatchesHybridDeconvolve pins the reusable Offloader path to
// the one-shot entry point bit for bit across repeated frames, and checks
// the per-frame saturation accounting and geometry guards.
func TestOffloaderMatchesHybridDeconvolve(t *testing.T) {
	order := 7
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(91))
	cols := 12
	cfg := DefaultOffloadConfig()
	cfg.Order = order
	cfg.Format = fpga.MustQ(40, 10)
	o, err := NewOffloader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Len() != n {
		t.Fatalf("offloader length %d, want %d", o.Len(), n)
	}
	for frame := 0; frame < 3; frame++ {
		enc := instrument.NewFrame(n, cols)
		for c := 0; c < cols; c++ {
			x := make([]float64, n)
			x[rng.Intn(n)] = 100 + rng.Float64()*900
			y, _ := hadamard.Encode(s, x)
			enc.SetDriftVector(c, y)
		}
		want, err := HybridDeconvolveFrame(enc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := instrument.NewFrame(n, cols)
		got, err := o.DeconvolveFrameInto(context.Background(), dst, enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Decoded != dst {
			t.Error("result frame is not the caller's dst")
		}
		for i := range dst.Data {
			if dst.Data[i] != want.Decoded.Data[i] {
				t.Fatalf("frame %d cell %d: offloader %v != one-shot %v", frame, i, dst.Data[i], want.Decoded.Data[i])
			}
		}
		if got.Saturations != want.Saturations {
			t.Errorf("frame %d: saturations %d != %d", frame, got.Saturations, want.Saturations)
		}
	}
	if _, err := o.DeconvolveFrameInto(context.Background(), nil, instrument.NewFrame(n, cols)); err == nil {
		t.Error("nil dst accepted")
	}
	if _, err := o.DeconvolveFrameInto(context.Background(), instrument.NewFrame(n, cols+1), instrument.NewFrame(n, cols)); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if _, err := o.DeconvolveFrameInto(context.Background(), instrument.NewFrame(10, cols), instrument.NewFrame(10, cols)); err == nil {
		t.Error("wrong drift bins accepted")
	}
	if _, err := NewOffloader(OffloadConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// servedFrame is a frame of the shape the hybrid path serves: tofBins
// columns of integral counts, a low floor plus three drift peaks per
// column, multiplexed by the order's m-sequence and rounded as an
// acquisition delivers them.
func servedFrame(tb testing.TB, order, tofBins int, seed int64) *instrument.Frame {
	tb.Helper()
	s := prs.MustMSequence(order)
	n := len(s)
	rng := rand.New(rand.NewSource(seed))
	f := instrument.NewFrame(n, tofBins)
	x := make([]float64, n)
	for c := 0; c < tofBins; c++ {
		for i := range x {
			x[i] = float64(rng.Intn(3))
		}
		for k := 0; k < 3; k++ {
			x[rng.Intn(n)] += float64(50 + rng.Intn(400))
		}
		y, err := hadamard.Encode(s, x)
		if err != nil {
			tb.Fatal(err)
		}
		for i := range y {
			y[i] = math.Round(y[i])
		}
		f.SetDriftVector(c, y)
	}
	return f
}

// TestDeconvolveProfileIntoMatchesStore pins the reducing entry point to
// what serving computed before it — DriftProfileInto of the frame
// DeconvolveFrameInto stores — bit for bit, with equal Saturations,
// SimulatedTimeS and Report: one column, ragged, exact and wide tiles,
// both growth policies, gain 1 and a gain that saturates Q23.8, and an
// all-zero frame (gain 0), whose row sums must be +0 as a left-to-right
// sum gives them.  A Format too wide to sum the frame's columns exactly
// is rejected before any work.
func TestDeconvolveProfileIntoMatchesStore(t *testing.T) {
	ctx := context.Background()
	for _, g := range []fpga.GrowthPolicy{fpga.GrowthSaturate, fpga.GrowthScalePerStage} {
		cfg := DefaultOffloadConfig()
		cfg.Growth = g
		store, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reduce, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, width := range []int{1, 15, 16, 17, 64, 250, 256} {
			for _, gain := range []float64{1, 1e4, 0} {
				f := servedFrame(t, cfg.Order, width, int64(i))
				for j := range f.Data {
					f.Data[j] *= gain
				}
				dst := instrument.NewFrame(f.DriftBins, f.TOFBins)
				want, err := store.DeconvolveFrameInto(ctx, dst, f)
				if err != nil {
					t.Fatal(err)
				}
				wantProfile := make([]float64, f.DriftBins)
				dst.DriftProfileInto(wantProfile)
				profile := make([]float64, f.DriftBins)
				got, err := reduce.DeconvolveProfileInto(ctx, profile, f)
				if err != nil {
					t.Fatal(err)
				}
				for d := range profile {
					if math.Float64bits(profile[d]) != math.Float64bits(wantProfile[d]) {
						t.Fatalf("growth %v width %d gain %g: drift bin %d reduced %v, stored frame sums to %v",
							g, width, gain, d, profile[d], wantProfile[d])
					}
				}
				if got.Decoded != nil || got.Saturations != want.Saturations ||
					got.SimulatedTimeS != want.SimulatedTimeS || got.Report != want.Report {
					t.Errorf("growth %v width %d gain %g: result %+v, store path %+v", g, width, gain, got, want)
				}
				if saturating := want.Saturations > 0; saturating != (gain > 1) {
					t.Errorf("growth %v width %d gain %g: %d saturations", g, width, gain, want.Saturations)
				}
			}
		}
	}

	cfg := DefaultOffloadConfig()
	cfg.Format = fpga.MustQ(40, 10) // 50 bits: at most 7 columns sum exactly
	o, err := NewOffloader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.MaxProfileColumns(); got != 7 {
		t.Fatalf("Q40.10 sums %d columns exactly, want 7", got)
	}
	profile := make([]float64, o.Len())
	if _, err := o.DeconvolveProfileInto(ctx, profile, servedFrame(t, cfg.Order, 7, 1)); err != nil {
		t.Errorf("7 columns at Q40.10 rejected: %v", err)
	}
	if _, err := o.DeconvolveProfileInto(ctx, profile, servedFrame(t, cfg.Order, 8, 1)); err == nil {
		t.Error("8 columns at Q40.10 accepted")
	}
	if _, err := o.DeconvolveProfileInto(ctx, profile[:10], servedFrame(t, cfg.Order, 4, 1)); err == nil {
		t.Error("short profile accepted")
	}
	if _, err := o.DeconvolveProfileInto(ctx, profile, nil); err == nil {
		t.Error("nil frame accepted")
	}
}

// countsOf is an integral frame as frameio.ReadCounts hands it over: int32
// counts with their exact bound.
func countsOf(f *instrument.Frame) *instrument.Counts {
	c := instrument.NewCounts(f.DriftBins, f.TOFBins)
	for i, v := range f.Data {
		c.Data[i] = int32(v)
		c.Bound = max(c.Bound, int64(math.Abs(v)))
	}
	return c
}

// TestDeconvolveCountsProfileIntoMatchesFloat pins the counts entry point
// to the float one over the same cells — profile bits, Saturations,
// SimulatedTimeS and Report — on TestDeconvolveProfileIntoMatchesStore's
// widths and gains (gain 1e4 saturates Q23.8, and takes the Go quantize
// loop; gain 1 the plain int32 branch), both growth policies, and with a
// loose Bound; and it holds it to the same argument checks.
func TestDeconvolveCountsProfileIntoMatchesFloat(t *testing.T) {
	ctx := context.Background()
	for _, g := range []fpga.GrowthPolicy{fpga.GrowthSaturate, fpga.GrowthScalePerStage} {
		cfg := DefaultOffloadConfig()
		cfg.Growth = g
		fl, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		co, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, width := range []int{1, 15, 16, 17, 64, 250, 256} {
			for _, gain := range []float64{1, 1e4, 0} {
				f := servedFrame(t, cfg.Order, width, int64(i))
				for j := range f.Data {
					f.Data[j] *= gain
				}
				c := countsOf(f)
				if i%2 == 1 {
					c.Bound = 1 << 24 // loose: past the plain branch
				}
				wantProfile := make([]float64, f.DriftBins)
				want, err := fl.DeconvolveProfileInto(ctx, wantProfile, f)
				if err != nil {
					t.Fatal(err)
				}
				profile := make([]float64, f.DriftBins)
				got, err := co.DeconvolveCountsProfileInto(ctx, profile, c)
				if err != nil {
					t.Fatal(err)
				}
				for d := range profile {
					if math.Float64bits(profile[d]) != math.Float64bits(wantProfile[d]) {
						t.Fatalf("growth %v width %d gain %g: drift bin %d counts %v, float %v", g, width, gain, d, profile[d], wantProfile[d])
					}
				}
				if *got != *want {
					t.Errorf("growth %v width %d gain %g: result %+v, float %+v", g, width, gain, got, want)
				}
			}
		}
	}
	o, err := NewOffloader(DefaultOffloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	profile := make([]float64, o.Len())
	if _, err := o.DeconvolveCountsProfileInto(ctx, profile[:10], countsOf(servedFrame(t, 9, 4, 1))); err == nil {
		t.Error("short profile accepted")
	}
	if _, err := o.DeconvolveCountsProfileInto(ctx, profile, nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := o.DeconvolveCountsProfileInto(ctx, make([]float64, 31), countsOf(servedFrame(t, 5, 4, 1))); err == nil {
		t.Error("wrong order accepted")
	}
}

// TestOffloaderDeconvolveCountsProfileIntoAllocs: the counts entry point
// allocates what the float one does — the per-frame bookkeeping — once
// warm, on both of its branches.
func TestOffloaderDeconvolveCountsProfileIntoAllocs(t *testing.T) {
	o, err := NewOffloader(DefaultOffloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := countsOf(servedFrame(t, 9, 40, 1)) // two full tiles and a ragged one
	profile := make([]float64, c.DriftBins)
	ctx := context.Background()
	for _, bound := range []int64{c.Bound, 1 << 24} {
		c.Bound = bound
		run := func() {
			if _, err := o.DeconvolveCountsProfileInto(ctx, profile, c); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the work tiles and the accumulator
		if a := testing.AllocsPerRun(20, run); a > 2 {
			t.Errorf("bound %d: DeconvolveCountsProfileInto allocates %g/frame, want <= 2", bound, a)
		}
	}
}

// TestOffloaderDeconvolveProfileIntoAllocs pins the reducing entry point
// to the storing one's per-frame bookkeeping (the name keeps it inside
// make allocgate's -run filter): the accumulator is built on first use,
// so once warm only the HybridResult and the DMA cost model remain.
func TestOffloaderDeconvolveProfileIntoAllocs(t *testing.T) {
	o, err := NewOffloader(DefaultOffloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := servedFrame(t, 9, 40, 1) // two full tiles and a ragged one
	profile := make([]float64, f.DriftBins)
	ctx := context.Background()
	run := func() {
		if _, err := o.DeconvolveProfileInto(ctx, profile, f); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the work tile and the accumulator
	if a := testing.AllocsPerRun(20, run); a > 2 {
		t.Errorf("DeconvolveProfileInto allocates %g/frame, want <= 2", a)
	}
}

// BenchmarkOffloaderProfile prices one served hybrid frame — a reused
// Offloader on an integral 511 × 256 frame — the way serving computed its
// drift profile before the reducing tile step (store: DeconvolveFrameInto
// into a kept frame, then DriftProfileInto), from float cells
// (profile_float: DeconvolveProfileInto), and the way it does now, from
// the int32 counts frameio.ReadCounts decodes (profile:
// DeconvolveCountsProfileInto).
func BenchmarkOffloaderProfile(b *testing.B) {
	o, err := NewOffloader(DefaultOffloadConfig())
	if err != nil {
		b.Fatal(err)
	}
	f := servedFrame(b, 9, 256, 7)
	c := countsOf(f)
	profile := make([]float64, f.DriftBins)
	dst := instrument.NewFrame(f.DriftBins, f.TOFBins)
	ctx := context.Background()
	for _, mode := range []string{"store", "profile_float", "profile"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				switch mode {
				case "store":
					_, err = o.DeconvolveFrameInto(ctx, dst, f)
					dst.DriftProfileInto(profile)
				case "profile_float":
					_, err = o.DeconvolveProfileInto(ctx, profile, f)
				default:
					_, err = o.DeconvolveCountsProfileInto(ctx, profile, c)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*f.TOFBins), "ns/col")
		})
	}
}

// TestOffloaderDeconvolveFrameIntoAllocs pins the steady-state allocation
// count of the serving entry point (the name keeps it inside make
// allocgate's -run filter): the tile loop itself allocates nothing; what
// remains is per-frame report bookkeeping (the HybridResult and the DMA
// cost model analyzeOffloadWithCore builds).
func TestOffloaderDeconvolveFrameIntoAllocs(t *testing.T) {
	o, err := NewOffloader(DefaultOffloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	enc := instrument.NewFrame(o.Len(), 40) // two full tiles and a ragged one
	for i := range enc.Data {
		enc.Data[i] = float64(i % 211)
	}
	dst := instrument.NewFrame(o.Len(), 40)
	ctx := context.Background()
	run := func() {
		if _, err := o.DeconvolveFrameInto(ctx, dst, enc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the core's work tile
	if a := testing.AllocsPerRun(20, run); a > 2 {
		t.Errorf("DeconvolveFrameInto allocates %g/frame, want <= 2", a)
	}
}
