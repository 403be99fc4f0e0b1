// bench_test.go: one testing.B benchmark per reproduced table/figure
// (E1–E12 and the ablations), plus microbenchmarks of the core data path.
// Each experiment benchmark runs the experiment in quick mode and reports
// its headline number as a custom metric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation alongside the timing profile.
// cmd/benchreport prints the full tables.
package repro

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/frameio"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/pipeline"
	"repro/internal/prs"
)

// runExperiment executes an experiment once per benchmark iteration and
// returns the last table for metric extraction.
func runExperiment(b *testing.B, run experiments.Runner) *experiments.Table {
	b.Helper()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = run(2007, true)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// metric parses a numeric cell from a table, failing the benchmark on
// malformed output.
func metric(b *testing.B, tab *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func BenchmarkE1MultiplexingGain(b *testing.B) {
	tab := runExperiment(b, experiments.E1MultiplexingGain)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 6), "trap-gain")
	b.ReportMetric(metric(b, tab, last, 7), "theory-gain")
}

func BenchmarkE2DeconvolutionFidelity(b *testing.B) {
	tab := runExperiment(b, experiments.E2DeconvolutionFidelity)
	b.ReportMetric(metric(b, tab, 0, 3), "enhancement")
}

func BenchmarkE3FPGAvsCPU(b *testing.B) {
	runExperiment(b, experiments.E3FPGAvsCPU)
	// The margin is reported at the reference geometry EXPERIMENTS.md
	// quotes (order 9, 256 columns, 10 accumulated cycles of 100 µs bins),
	// not at quick mode's 64 columns, so the ledger and E3 carry one number.
	off := hybrid.DefaultOffloadConfig()
	off.TOFColumns = 256
	rep, err := hybrid.AnalyzeOffload(off)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(hybrid.RealtimeMargin(511*10*1e-4, rep), "realtime-margin")
}

func BenchmarkE4CPUScaling(b *testing.B) {
	tab := runExperiment(b, experiments.E4CPUScaling)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 2), "max-speedup")
}

func BenchmarkE5DataPath(b *testing.B) {
	tab := runExperiment(b, experiments.E5DataPath)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 3), "reduction")
}

func BenchmarkE6IonUtilization(b *testing.B) {
	tab := runExperiment(b, experiments.E6IonUtilization)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 4), "trap-utilization")
}

func BenchmarkE7DynamicRange(b *testing.B) {
	tab := runExperiment(b, experiments.E7DynamicRange)
	var sa, tr float64
	for r := range tab.Rows {
		if tab.Rows[r][4] == "true" {
			sa++
		}
		if tab.Rows[r][5] == "true" {
			tr++
		}
	}
	b.ReportMetric(sa, "sa-detected")
	b.ReportMetric(tr, "trap-detected")
}

func BenchmarkE8ModifiedPRS(b *testing.B) {
	tab := runExperiment(b, experiments.E8ModifiedPRS)
	naive := metric(b, tab, 0, 2)
	modified := metric(b, tab, 2, 2)
	b.ReportMetric(naive/modified, "error-improvement")
}

func BenchmarkE9PeptideIDs(b *testing.B) {
	tab := runExperiment(b, experiments.E9PeptideIDs)
	for _, row := range tab.Rows {
		if row[0] == "unique peptides identified" {
			v, err := strconv.ParseFloat(row[1], 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(v, "unique-peptides")
		}
	}
}

func BenchmarkE10FixedPoint(b *testing.B) {
	tab := runExperiment(b, experiments.E10FixedPoint)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 2), "widest-format-err")
}

func BenchmarkE11SpaceCharge(b *testing.B) {
	tab := runExperiment(b, experiments.E11SpaceCharge)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 4), "resolution-fraction")
}

func BenchmarkE12AGC(b *testing.B) {
	tab := runExperiment(b, experiments.E12AGC)
	// Packet/target at the apex row (highest current).
	best, bestRate := 0.0, 0.0
	for r := range tab.Rows {
		rate := metric(b, tab, r, 1)
		if rate > bestRate {
			bestRate = rate
			best = metric(b, tab, r, 3)
		}
	}
	b.ReportMetric(best, "agc-packet/target")
}

func BenchmarkAblationDirectVsFHT(b *testing.B) {
	tab := runExperiment(b, experiments.AblationDirectVsFHT)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 4), "fht-speedup")
}

func BenchmarkAblationAccumulatePlacement(b *testing.B) {
	tab := runExperiment(b, experiments.AblationAccumulatePlacement)
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// --- Microbenchmarks of the hot data path ---

func BenchmarkMicroFHTDecodeOrder9(b *testing.B) {
	dec, err := hadamard.NewFHTDecoder(9)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, dec.Len())
	for i := range y {
		y[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroFrameDeconvolve(b *testing.B) {
	order := 9
	seq := prs.MustMSequence(order)
	cols := 256
	rng := rand.New(rand.NewSource(2))
	frame := instrument.NewFrame(len(seq), cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, len(seq))
		x[rng.Intn(len(x))] = 500
		y, err := hadamard.Encode(seq, x)
		if err != nil {
			b.Fatal(err)
		}
		frame.SetDriftVector(c, y)
	}
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.DeconvolveFrame(frame, factory, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicroInstrumentAcquire(b *testing.B) {
	var mix instrument.Mixture
	if err := mix.AddAnalyte(instrument.Analyte{
		Name: "probe", MassDa: 1000, Z: 2, MZ: 501, CCSM2: 2.8e-18, Abundance: 1,
	}); err != nil {
		b.Fatal(err)
	}
	src, err := instrument.NewESISource(mix, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := instrument.DefaultConfig()
	cfg.SequenceOrder = 8
	cfg.TOF.Bins = 256
	cfg.Frames = 1
	inst, err := instrument.New(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.Acquire(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13DetectionDynamicRange(b *testing.B) {
	tab := runExperiment(b, experiments.E13DetectionDynamicRange)
	b.ReportMetric(metric(b, tab, 0, 1), "adc-ratio")
	b.ReportMetric(metric(b, tab, 0, 2), "tdc-ratio")
}

func BenchmarkE14LCGradient(b *testing.B) {
	tab := runExperiment(b, experiments.E14LCGradient)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 5), "cumulative-peptides")
}

func BenchmarkE15StreamingDynamics(b *testing.B) {
	tab := runExperiment(b, experiments.E15StreamingDynamics)
	b.ReportMetric(metric(b, tab, 0, 1), "saturated-cycles/col")
}

func BenchmarkE16MultiplexedCID(b *testing.B) {
	tab := runExperiment(b, experiments.E16MultiplexedCID)
	var identified float64
	for r := range tab.Rows {
		if tab.Rows[r][6] == "true" {
			identified++
		}
	}
	b.ReportMetric(identified, "peptides-with-fragments")
}

func BenchmarkE17FrameFormat(b *testing.B) {
	tab := runExperiment(b, experiments.E17FrameFormat)
	raw := metric(b, tab, 1, 1)
	delta := metric(b, tab, 2, 1)
	b.ReportMetric(raw/delta, "delta-compression")
}

func BenchmarkE18ClusterScaling(b *testing.B) {
	tab := runExperiment(b, experiments.E18ClusterScaling)
	last := len(tab.Rows) - 1
	b.ReportMetric(metric(b, tab, last, 2), "aggregate-fps")
}

func BenchmarkE19CCSCalibration(b *testing.B) {
	tab := runExperiment(b, experiments.E19CCSCalibration)
	worst := 0.0
	for r := range tab.Rows {
		if e := metric(b, tab, r, 5); e > worst {
			worst = e
		}
	}
	b.ReportMetric(worst, "worst-ccs-err-%")
}

func BenchmarkE20IsotopeFidelity(b *testing.B) {
	tab := runExperiment(b, experiments.E20IsotopeFidelity)
	worst := 0.0
	for r := range tab.Rows {
		if d := metric(b, tab, r, 4); d > worst {
			worst = d
		}
	}
	b.ReportMetric(worst, "worst-ratio-dev-%")
}

// BenchmarkMicroFrameDeconvolveScalar preserves the pre-batching shape —
// per-column Decode with a fresh result slice each call — as the in-tree
// baseline for the blocked path above it.
func BenchmarkMicroFrameDeconvolveScalar(b *testing.B) {
	order := 9
	seq := prs.MustMSequence(order)
	cols := 256
	rng := rand.New(rand.NewSource(2))
	frame := instrument.NewFrame(len(seq), cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, len(seq))
		x[rng.Intn(len(x))] = 500
		y, err := hadamard.Encode(seq, x)
		if err != nil {
			b.Fatal(err)
		}
		frame.SetDriftVector(c, y)
	}
	dec, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := instrument.NewFrame(frame.DriftBins, frame.TOFBins)
		for t := 0; t < frame.TOFBins; t++ {
			x, err := dec.Decode(frame.DriftVector(t))
			if err != nil {
				b.Fatal(err)
			}
			out.SetDriftVector(t, x)
		}
	}
}

// BenchmarkMicroFrameDeconvolveInto is the steady-state serving shape: a
// pooled output frame and the blocked batch path, zero per-column
// allocation.
func BenchmarkMicroFrameDeconvolveInto(b *testing.B) {
	order := 9
	seq := prs.MustMSequence(order)
	cols := 256
	rng := rand.New(rand.NewSource(2))
	frame := instrument.NewFrame(len(seq), cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, len(seq))
		x[rng.Intn(len(x))] = 500
		y, err := hadamard.Encode(seq, x)
		if err != nil {
			b.Fatal(err)
		}
		frame.SetDriftVector(c, y)
	}
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	var pool instrument.FramePool
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := pool.Get(frame.DriftBins, frame.TOFBins)
		if err := pipeline.DeconvolveFrameIntoContext(ctx, out, frame, factory, 0, nil); err != nil {
			b.Fatal(err)
		}
		pool.Put(out)
	}
}

// BenchmarkMicroFrameProfile is the serving path's question — a 511×256
// frame's drift profile — answered three ways: "store" decodes the whole
// frame through a warm decoder set into a pooled frame and sweeps it with
// DriftProfile (1 MiB written, 1 MiB re-read: the 2-D reference), while
// "profile_float" sums the float cells' rows (Frame.DriftProfileInto) and
// transforms the sums once (FHTDecoder.DecodeTo), and "profile" does the
// same from the int32 counts frameio.ReadCounts decodes
// (Counts.DriftProfileInto) — what the CPU path serves.
func BenchmarkMicroFrameProfile(b *testing.B) {
	frame := acquiredFrame(b)
	counts := instrument.NewCounts(frame.DriftBins, frame.TOFBins)
	for i, v := range frame.Data {
		counts.Data[i] = int32(v)
		counts.Bound = max(counts.Bound, int64(math.Abs(v)))
	}
	set, err := pipeline.NewFrameDecoders(func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(9) }, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("store", func(b *testing.B) {
		var pool instrument.FramePool
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := pool.Get(frame.DriftBins, frame.TOFBins)
			if err := pipeline.DeconvolveFramesWith(ctx, []pipeline.FramePair{{Dst: out, Src: frame}}, set, nil); err != nil {
				b.Fatal(err)
			}
			sinkProfile = out.DriftProfile()
			pool.Put(out)
		}
	})
	dec, err := hadamard.NewFHTDecoder(9)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sums func([]float64)
	}{{"profile_float", frame.DriftProfileInto}, {"profile", counts.DriftProfileInto}} {
		b.Run(tc.name, func(b *testing.B) {
			profile := make([]float64, frame.DriftBins)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.sums(profile)
				if err := dec.DecodeTo(profile, profile); err != nil {
					b.Fatal(err)
				}
			}
			sinkProfile = profile
		})
	}
}

var sinkProfile []float64

// syntheticCountFrame is a wide (511×256) frame of uncorrelated counts:
// mostly small, a few thousand on one cell in sixteen — 12.5 % of its
// delta cells take more than one byte.
func syntheticCountFrame() *instrument.Frame {
	rng := rand.New(rand.NewSource(4))
	frame := instrument.NewFrame(511, 256)
	for i := range frame.Data {
		frame.Data[i] = float64(rng.Intn(40))
		if rng.Intn(16) == 0 {
			frame.Data[i] += float64(rng.Intn(4000))
		}
	}
	return frame
}

// acquiredFrame is a wide (511×256) frame as the simulated instrument
// acquires it (order 9, multiplexed, two analytes): the shape the serving
// path decodes, with 1.4 % of its delta cells multi-byte.
func acquiredFrame(b *testing.B) *instrument.Frame {
	var mix instrument.Mixture
	for _, a := range []instrument.Analyte{
		{Name: "probe", MassDa: 1000, Z: 2, MZ: 501, CCSM2: 2.8e-18, Abundance: 1},
		{Name: "second", MassDa: 1300, Z: 2, MZ: 651, CCSM2: 3.4e-18, Abundance: 0.6},
	} {
		if err := mix.AddAnalyte(a); err != nil {
			b.Fatal(err)
		}
	}
	src, err := instrument.NewESISource(mix, 5e6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := instrument.DefaultConfig()
	cfg.TOF.Bins = 256
	inst, err := instrument.New(cfg, src)
	if err != nil {
		b.Fatal(err)
	}
	frame, _, err := inst.Acquire(rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// benchFrameIORead times the frame decoder on a wide frame: "fresh"
// allocates a float frame per call (frameio.ReadLimited), "pooled" decodes
// the way a server does — frameio.ReadCounts over an instrument.FramePool,
// into a recycled counts frame when the cells are int32 counts (every frame
// here is), else into a recycled float one.
func benchFrameIORead(b *testing.B, frame *instrument.Frame, enc frameio.Encoding) {
	var buf bytes.Buffer
	if err := frameio.Write(&buf, frame, nil, enc); err != nil {
		b.Fatal(err)
	}
	lim := frameio.DefaultLimits()
	rd := bytes.NewReader(nil)
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(buf.Bytes())
			if _, _, err := frameio.ReadLimited(rd, lim); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var pool instrument.FramePool
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(buf.Bytes())
			c, f, _, err := frameio.ReadCounts(rd, lim, &pool)
			if err != nil {
				b.Fatal(err)
			}
			pool.PutCounts(c)
			pool.Put(f)
		}
	})
}

// BenchmarkMicroFrameIOReadDelta decodes the synthetic count frame (the
// ledgers' fresh/pooled series) and, under "acquired", an instrument frame:
// the synthetic one's uncorrelated cells make one in eight deltas
// multi-byte, which mis-ranks decoders tuned for the one-byte run lengths
// real frames have.
func BenchmarkMicroFrameIOReadDelta(b *testing.B) {
	benchFrameIORead(b, syntheticCountFrame(), frameio.Delta)
	b.Run("acquired", func(b *testing.B) { benchFrameIORead(b, acquiredFrame(b), frameio.Delta) })
}

func BenchmarkMicroFrameIOReadRaw(b *testing.B) {
	benchFrameIORead(b, syntheticCountFrame(), frameio.Raw)
}
