// performance.go: the data-processing performance experiments — FPGA vs
// CPU deconvolution (E3), CPU strong scaling (E4), the capture data path
// (E5), fixed-point precision (E10), and the two design ablations.
package experiments

import (
	"context"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/fpga"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/pipeline"
	"repro/internal/prs"
	"repro/internal/telemetry"
	"repro/internal/xd1"
)

// encodedTestFrame builds a multiplexed frame with known content for
// throughput and fidelity measurements.
func encodedTestFrame(order, cols int, seed int64) (*instrument.Frame, *instrument.Frame, error) {
	s, err := prs.MSequence(order)
	if err != nil {
		return nil, nil, err
	}
	n := len(s)
	rng := rand.New(rand.NewSource(seed))
	truth := instrument.NewFrame(n, cols)
	enc := instrument.NewFrame(n, cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, n)
		for k := 0; k < 4; k++ {
			x[rng.Intn(n)] = 50 + rng.Float64()*500
		}
		y, err := hadamard.Encode(s, x)
		if err != nil {
			return nil, nil, err
		}
		truth.SetDriftVector(c, x)
		enc.SetDriftVector(c, y)
	}
	return enc, truth, nil
}

// timeCPUFrame measures single-threaded software deconvolution of a frame,
// returning seconds per frame; per-column latencies land in reg (which may
// be nil).
func timeCPUFrame(f *instrument.Frame, order int, reps int, reg *telemetry.Registry) (float64, error) {
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := pipeline.DeconvolveFrameContext(context.Background(), f, factory, 1, reg); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(reps), nil
}

// E3FPGAvsCPU reproduces the hardware-vs-software deconvolution table:
// modeled FPGA frame rates against measured single-thread and all-core
// software rates, with the real-time margin over the instrument's frame
// production.
func E3FPGAvsCPU(seed int64, quick bool) (*Table, error) {
	orders := []int{9, 10, 11}
	cols := 256
	reps := 3
	if quick {
		orders = []int{9}
		cols = 64
		reps = 1
	}
	t := &Table{
		ID:    "E3",
		Title: "Deconvolution throughput: modeled FPGA offload vs measured software",
		Columns: []string{"order", "cols", "FPGA cycles/col", "FPGA frames/s", "CPU(1) frames/s",
			"CPU(all) frames/s", "FPGA/CPU(1)", "instr frames/s", "real-time margin",
			"col p50 us", "col p99 us"},
		Notes: []string{
			"FPGA rate from the cycle model at the Virtex-II Pro 150 MHz clock over the RapidArray fabric",
			"CPU rates measured on the simulation host (not Opteron-scaled)",
			"real-time margin = hybrid.RealtimeMargin: instrument frame period (10 accumulated cycles of 100 us bins) / modeled FPGA frame time at this row's cols",
		},
	}
	for _, order := range orders {
		enc, _, err := encodedTestFrame(order, cols, seed)
		if err != nil {
			return nil, err
		}
		off := hybrid.DefaultOffloadConfig()
		off.Order = order
		off.TOFColumns = cols
		rep, err := hybrid.AnalyzeOffload(off)
		if err != nil {
			return nil, err
		}
		// Per-column decode latency quantiles come from the telemetry
		// histogram wired through the decode; a before/after counts delta
		// keeps the row truthful under the shared benchreport registry.
		reg := registry()
		colHist := reg.Histogram("pipeline_column_decode_ns", "per-column software decode latency, nanoseconds")
		before := colHist.Counts()
		cpu1, err := timeCPUFrame(enc, order, reps, reg)
		if err != nil {
			return nil, err
		}
		rowCounts := countsDelta(colHist.Counts(), before)
		factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := pipeline.DeconvolveFrame(enc, factory, 0); err != nil {
				return nil, err
			}
		}
		cpuAll := time.Since(start).Seconds() / float64(reps)

		framePeriod := instrumentFramePeriodS(order)
		t.AddRow(order, cols, rep.ColumnCycles, rep.FramesPerSec, 1/cpu1, 1/cpuAll,
			(1/rep.FrameTimeS)/(1/cpu1), 1/framePeriod, hybrid.RealtimeMargin(framePeriod, rep),
			telemetry.QuantileOfCounts(rowCounts, 0.5)/1e3,
			telemetry.QuantileOfCounts(rowCounts, 0.99)/1e3)
	}
	return t, nil
}

// instrumentFramePeriodS is the seconds between frames the reference
// instrument hands over at the given sequence order: 100 µs drift bins,
// 10 IMS cycles accumulated per frame.
func instrumentFramePeriodS(order int) float64 {
	return float64((int(1)<<order-1)*10) * 1e-4
}

// E4CPUScaling reproduces the software strong-scaling figure: frames/s of
// the column-parallel deconvolution versus worker count.
func E4CPUScaling(seed int64, quick bool) (*Table, error) {
	order := 10
	cols := 512
	reps := 3
	if quick {
		order = 9
		cols = 128
		reps = 1
	}
	t := &Table{
		ID:      "E4",
		Title:   "CPU strong scaling of frame deconvolution",
		Columns: []string{"workers", "frames/s", "speedup", "efficiency", "busy frac"},
		Notes: []string{
			"column-parallel FHT decoding; ideal scaling is linear in workers",
			"busy frac = cumulative worker decode time / (wall time x workers), from pipeline_worker_busy_ns_total",
		},
	}
	enc, _, err := encodedTestFrame(order, cols, seed)
	if err != nil {
		return nil, err
	}
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	maxW := runtime.GOMAXPROCS(0)
	reg := registry()
	busyC := reg.Counter("pipeline_worker_busy_ns_total", "cumulative wall time workers spent decoding, nanoseconds")
	var base float64
	for workers := 1; workers <= maxW; workers *= 2 {
		busyBefore := busyC.Value()
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := pipeline.DeconvolveFrameContext(context.Background(), enc, factory, workers, reg); err != nil {
				return nil, err
			}
		}
		wall := time.Since(start)
		perFrame := wall.Seconds() / float64(reps)
		rate := 1 / perFrame
		if workers == 1 {
			base = rate
		}
		busyFrac := float64(busyC.Value()-busyBefore) / (float64(wall.Nanoseconds()) * float64(workers))
		t.AddRow(workers, rate, rate/base, rate/base/float64(workers), busyFrac)
	}
	return t, nil
}

// E5DataPath reproduces the capture/accumulation budget table: the raw
// digitizer stream versus the post-accumulation stream across on-FPGA
// averaging depths, with fabric utilization and real-time verdicts.
func E5DataPath(seed int64, quick bool) (*Table, error) {
	depths := []int{1, 10, 50, 100}
	if quick {
		depths = []int{1, 10}
	}
	t := &Table{
		ID:    "E5",
		Title: "Capture data path: on-FPGA accumulation vs streaming raw samples",
		Columns: []string{"cycles accumulated", "raw MB/s", "accum MB/s", "reduction", "raw fabric util",
			"accum fabric util", "FPGA util", "BRAM Mbit", "fits BRAM", "real-time",
			"capture util", "accum util"},
		Notes: []string{
			"raw fabric utilization is what host-side processing would pay without the FPGA front end",
		},
	}
	for _, d := range depths {
		cfg := hybrid.DefaultDataPathConfig()
		cfg.CyclesAccumulated = d
		rep, err := hybrid.AnalyzeDataPath(cfg)
		if err != nil {
			return nil, err
		}
		clock := cfg.Node.FPGA.ClockHz
		t.AddRow(d, rep.RawByteRate/1e6, rep.AccumulatedByteRate/1e6, rep.ReductionFactor,
			rep.RawFabricUtilization, rep.AccumulatedFabricUtilization, rep.FPGAUtilization,
			float64(rep.BRAMBitsNeeded)/1e6, rep.BRAMOK, rep.RealTime,
			rep.CaptureCyclesPerSec/clock, rep.AccumCyclesPerSec/clock)
	}
	return t, nil
}

// E10FixedPoint reproduces the FPGA precision study: reconstruction error
// and saturation counts of the fixed-point FHT core across word widths and
// growth policies, against the float64 reference.
func E10FixedPoint(seed int64, quick bool) (*Table, error) {
	order := 9
	cols := 32
	if quick {
		order = 8
		cols = 8
	}
	t := &Table{
		ID:      "E10",
		Title:   "Fixed-point FHT deconvolution error vs word format (float64 reference)",
		Columns: []string{"format", "growth", "mean err", "saturations"},
		Notes:   []string{"errors are relative RMS against the float64 decode of the same data"},
	}
	enc, _, err := encodedTestFrame(order, cols, seed)
	if err != nil {
		return nil, err
	}
	type cfg struct {
		f      fpga.Format
		growth fpga.GrowthPolicy
		name   string
	}
	cfgs := []cfg{
		{fpga.MustQ(12, 0), fpga.GrowthSaturate, "saturate"},
		{fpga.MustQ(12, 0), fpga.GrowthScalePerStage, "scale/stage"},
		{fpga.MustQ(16, 4), fpga.GrowthSaturate, "saturate"},
		{fpga.MustQ(23, 8), fpga.GrowthSaturate, "saturate"},
		{fpga.MustQ(30, 12), fpga.GrowthSaturate, "saturate"},
	}
	for _, c := range cfgs {
		core, err := fpga.NewFHTCore(order, c.f, c.growth, 4, 2)
		if err != nil {
			return nil, err
		}
		var sumErr float64
		for col := 0; col < cols; col++ {
			y := enc.DriftVector(col)
			got, _, err := core.Deconvolve(y)
			if err != nil {
				return nil, err
			}
			want, err := core.ReferenceDeconvolve(y)
			if err != nil {
				return nil, err
			}
			e, err := hadamard.ReconstructionError(got, want)
			if err != nil {
				return nil, err
			}
			sumErr += e
		}
		t.AddRow(c.f.String(), c.name, sumErr/float64(cols), core.Saturations())
	}
	return t, nil
}

// AblationDirectVsFHT measures the O(N²) direct simplex inverse against the
// O(N log N) FHT decode — the algorithmic choice that makes the FPGA core
// viable.
func AblationDirectVsFHT(seed int64, quick bool) (*Table, error) {
	orders := []int{8, 9, 10, 11}
	reps := 20
	if quick {
		orders = []int{8, 9}
		reps = 5
	}
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: direct O(N^2) simplex inverse vs fast Hadamard decode",
		Columns: []string{"order", "N", "direct us/col", "FHT us/col", "speedup"},
	}
	for _, order := range orders {
		s, err := prs.MSequence(order)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		y := make([]float64, len(s))
		for i := range y {
			y[i] = rng.Float64() * 100
		}
		std, err := hadamard.NewStandardDecoder(s)
		if err != nil {
			return nil, err
		}
		fht, err := hadamard.NewFHTDecoder(order)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := std.DecodeNaive(y); err != nil {
				return nil, err
			}
		}
		direct := time.Since(start).Seconds() / float64(reps) * 1e6
		start = time.Now()
		for i := 0; i < reps*10; i++ {
			if _, err := fht.Decode(y); err != nil {
				return nil, err
			}
		}
		fast := time.Since(start).Seconds() / float64(reps*10) * 1e6
		t.AddRow(order, len(s), direct, fast, direct/fast)
	}
	return t, nil
}

// AblationAccumulatePlacement contrasts the two data-path designs: stream
// every raw digitizer sample to the host versus accumulate on-FPGA first,
// as the digitizer's native conversion rate grows.
func AblationAccumulatePlacement(seed int64, quick bool) (*Table, error) {
	rates := []float64{5e8, 1e9, 2e9, 4e9}
	if quick {
		rates = []float64{1e9, 4e9}
	}
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: raw streaming vs on-FPGA accumulation as the digitizer rate grows",
		Columns: []string{"native GS/s", "raw MB/s", "raw feasible", "accum MB/s", "accum feasible"},
		Notes:   []string{"feasible = stream fits the RapidArray link (1.6 GB/s)"},
	}
	fabric := xd1.RapidArray()
	for _, r := range rates {
		cfg := hybrid.DefaultDataPathConfig()
		cfg.NativeSampleRate = r
		rep, err := hybrid.AnalyzeDataPath(cfg)
		if err != nil {
			return nil, err
		}
		rawOK := fabric.Utilization(rep.RawByteRate) <= 1
		accOK := fabric.Utilization(rep.AccumulatedByteRate) <= 1
		t.AddRow(r/1e9, rep.RawByteRate/1e6, rawOK, rep.AccumulatedByteRate/1e6, accOK)
	}
	return t, nil
}
