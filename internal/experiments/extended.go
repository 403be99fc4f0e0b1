// extended.go: extension experiments beyond the core E1–E12 set — the
// ADC-vs-TDC detection contrast (E13), a time-resolved LC-gradient run
// (E14), and the clocked streaming dynamics of the FPGA pipeline (E15).
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
	"repro/internal/telemetry"
	"repro/internal/xd1"
)

// E13DetectionDynamicRange reproduces the ADC-vs-TDC contrast that
// motivated the multiplexed instrument's ADC digitizer (Belov et al. 2008):
// the apparent intensity ratio of a strong and a 100× weaker analyte as the
// source current grows.  The TDC's dead time saturates the strong peak and
// compresses the ratio; the ADC tracks it until its own full scale.
func E13DetectionDynamicRange(seed int64, quick bool) (*Table, error) {
	rates := []float64{1e6, 1e7, 1e8}
	if quick {
		rates = []float64{1e7, 1e8}
	}
	t := &Table{
		ID:      "E13",
		Title:   "Apparent strong/weak intensity ratio (true 100x) vs source current: ADC vs TDC detection",
		Columns: []string{"source (charges/s)", "ADC ratio", "TDC ratio", "ADC/true", "TDC/true"},
		Notes: []string{
			"true abundance ratio is 100; values near 100 mean faithful dynamic range",
			"single-stop TDC saturates at one event per extraction per bin",
		},
	}
	strong, err := chem.NewPeptide("RPPGFSPFR")
	if err != nil {
		return nil, err
	}
	weak, err := chem.NewPeptide("DRVYIHPF")
	if err != nil {
		return nil, err
	}
	for _, rate := range rates {
		ratioFor := func(kind instrument.DetectionKind) (float64, error) {
			var mix instrument.Mixture
			if err := mix.AddPeptide("strong", strong, 100); err != nil {
				return 0, err
			}
			if err := mix.AddPeptide("weak", weak, 1); err != nil {
				return 0, err
			}
			cfg := gainConfig(instrument.ModeSignalAveraging, 6)
			cfg.BinWidthS = 4e-4
			cfg.Detection = kind
			cfg.TDC = instrument.DefaultTDC()
			cfg.Detector.GainCounts = 2
			src, err := instrument.NewESISource(mix, rate)
			if err != nil {
				return 0, err
			}
			inst, err := instrument.New(cfg, src)
			if err != nil {
				return 0, err
			}
			frame, _, err := inst.Acquire(rand.New(rand.NewSource(seed)))
			if err != nil {
				return 0, err
			}
			// Apex above the column median (baseline-subtracted).
			apex := func(p chem.Peptide) float64 {
				mz, _ := p.MZ(2)
				col := cfg.TOF.BinOf(mz)
				vec := frame.DriftVector(col)
				sorted := append([]float64(nil), vec...)
				sortFloats(sorted)
				med := sorted[len(sorted)/2]
				max := 0.0
				for _, v := range vec {
					if v-med > max {
						max = v - med
					}
				}
				return max
			}
			s, w := apex(strong), apex(weak)
			if w <= 0 {
				w = 0.5 // below one count: report against half a count
			}
			return s / w, nil
		}
		adc, err := ratioFor(instrument.DetectionADC)
		if err != nil {
			return nil, err
		}
		tdc, err := ratioFor(instrument.DetectionTDC)
		if err != nil {
			return nil, err
		}
		t.AddRow(rate, adc, tdc, adc/100, tdc/100)
	}
	return t, nil
}

// sortFloats sorts in place (tiny wrapper keeping the call sites terse).
func sortFloats(x []float64) { sort.Float64s(x) }

// E14LCGradient reproduces the time-resolved LC-IMS-MS run of the
// high-throughput platform papers (15-minute analyses, Belov 2008): the BSA
// digest elutes as chromatographic peaks across a gradient while the
// multiplexed instrument acquires consecutive segments; each segment is
// deconvolved and identified independently.
func E14LCGradient(seed int64, quick bool) (*Table, error) {
	segments := 6
	peptidesPerRun := 24
	if quick {
		segments = 3
		peptidesPerRun = 12
	}
	t := &Table{
		ID:      "E14",
		Title:   "Time-resolved multiplexed LC-IMS-MS run: identifications per gradient segment",
		Columns: []string{"segment", "time (s)", "ion current (rel)", "features", "unique peptides", "cumulative unique"},
		Notes: []string{
			"peptides elute as EMG peaks spread across the gradient; identification is per segment",
		},
	}
	digest, err := chem.BSA().Digest(chem.Trypsin{}, 0, 6, 30)
	if err != nil {
		return nil, err
	}
	if len(digest) > peptidesPerRun {
		digest = digest[:peptidesPerRun]
	}
	rng := rand.New(rand.NewSource(seed))
	var mix instrument.Mixture
	named := map[string]chem.Peptide{}
	elution := map[int]instrument.LCPeak{}
	gradient := 120.0 // s
	for _, p := range digest {
		named[p.Sequence] = p
		before := len(mix.Analytes)
		if err := mix.AddPeptide(p.Sequence, p, 0.5+rng.Float64()); err != nil {
			return nil, err
		}
		pk := instrument.LCPeak{
			Retention: gradient * (0.05 + 0.9*rng.Float64()),
			Sigma:     6 + 4*rng.Float64(),
			Tau:       3,
		}
		for ai := before; ai < len(mix.Analytes); ai++ {
			elution[ai] = pk
		}
	}
	cands, err := peaks.CandidatesFromPeptides(named, true)
	if err != nil {
		return nil, err
	}

	cfg := gainConfig(instrument.ModeMultiplexedTrap, 8)
	cfg.TOF.Bins = 2048
	cfg.TOF.MaxMZ = 2500
	cfg.Frames = 4
	cfg.Detector.GainCounts = 2

	cumulative := map[string]bool{}
	segDur := gradient / float64(segments)
	for seg := 0; seg < segments; seg++ {
		// Acquire at the segment midpoint: shift each elution profile so
		// the acquisition window (instrument clock starts at 0) sees the
		// gradient state there.
		t0 := (float64(seg) + 0.5) * segDur
		segElution := map[int]instrument.LCPeak{}
		for ai, pk := range elution {
			shifted := pk
			shifted.Retention = pk.Retention - t0
			segElution[ai] = shifted
		}
		exp := &core.Experiment{
			Mixture:    mix,
			SourceRate: 5e6,
			Elution:    segElution,
			Config:     cfg,
		}
		res, err := exp.Run(rand.New(rand.NewSource(seed + int64(seg))))
		if err != nil {
			return nil, err
		}
		id, err := core.Identify(res.Decoded, cfg.TOF, cands, 5, 600, 2)
		if err != nil {
			return nil, err
		}
		for _, m := range id.Matches {
			if !m.Candidate.IsDecoy {
				cumulative[m.Candidate.Peptide.Sequence] = true
			}
		}
		rel := res.Stats.IonsGenerated / (5e6 * cfg.CycleDuration() * float64(cfg.Frames))
		t.AddRow(seg, t0, rel, len(id.Features), id.UniqueTargets, len(cumulative))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total unique peptides across the gradient: %d of %d in the run",
		len(cumulative), len(digest)))
	return t, nil
}

// E15StreamingDynamics exercises the clocked FPGA pipeline model: sustained
// cycles per column, the bottleneck stage, and real-time verdicts across
// arrival rates — the dynamic counterpart of E3's steady-state budget.
func E15StreamingDynamics(seed int64, quick bool) (*Table, error) {
	intervals := []int64{0, 500, 1500, 5000}
	cols := 256
	if quick {
		intervals = []int64{0, 5000}
		cols = 64
	}
	t := &Table{
		ID:    "E15",
		Title: "Clocked FPGA pipeline dynamics vs column arrival interval",
		Columns: []string{"arrival (cycles)", "cycles/col", "throughput (cols/s)", "bottleneck", "real-time",
			"peak queue", "col latency p50", "col latency p99"},
		Notes: []string{
			"arrival 0 = saturation test; the deconvolve core's initiation interval bounds the sustained rate",
			"peak queue = deepest inter-stage FIFO high-water mark (tokens); latencies are capture-feed to dma-out, cycles",
		},
	}
	for _, iv := range intervals {
		cfg := hybrid.DefaultStreamConfig()
		cfg.Columns = cols
		cfg.ArrivalInterval = iv
		reg := registry()
		cfg.Metrics = reg
		latHist := reg.Histogram("hybrid_column_latency_cycles",
			"cycles from capture feed to dma-out acceptance, per column")
		latBefore := latHist.Counts()
		rep, err := hybrid.SimulateStream(cfg)
		if err != nil {
			return nil, err
		}
		lat := countsDelta(latHist.Counts(), latBefore)
		// The per-FIFO peak gauges are Set per run, so reading right after
		// the run is per-row even on the shared registry.
		peak := 0.0
		for _, fifo := range []string{"capture→accum", "accum→fht", "fht→dma"} {
			g := reg.Gauge("hybrid_queue_depth_peak",
				"high-water occupancy of each inter-stage queue, tokens", telemetry.L("fifo", fifo))
			if v := g.Value(); v > peak {
				peak = v
			}
		}
		t.AddRow(iv, rep.CyclesPerCol, rep.ThroughputCols, rep.Bottleneck, rep.RealTime,
			peak, telemetry.QuantileOfCounts(lat, 0.5), telemetry.QuantileOfCounts(lat, 0.99))
		if iv == 0 {
			// E3's margin, measured dynamically: the saturated stream's
			// frame time against the same instrument frame period.
			off := cfg.Offload
			off.TOFColumns = cols
			budget, err := hybrid.AnalyzeOffload(off)
			if err != nil {
				return nil, err
			}
			framePeriod := instrumentFramePeriodS(off.Order)
			streamed := hybrid.OffloadReport{FrameTimeS: float64(cols) / rep.ThroughputCols}
			t.Notes = append(t.Notes, fmt.Sprintf(
				"real-time margin (hybrid.RealtimeMargin; order %d, %d columns, 10 accumulated cycles): %.1f streamed at saturation, %.1f from E3's analytic budget",
				off.Order, cols, hybrid.RealtimeMargin(framePeriod, streamed), hybrid.RealtimeMargin(framePeriod, budget)))
		}
	}
	return t, nil
}

// E18ClusterScaling evaluates multi-node XD1 scaling of the deconvolution
// offload: frames distributed across nodes, decoded frames collected over a
// single host link that eventually caps the aggregate — the chassis-level
// projection of the hybrid design.
func E18ClusterScaling(seed int64, quick bool) (*Table, error) {
	nodesList := []int{1, 2, 4, 8, 16, 32}
	if quick {
		nodesList = []int{1, 4, 16}
	}
	t := &Table{
		ID:    "E18",
		Title: "Multi-node offload scaling with a single collection host",
		Columns: []string{"nodes", "per-node fps", "aggregate fps", "host limit fps", "efficiency", "limited by",
			"host util"},
		Notes: []string{
			"an XD1 chassis holds 6 nodes; collection saturates the host RapidArray link first",
			"host util = aggregate fps / host limit fps (collection-link utilization, 1.0 = saturated)",
		},
	}
	cfg := hybrid.DefaultOffloadConfig()
	host := xd1.RapidArray()
	for _, n := range nodesList {
		r, err := hybrid.AnalyzeCluster(cfg, n, host)
		if err != nil {
			return nil, err
		}
		util := r.AggregateFPS / r.HostLimitFPS
		if util > 1 {
			util = 1
		}
		t.AddRow(n, r.PerNodeFPS, r.AggregateFPS, r.HostLimitFPS, r.Efficiency, r.LimitedBy, util)
	}
	return t, nil
}
