// Command imssim runs one end-to-end simulated acquisition of the
// multiplexed ion mobility mass spectrometer and reports what it saw:
// acquisition statistics, the most intense recovered features, and (for a
// built-in sample) identifications.
//
// Usage:
//
//	imssim [-mode sa|mp|trap] [-order N] [-frames F] [-rate R]
//	       [-sample standards|bsa] [-seed N] [-oversample K] [-defect D]
//	       [-metrics FILE] [-trace FILE] [-pprof ADDR]
//
// With -metrics, the run is instrumented end to end (acquisition, software
// decode, and — for unmodified sequences — the modeled FPGA offload and
// streaming data path) and the telemetry snapshot is written as JSON at
// exit; see docs/OBSERVABILITY.md for the metric catalogue.  With -trace,
// the modeled offload and streaming pipeline are traced as span trees and
// written as Chrome/Perfetto trace-event JSON at exit.  With -pprof, a
// net/http/pprof server listens on ADDR for CPU and heap profiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"

	"repro/internal/chem"
	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imssim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	mode := flag.String("mode", "trap", "acquisition mode: sa, mp or trap")
	order := flag.Int("order", 8, "pseudorandom sequence order (2-20)")
	frames := flag.Int("frames", 4, "IMS cycles accumulated")
	rate := flag.Float64("rate", 5e6, "total source ion current, charges/s")
	sample := flag.String("sample", "standards", "built-in sample: standards or bsa")
	seed := flag.Int64("seed", 1, "random seed")
	oversample := flag.Int("oversample", 1, "bins per sequence element")
	defect := flag.Int("defect", 0, "defect bins per open run (modified PRS)")
	outPath := flag.String("out", "", "write the raw accumulated frame to this frameio file")
	metricsPath := flag.String("metrics", "", "instrument the run and write the telemetry snapshot to this JSON file")
	tracePath := flag.String("trace", "", "trace the modeled offload and write span trees as Perfetto JSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	var reg *telemetry.Registry
	if *metricsPath != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New()
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "imssim: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on %s\n", *pprofAddr)
	}

	var m instrument.Mode
	switch *mode {
	case "sa":
		m = instrument.ModeSignalAveraging
	case "mp":
		m = instrument.ModeMultiplexed
	case "trap":
		m = instrument.ModeMultiplexedTrap
	default:
		fail("unknown mode %q (want sa, mp or trap)", *mode)
	}

	var mix instrument.Mixture
	named := map[string]chem.Peptide{}
	switch *sample {
	case "standards":
		for _, s := range chem.StandardPeptides() {
			named[s.Name] = s.Peptide
			if err := mix.AddPeptide(s.Name, s.Peptide, 1); err != nil {
				fail("%v", err)
			}
		}
	case "bsa":
		digest, err := chem.BSA().Digest(chem.Trypsin{}, 0, 6, 30)
		if err != nil {
			fail("%v", err)
		}
		for _, p := range digest {
			named[p.Sequence] = p
			if err := mix.AddPeptide(p.Sequence, p, 1); err != nil {
				fail("%v", err)
			}
		}
	default:
		fail("unknown sample %q (want standards or bsa)", *sample)
	}

	cfg := instrument.DefaultConfig()
	cfg.Mode = m
	cfg.SequenceOrder = *order
	cfg.Frames = *frames
	cfg.Oversample = *oversample
	cfg.Defect = *defect
	cfg.TOF.Bins = 2048

	exp := &core.Experiment{Mixture: mix, SourceRate: *rate, Config: cfg, Metrics: reg}
	res, err := exp.Run(rand.New(rand.NewSource(*seed)))
	if err != nil {
		fail("%v", err)
	}
	if (reg != nil || tracer != nil) && *oversample == 1 && *defect == 0 {
		simulateOffload(reg, tracer, res.Raw, *order)
	}

	st := res.Stats
	fmt.Printf("mode %v, order %d (N=%d, %d bins), %d cycles, %.1f ms/cycle\n",
		st.Mode, *order, 1<<*order-1, cfg.DriftBins(), st.Cycles, cfg.CycleDuration()*1e3)
	fmt.Printf("ions: generated %.3g, injected %.3g (utilization %.1f%%), detected %.3g\n",
		st.IonsGenerated, st.IonsInjected, 100*st.Utilization, st.IonsDetected)
	fmt.Printf("mean packet %.3g charges, trap losses %.3g\n", st.MeanPacketSize, st.TrapLosses)

	feats, err := peaks.FindFeatures(res.Decoded, cfg.TOF, 5, 2)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("\n%d features (SNR >= 5); top 15:\n", len(feats))
	fmt.Printf("%10s %10s %12s %8s\n", "m/z", "drift bin", "intensity", "SNR")
	for i, f := range feats {
		if i >= 15 {
			break
		}
		fmt.Printf("%10.2f %10d %12.1f %8.1f\n", f.MZ, f.DriftBin, f.Intensity, f.SNR)
	}

	cands, err := peaks.CandidatesFromPeptides(named, true)
	if err != nil {
		fail("%v", err)
	}
	id, err := core.Identify(res.Decoded, cfg.TOF, cands, 5, 600, 2)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("\nidentified %d unique peptides (%d matches, FDR %.3f)\n",
		id.UniqueTargets, len(id.Matches), id.FDR)

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail("%v", err)
		}
		meta := frameio.Metadata{
			"mode":   res.Stats.Mode.String(),
			"order":  fmt.Sprintf("%d", *order),
			"frames": fmt.Sprintf("%d", *frames),
			"sample": *sample,
			"seed":   fmt.Sprintf("%d", *seed),
		}
		if err := frameio.Write(f, res.Raw, meta, frameio.Delta); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("raw frame written to %s\n", *outPath)
	}

	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fail("%v", err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("telemetry snapshot written to %s\n", *metricsPath)
	}

	if *tracePath != "" {
		if err := tracer.WriteFile(*tracePath); err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
}

// simulateOffload pushes the acquired raw frame through the modeled hybrid
// data path — the fixed-point FPGA offload, the clocked streaming pipeline,
// and the capture/accumulate front end — so an instrumented run reports the
// full hybrid_*, fpga_* and xd1_* telemetry families alongside the software
// decode, and a traced run records the frame's span tree (modeled FPGA
// stages and XD1 DMA under the offload root).  Only valid for unmodified
// sequences (oversample 1, no defect bins), where the frame's drift length
// matches the FHT core.
func simulateOffload(reg *telemetry.Registry, tracer *trace.Tracer, raw *instrument.Frame, order int) {
	off := hybrid.DefaultOffloadConfig()
	off.Order = order
	off.Metrics = reg
	root := tracer.StartTrace("frame", 0)
	root.SetInt("prs_order", int64(order))
	ctx := trace.ContextWithSpan(context.Background(), root)
	_, err := hybrid.HybridDeconvolveFrameContext(ctx, raw, off)
	root.End()
	if err != nil {
		fail("modeled offload: %v", err)
	}

	sc := hybrid.DefaultStreamConfig()
	sc.Offload.Order = order
	sc.Columns = 256
	sc.Metrics = reg
	sc.Tracer = tracer
	if _, err := hybrid.SimulateStream(sc); err != nil {
		fail("streaming model: %v", err)
	}
	if reg == nil {
		return
	}

	// Capture/accumulate front end over the raw frame, for the BRAM
	// occupancy and capture-core families.
	capCore, err := fpga.NewCaptureCore(4, 1)
	if err != nil {
		fail("capture core: %v", err)
	}
	capCore.Instrument(reg)
	acc, err := fpga.NewAccumulatorCore(4, 32, raw.DriftBins)
	if err != nil {
		fail("accumulator core: %v", err)
	}
	acc.Instrument(reg)
	block := make([]int64, raw.DriftBins)
	for t := 0; t < raw.TOFBins; t++ {
		vec := raw.DriftVector(t)
		for i, v := range vec {
			block[i] = int64(v)
		}
		capCore.Capture(block)
		if _, err := acc.Accumulate(block); err != nil {
			fail("accumulate: %v", err)
		}
	}
	acc.PublishOccupancy()
}
