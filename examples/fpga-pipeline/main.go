// FPGA pipeline: the hybrid data-processing story of the paper in one
// program.  It sizes the FPGA capture/accumulation front end against the
// digitizer, analyzes the deconvolution offload over the RapidArray fabric,
// pushes a real multiplexed frame through the fixed-point FHT core, and
// compares against the measured pure-software path.  The whole run is
// instrumented through an internal/telemetry registry, and the closing
// section reads the telemetry back to locate the bottleneck — the
// walkthrough in docs/OBSERVABILITY.md follows this program.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/pipeline"
	"repro/internal/prs"
	"repro/internal/telemetry"
)

func main() {
	reg := telemetry.NewRegistry()
	// 1. Capture front end: does the FPGA keep up with the digitizer, and
	// how much does on-chip accumulation shrink the stream?
	dp, err := hybrid.AnalyzeDataPath(hybrid.DefaultDataPathConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("capture front end (2 GS/s digitizer, order-9 sequence):")
	fmt.Printf("  raw stream           %8.1f MB/s (%.0f%% of RapidArray)\n",
		dp.RawByteRate/1e6, 100*dp.RawFabricUtilization)
	fmt.Printf("  accumulated stream   %8.1f MB/s (%.2f%% of RapidArray), reduction %.0fx\n",
		dp.AccumulatedByteRate/1e6, 100*dp.AccumulatedFabricUtilization, dp.ReductionFactor)
	fmt.Printf("  FPGA utilization     %8.1f%%, BRAM needed %.1f Mbit (fits: %v), real-time: %v\n",
		100*dp.FPGAUtilization, float64(dp.BRAMBitsNeeded)/1e6, dp.BRAMOK, dp.RealTime)

	// 2. Deconvolution offload budget.
	off := hybrid.DefaultOffloadConfig()
	rep, err := hybrid.AnalyzeOffload(off)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndeconvolution offload (order %d, %s, %d butterflies):\n",
		off.Order, off.Format, off.ButterflyUnits)
	fmt.Printf("  %d cycles/column, %.2f ms compute + %.2f ms DMA per frame\n",
		rep.ColumnCycles, rep.ComputeTimeS*1e3, (rep.TransferInS+rep.TransferOutS)*1e3)
	fmt.Printf("  %.1f frames/s sustained, bottleneck: %s\n", rep.FramesPerSec, rep.Bottleneck)

	// 3. Push a real frame through the modeled FPGA core and check the
	// fixed-point arithmetic held up.
	order := off.Order
	seq := prs.MustMSequence(order)
	cols := 512
	rng := rand.New(rand.NewSource(3))
	frame := instrument.NewFrame(len(seq), cols)
	for c := 0; c < cols; c++ {
		x := make([]float64, len(seq))
		x[rng.Intn(len(x))] = 100 + rng.Float64()*900
		y, err := hadamard.Encode(seq, x)
		if err != nil {
			log.Fatal(err)
		}
		frame.SetDriftVector(c, y)
	}
	off.Metrics = reg
	res, err := hybrid.HybridDeconvolveFrame(frame, off)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhybrid frame: %d columns deconvolved in %.2f ms simulated XD1 time, %d saturations\n",
		cols, res.SimulatedTimeS*1e3, res.Saturations)

	// 4. Software baseline measured on this host.
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	start := time.Now()
	if _, err := pipeline.DeconvolveFrameContext(context.Background(), frame, factory, 1, reg); err != nil {
		log.Fatal(err)
	}
	single := time.Since(start)
	start = time.Now()
	if _, err := pipeline.DeconvolveFrameContext(context.Background(), frame, factory, 0, reg); err != nil {
		log.Fatal(err)
	}
	parallel := time.Since(start)
	fmt.Printf("software on this host: %.2f ms single-thread, %.2f ms on %d cores\n",
		single.Seconds()*1e3, parallel.Seconds()*1e3, runtime.GOMAXPROCS(0))
	fmt.Printf("modeled FPGA vs measured single-thread: %.1fx\n",
		single.Seconds()/res.SimulatedTimeS)

	// 5. Stream the frame's columns through the clocked pipeline, then read
	// the telemetry back: the deepest queue and the stage that stalled the
	// most point at the bottleneck without re-deriving anything by hand.
	sc := hybrid.DefaultStreamConfig()
	sc.Offload = off
	sc.Columns = cols
	sc.Metrics = reg
	srep, err := hybrid.SimulateStream(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclocked stream: %.0f cycles/col sustained, bottleneck stage: %s\n",
		srep.CyclesPerCol, srep.Bottleneck)

	fmt.Println("\ntelemetry highlights:")
	colLat := reg.Histogram("hybrid_column_latency_cycles",
		"cycles from capture feed to dma-out acceptance, per column")
	fmt.Printf("  column latency          p50 %.0f  p99 %.0f cycles (%d observed)\n",
		colLat.Quantile(0.5), colLat.Quantile(0.99), colLat.Count())
	for _, fifo := range []string{"capture→accum", "accum→fht", "fht→dma"} {
		depth := reg.Gauge("hybrid_queue_depth_peak",
			"high-water occupancy of each inter-stage queue, tokens", telemetry.L("fifo", fifo))
		stalls := reg.Counter("hybrid_queue_full_stalls_total",
			"pushes rejected by a full inter-stage queue", telemetry.L("fifo", fifo))
		fmt.Printf("  queue %-14s     peak depth %.0f, full-stalls %d\n", fifo, depth.Value(), stalls.Value())
	}
	decodeNs := reg.Histogram("pipeline_column_decode_ns", "per-column software decode latency, nanoseconds")
	fmt.Printf("  software decode/column  p50 %.1f us over %d columns\n",
		decodeNs.Quantile(0.5)/1e3, decodeNs.Count())
	fmt.Printf("  host-FPGA transfers     %d bytes each way\n",
		reg.Counter("hybrid_transfer_bytes_total", "bytes moved between host and FPGA per direction",
			telemetry.L("dir", "in")).Value())
}
