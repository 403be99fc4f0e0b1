// Package hybrid is the paper's artifact: the Cray XD1 hybrid application
// that couples a CPU-resident software host with the FPGA data-processing
// component.  The FPGA side captures the digitizer stream, accumulates
// repeated IMS cycles in block RAM, and deconvolves the multiplexed
// waveforms with the enhanced Hadamard transform core; the software side
// streams data to the FPGA over the RapidArray fabric and collects results.
//
// The package provides both analytic capacity planning (AnalyzeDataPath,
// AnalyzeOffload — where do the bytes and cycles go, does the design keep
// up with the instrument in real time) and an executable path
// (HybridDeconvolveFrame — actually moving frame data through the modeled
// cores, with simulated wall-clock accounting).
package hybrid

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/fpga"
	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/xd1"
)

// DataPathConfig describes the capture/accumulate front end.
type DataPathConfig struct {
	Node xd1.Node
	// NativeSampleRate is the digitizer's raw conversion rate, samples/s
	// (8-bit samples).  Streaming this rate to the host is the ablation
	// case; the capture core rebins it to SamplesPerSpectrum per
	// extraction on the fly.
	NativeSampleRate float64
	// SamplesPerSpectrum is the rebinned samples per TOF extraction
	// (= m/z bins).
	SamplesPerSpectrum int
	// SpectraPerSec is the TOF extraction rate (1/extraction period).
	SpectraPerSec float64
	// DriftBins is the multiplexed sequence length: the accumulator holds
	// DriftBins × SamplesPerSpectrum words.
	DriftBins int
	// CyclesAccumulated is how many IMS cycles are summed on-FPGA before a
	// frame is shipped to the host.
	CyclesAccumulated int
	// AccumWordBytes is the accumulated word width shipped to the host.
	AccumWordBytes int
	// CaptureSamplesPerCycle is the capture core ingest parallelism.
	CaptureSamplesPerCycle int
	// AccumBanks is the accumulation core bank count.
	AccumBanks int
}

// DefaultDataPathConfig mirrors the reference instrument: 2048-sample
// spectra at 10 kHz, an order-9 sequence, 32-bit accumulator words.
func DefaultDataPathConfig() DataPathConfig {
	return DataPathConfig{
		Node:                   xd1.DefaultNode(),
		NativeSampleRate:       2e9, // 2 GS/s, 8-bit
		SamplesPerSpectrum:     2048,
		SpectraPerSec:          1e4,
		DriftBins:              511,
		CyclesAccumulated:      10,
		AccumWordBytes:         4,
		CaptureSamplesPerCycle: 16, // 128-bit ingest bus
		AccumBanks:             8,
	}
}

// Validate reports the first problem.
func (c DataPathConfig) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if c.SamplesPerSpectrum < 1 || c.DriftBins < 1 || c.CyclesAccumulated < 1 {
		return fmt.Errorf("hybrid: geometry must be positive (samples %d, bins %d, cycles %d)",
			c.SamplesPerSpectrum, c.DriftBins, c.CyclesAccumulated)
	}
	if c.SpectraPerSec <= 0 {
		return fmt.Errorf("hybrid: spectra rate %g must be positive", c.SpectraPerSec)
	}
	if c.NativeSampleRate <= 0 {
		return fmt.Errorf("hybrid: native sample rate %g must be positive", c.NativeSampleRate)
	}
	if c.AccumWordBytes < 1 || c.AccumWordBytes > 8 {
		return fmt.Errorf("hybrid: accumulator word bytes %d out of [1,8]", c.AccumWordBytes)
	}
	if c.CaptureSamplesPerCycle < 1 || c.AccumBanks < 1 {
		return fmt.Errorf("hybrid: core parallelism must be positive")
	}
	return nil
}

// DataPathReport is the byte/cycle budget of the capture front end.
type DataPathReport struct {
	// RawByteRate is the digitizer's native output, bytes/s (one byte per
	// sample).
	RawByteRate float64
	// RawFabricUtilization is RawByteRate over fabric bandwidth — what
	// streaming raw samples to the host would cost (the ablation case).
	RawFabricUtilization float64
	// FrameBytes is one accumulated frame.
	FrameBytes float64
	// FramesPerSec is the accumulated frame output rate.
	FramesPerSec float64
	// AccumulatedByteRate is the post-accumulation stream, bytes/s.
	AccumulatedByteRate float64
	// AccumulatedFabricUtilization is the post-accumulation link load.
	AccumulatedFabricUtilization float64
	// ReductionFactor is raw rate over accumulated rate.
	ReductionFactor float64
	// CaptureCyclesPerSec and AccumCyclesPerSec are FPGA cycle demands.
	CaptureCyclesPerSec float64
	AccumCyclesPerSec   float64
	// FPGAUtilization is demanded cycles over available cycles.
	FPGAUtilization float64
	// BRAMBitsNeeded is the accumulator storage requirement.
	BRAMBitsNeeded int
	// BRAMOK reports whether the accumulator fits the device.
	BRAMOK bool
	// RealTime reports whether the front end keeps up with the digitizer.
	RealTime bool
}

// AnalyzeDataPath computes the capture/accumulation budget.
func AnalyzeDataPath(c DataPathConfig) (DataPathReport, error) {
	if err := c.Validate(); err != nil {
		return DataPathReport{}, err
	}
	var r DataPathReport
	binnedPerSec := float64(c.SamplesPerSpectrum) * c.SpectraPerSec
	r.RawByteRate = c.NativeSampleRate // 8-bit samples
	r.RawFabricUtilization = c.Node.Fabric.Utilization(r.RawByteRate)

	words := float64(c.DriftBins) * float64(c.SamplesPerSpectrum)
	r.FrameBytes = words * float64(c.AccumWordBytes)
	cycleDuration := float64(c.DriftBins) / c.SpectraPerSec // one extraction per drift bin
	frameDuration := cycleDuration * float64(c.CyclesAccumulated)
	r.FramesPerSec = 1 / frameDuration
	r.AccumulatedByteRate = r.FrameBytes * r.FramesPerSec
	r.AccumulatedFabricUtilization = c.Node.Fabric.Utilization(r.AccumulatedByteRate)
	if r.AccumulatedByteRate > 0 {
		r.ReductionFactor = r.RawByteRate / r.AccumulatedByteRate
	}

	r.CaptureCyclesPerSec = c.NativeSampleRate / float64(c.CaptureSamplesPerCycle)
	r.AccumCyclesPerSec = binnedPerSec / float64(c.AccumBanks)
	r.FPGAUtilization = (r.CaptureCyclesPerSec + r.AccumCyclesPerSec) / c.Node.FPGA.ClockHz

	r.BRAMBitsNeeded = int(words) * c.AccumWordBytes * 8
	r.BRAMOK = r.BRAMBitsNeeded <= c.Node.FPGA.BRAMBits
	r.RealTime = r.FPGAUtilization <= 1 && r.AccumulatedFabricUtilization <= 1
	return r, nil
}

// OffloadConfig describes the deconvolution offload.
type OffloadConfig struct {
	Node xd1.Node
	// Order is the m-sequence order of the FHT core.
	Order int
	// Format is the core's fixed-point precision.
	Format fpga.Format
	// Growth is the bit-growth policy.
	Growth fpga.GrowthPolicy
	// ButterflyUnits and MemPorts set core parallelism.
	ButterflyUnits int
	MemPorts       int
	// TOFColumns is how many m/z columns each frame carries (each column
	// is one deconvolution).
	TOFColumns int
	// WordBytes is the per-value transfer size across the fabric.
	WordBytes int
	// DMABurstBytes is the DMA descriptor size.
	DMABurstBytes float64
	// Metrics, when non-nil, receives the executable offload path's
	// telemetry: host↔FPGA transfer bytes and modeled latency (hybrid_*
	// and xd1_dma_* families), FHT core cycle/saturation counts (fpga_fht_*)
	// and fabric utilization (xd1_fabric_utilization_ratio).  Analytic
	// planning (AnalyzeOffload) stays metric-free.  Nil disables
	// instrumentation.
	Metrics *telemetry.Registry
}

// DefaultOffloadConfig mirrors the reference design: order 9, Q23.8
// arithmetic, 4 butterfly units.
func DefaultOffloadConfig() OffloadConfig {
	return OffloadConfig{
		Node:           xd1.DefaultNode(),
		Order:          9,
		Format:         fpga.MustQ(23, 8),
		Growth:         fpga.GrowthSaturate,
		ButterflyUnits: 4,
		MemPorts:       2,
		TOFColumns:     2048,
		WordBytes:      4,
		DMABurstBytes:  4096,
	}
}

// Validate reports the first problem.
func (c OffloadConfig) Validate() error {
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if c.TOFColumns < 1 {
		return fmt.Errorf("hybrid: TOF columns %d must be positive", c.TOFColumns)
	}
	if c.WordBytes < 1 || c.WordBytes > 8 {
		return fmt.Errorf("hybrid: word bytes %d out of [1,8]", c.WordBytes)
	}
	if c.DMABurstBytes <= 0 {
		return fmt.Errorf("hybrid: DMA burst %g must be positive", c.DMABurstBytes)
	}
	return nil
}

// OffloadReport is the frame-rate budget of the deconvolution offload.
type OffloadReport struct {
	// ColumnCycles is FPGA cycles per column deconvolution.
	ColumnCycles int64
	// ComputeTimeS is FPGA time per frame (all columns).
	ComputeTimeS float64
	// TransferInS and TransferOutS are per-frame DMA times.
	TransferInS  float64
	TransferOutS float64
	// FrameTimeS is the steady-state per-frame time with double buffering
	// (max of compute and transfer stages).
	FrameTimeS float64
	// FramesPerSec is 1/FrameTimeS.
	FramesPerSec float64
	// Bottleneck names the limiting stage: "compute", "transfer-in" or
	// "transfer-out".
	Bottleneck string
}

// AnalyzeOffload computes the steady-state offload budget.
func AnalyzeOffload(c OffloadConfig) (OffloadReport, error) {
	if err := c.Validate(); err != nil {
		return OffloadReport{}, err
	}
	core, err := fpga.NewFHTCore(c.Order, c.Format, c.Growth, c.ButterflyUnits, c.MemPorts)
	if err != nil {
		return OffloadReport{}, err
	}
	return analyzeOffloadWithCore(c, core)
}

// analyzeOffloadWithCore is AnalyzeOffload against an already-built core,
// so per-frame re-analysis (the column count varies per frame) does not
// reconstruct the FHT core and its permutation ROMs each time.
func analyzeOffloadWithCore(c OffloadConfig, core *fpga.FHTCore) (OffloadReport, error) {
	dma, err := xd1.NewDMA(c.Node.Fabric, c.DMABurstBytes)
	if err != nil {
		return OffloadReport{}, err
	}
	var r OffloadReport
	r.ColumnCycles = core.CyclesPerFrame()
	r.ComputeTimeS = c.Node.FPGA.CyclesToSeconds(r.ColumnCycles * int64(c.TOFColumns))
	frameBytes := float64(core.Len()) * float64(c.TOFColumns) * float64(c.WordBytes)
	r.TransferInS = dma.TransferTime(frameBytes)
	r.TransferOutS = dma.TransferTime(frameBytes)
	r.FrameTimeS = math.Max(r.ComputeTimeS, math.Max(r.TransferInS, r.TransferOutS))
	r.FramesPerSec = 1 / r.FrameTimeS
	switch r.FrameTimeS {
	case r.ComputeTimeS:
		r.Bottleneck = "compute"
	case r.TransferInS:
		r.Bottleneck = "transfer-in"
	default:
		r.Bottleneck = "transfer-out"
	}
	return r, nil
}

// RealtimeMargin is the paper's real-time claim as one number: the
// instrument's frame period (seconds between frames it hands over: IMS
// cycle duration × cycles accumulated on the FPGA) divided by the modeled
// time the offload needs per frame, rep.FrameTimeS.  Above 1 the design
// keeps up.  The value depends on the frame's column count and on how
// many cycles are accumulated, so quote both beside it.  bench/ computes
// the same ratio from the wire (one cycle's duration over the mean
// Result.SimulatedNs) as hybrid.realtime_margin.
func RealtimeMargin(framePeriodS float64, rep OffloadReport) float64 {
	return framePeriodS / rep.FrameTimeS
}

// HybridResult is the outcome of pushing one frame through the modeled
// hybrid pipeline.
type HybridResult struct {
	Decoded *instrument.Frame
	// SimulatedTimeS is the modeled wall time on the XD1 (transfers +
	// FPGA compute, double buffered).
	SimulatedTimeS float64
	// Saturations counts fixed-point overflow events during the frame.
	Saturations int64
	Report      OffloadReport
}

// HybridDeconvolveFrame runs a frame through the modeled FPGA offload: each
// m/z column is deconvolved by the fixed-point FHT core (data-exact), and
// the simulated wall time is the steady-state double-buffered budget.  When
// c.Metrics is set, the host↔FPGA transfers, core activity and fabric load
// are recorded as telemetry.  It is HybridDeconvolveFrameContext with
// context.Background().
func HybridDeconvolveFrame(f *instrument.Frame, c OffloadConfig) (*HybridResult, error) {
	return HybridDeconvolveFrameContext(context.Background(), f, c)
}

// HybridDeconvolveFrameContext is HybridDeconvolveFrame under a context:
// when ctx is cancelled (a server deadline, a disconnected client) the
// tile loop stops within TileLanes columns and returns ctx.Err(),
// so in-flight work is actually abandoned rather than completed and thrown
// away.  It builds a fresh Offloader and output frame per call; a serving
// path reuses Offloaders and, wanting only the drift profile, calls
// DeconvolveProfileInto.
func HybridDeconvolveFrameContext(ctx context.Context, f *instrument.Frame, c OffloadConfig) (*HybridResult, error) {
	if f == nil {
		return nil, fmt.Errorf("hybrid: nil frame")
	}
	o, err := NewOffloader(c)
	if err != nil {
		return nil, err
	}
	out := instrument.NewFrame(f.DriftBins, f.TOFBins)
	res, err := o.DeconvolveFrameInto(ctx, out, f)
	if err != nil {
		return nil, err
	}
	kept := *res // the caller keeps the result, not the Offloader behind it
	return &kept, nil
}

// TileLanes is the column-tile width of the modeled offload path: the
// number of m/z columns moved through the fixed-point core per
// DeconvolveColumns call.  It matches the CPU pipeline's block width so an
// order-9 work tile (64 KiB of int64 words) stays cache-resident on the
// host that models it.
const TileLanes = 16

// Offloader is a reusable executable offload engine: one validated config
// with its persistent fixed-point FHT core, so repeated frames pay no core
// reconstruction and no per-column allocation.  The core reads the input
// frame's own storage tile by tile — its only scratch is the core's work
// tile, plus one accumulator of 2^Order words once a profile is asked for
// — which makes an Offloader single-threaded; give each goroutine its own.
// The per-frame budget is analyzed once per TOF width and kept, and the
// transfer telemetry's handles are resolved once, in NewOffloader.  Every
// entry point returns the Offloader's own HybridResult, valid until its
// next call, so a warm Offloader allocates nothing per frame.
type Offloader struct {
	cfg  OffloadConfig
	core *fpga.FHTCore
	dec  *hadamard.FHTDecoder // DeconvolveRowSumsInto's float transform
	acc  []int64              // DeconvolveProfileInto's row sums, in transform-row order

	rep     OffloadReport // the budget of a frame of repCols TOF columns
	repCols int
	xfer    *transferMetrics // nil without a registry
	res     HybridResult     // what the last call returned
}

// transferMetrics are the offload's per-frame transfer telemetry handles:
// an instrumented DMA engine (xd1_dma_*) and the hybrid_* families.
type transferMetrics struct {
	dma   *xd1.DMA
	bytes [2]*telemetry.Counter   // hybrid_transfer_bytes_total{dir=in,out}
	ns    [2]*telemetry.Histogram // hybrid_transfer_ns{dir=in,out}
	util  *telemetry.Gauge
}

// NewOffloader validates the config and builds the persistent core,
// instrumented into c.Metrics when set.
func NewOffloader(c OffloadConfig) (*Offloader, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	core, err := fpga.NewFHTCore(c.Order, c.Format, c.Growth, c.ButterflyUnits, c.MemPorts)
	if err != nil {
		return nil, err
	}
	core.Instrument(c.Metrics)
	dec, err := hadamard.NewFHTDecoder(c.Order)
	if err != nil {
		return nil, err
	}
	o := &Offloader{cfg: c, core: core, dec: dec}
	if reg := c.Metrics; reg != nil {
		dma, err := xd1.NewDMA(c.Node.Fabric, c.DMABurstBytes)
		if err != nil {
			return nil, err
		}
		dma.Instrument(reg)
		o.xfer = &transferMetrics{
			dma:  dma,
			util: reg.Gauge("xd1_fabric_utilization_ratio", "fraction of RapidArray bandwidth consumed per transfer direction at the sustained frame rate"),
		}
		for i, dir := range []string{"in", "out"} {
			l := telemetry.L("dir", dir)
			o.xfer.bytes[i] = reg.Counter("hybrid_transfer_bytes_total", "bytes moved between host and FPGA per direction", l)
			o.xfer.ns[i] = reg.Histogram("hybrid_transfer_ns", "modeled per-frame host-FPGA transfer latency, nanoseconds", l)
		}
	}
	return o, nil
}

// Len reports the core's waveform length (frame drift bins).
func (o *Offloader) Len() int { return o.core.Len() }

// MaxProfileColumns is the widest frame DeconvolveProfileInto accepts: the
// most TOF columns whose fixed-point row sums the configured Format keeps
// exact (fpga.FHTCore.MaxReduceColumns).
func (o *Offloader) MaxProfileColumns() int { return o.core.MaxReduceColumns() }

// DeconvolveFrameInto runs one frame through the modeled FPGA offload into
// the caller-owned dst frame (same geometry as f, typically from an
// instrument.FramePool).  Column tiles move through the core's persistent
// work tile, so the steady state allocates nothing.  The returned
// HybridResult's Decoded field is dst; Saturations counts this frame's
// events only.
func (o *Offloader) DeconvolveFrameInto(ctx context.Context, dst, f *instrument.Frame) (*HybridResult, error) {
	if f == nil || dst == nil {
		return nil, fmt.Errorf("hybrid: nil frame")
	}
	if dst.DriftBins != f.DriftBins || dst.TOFBins != f.TOFBins {
		return nil, fmt.Errorf("hybrid: dst frame %dx%d != src %dx%d", dst.DriftBins, dst.TOFBins, f.DriftBins, f.TOFBins)
	}
	res, err := o.offload(ctx, f.DriftBins, f.TOFBins, false, func(t0, lanes int) error {
		_, err := o.core.DeconvolveColumns(dst.Data, f.Data, f.TOFBins, t0, lanes)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Decoded = dst
	return res, nil
}

// DeconvolveProfileInto runs one frame through the modeled FPGA offload
// like DeconvolveFrameInto, but keeps only the decoded frame's drift
// profile: profile (f.DriftBins values) receives the row sums, bit for
// bit what DriftProfileInto of DeconvolveFrameInto's frame holds.  No
// frame is stored — the core reduces each tile into an int64 row-sum
// accumulator, and one gather and rescale of its rows ends the frame.
// Saturations, SimulatedTimeS and Report are DeconvolveFrameInto's; the
// result's Decoded is nil.  A frame wider than MaxProfileColumns is
// rejected before any work.
func (o *Offloader) DeconvolveProfileInto(ctx context.Context, profile []float64, f *instrument.Frame) (*HybridResult, error) {
	if f == nil {
		return nil, fmt.Errorf("hybrid: nil frame")
	}
	if err := o.profileArgs(profile, f.DriftBins, f.TOFBins); err != nil {
		return nil, err
	}
	res, err := o.offload(ctx, f.DriftBins, f.TOFBins, false, func(t0, lanes int) error {
		_, err := o.core.ReduceColumns(o.acc, f.Data, f.TOFBins, t0, lanes)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.core.GatherSums(profile, o.acc)
	return res, nil
}

// DeconvolveRowSumsInto answers a frame from its row sums alone: profile
// holds, on entry, the exact row sums of a frame of Len() drift bins and
// tofBins TOF columns of integer cells, |cell| <= bound (frameio.ReadRowSums'
// sums and bound), and receives its drift profile in place — bit for bit
// DeconvolveProfileInto's over the same cells, with its Saturations,
// SimulatedTimeS and Report.  Under the proof (fpga.FHTCore.ProvedCounts)
// the word model computes the exact rational answer, and so does one float
// transform of the exact row sums — hadamard.FHTDecoder.DecodeTo, then + 0
// (a zero bin is +0, as GatherSums writes it) — with Saturations 0.  The
// frame still passes through the modeled offload: its spans, report, cycle
// and column charge and transfer metrics are the word model's, and
// fpga_fht carries proved=1.  A bound the proof does not clear is an
// error, before any work: such a frame's cells go through
// DeconvolveProfileInto.
func (o *Offloader) DeconvolveRowSumsInto(ctx context.Context, profile []float64, tofBins int, bound int64) (*HybridResult, error) {
	if err := o.profileArgs(profile, len(profile), tofBins); err != nil {
		return nil, err
	}
	if !o.core.ProvedCounts(bound) {
		return nil, fmt.Errorf("hybrid: the %v proof does not clear count bound %d; the word model needs the cells", o.cfg.Format, bound)
	}
	return o.offload(ctx, len(profile), tofBins, true, func(_, lanes int) error {
		if err := o.dec.DecodeTo(profile, profile); err != nil {
			return err
		}
		for d := range profile {
			profile[d] += 0
		}
		o.core.ChargeColumns(lanes)
		return nil
	})
}

// profileArgs checks a reducing call's profile and width, and zeroes the
// accumulator (built on first use) for the frame.
func (o *Offloader) profileArgs(profile []float64, driftBins, tofBins int) error {
	if len(profile) != driftBins {
		return fmt.Errorf("hybrid: profile of %d values for %d drift bins", len(profile), driftBins)
	}
	if widest := o.MaxProfileColumns(); tofBins > widest {
		return fmt.Errorf("hybrid: %v row sums over %d TOF columns are not exact (at most %d)", o.cfg.Format, tofBins, widest)
	}
	if o.acc == nil {
		o.acc = make([]int64, o.core.Len()+1)
	}
	clear(o.acc)
	return nil
}

// report is the per-frame budget of a frame of tofBins columns, analyzed
// on the first frame of that width after another.
func (o *Offloader) report(tofBins int) (OffloadReport, error) {
	if o.repCols != tofBins {
		cfg := o.cfg
		cfg.TOFColumns = tofBins
		rep, err := analyzeOffloadWithCore(cfg, o.core)
		if err != nil {
			return OffloadReport{}, err
		}
		o.rep, o.repCols = rep, tofBins
	}
	return o.rep, nil
}

// offload is the one frame-level tile loop behind every entry point:
// geometry and cancellation checks, the offload span tree, the per-frame
// budget, then tile(t0, lanes) for TileLanes columns at a time through the
// core — stored, or reduced into o.acc — and the transfer metrics.  A
// proved frame is answered in one step over all its columns; nothing is
// left to cancel between tiles.
func (o *Offloader) offload(ctx context.Context, driftBins, tofBins int, proved bool, tile func(t0, lanes int) error) (*HybridResult, error) {
	if o.core.Len() != driftBins {
		return nil, fmt.Errorf("hybrid: core length %d != frame drift bins %d", o.core.Len(), driftBins)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	span := trace.SpanFromContext(ctx).Child("hybrid_offload")
	defer span.End()
	rep, err := o.report(tofBins)
	if err != nil {
		return nil, err
	}
	satBefore := o.core.Saturations()
	cursor := emitModeledFrontEnd(span, o.cfg, driftBins, tofBins, rep)
	fht := span.Child("fpga_fht")
	fht.SetInt("columns", int64(tofBins))
	fht.SetInt("modeled_ns", int64(rep.ComputeTimeS*1e9))
	step := TileLanes
	if proved {
		fht.SetInt("proved", 1)
		step = tofBins
	} else {
		fht.SetInt("proved", 0)
	}
	// One ctx check per tile keeps the every-16-columns cancellation
	// cadence.
	for t0 := 0; t0 < tofBins; t0 += step {
		if err := ctx.Err(); err != nil {
			fht.End()
			return nil, err
		}
		if err := tile(t0, min(step, tofBins-t0)); err != nil {
			fht.End()
			return nil, err
		}
	}
	fht.SetInt("saturations", o.core.Saturations())
	fht.End()
	frameBytes := float64(driftBins) * float64(tofBins) * float64(o.cfg.WordBytes)
	dmaOut := span.ChildAt("xd1_dma_out", cursor)
	dmaOut.SetInt("bytes", int64(frameBytes))
	dmaOut.EndAfter(time.Duration(rep.TransferOutS * 1e9))
	if m := o.xfer; m != nil {
		m.record(o.cfg.Node.Fabric, frameBytes, rep)
	}
	o.res = HybridResult{
		SimulatedTimeS: rep.FrameTimeS,
		Saturations:    o.core.Saturations() - satBefore,
		Report:         rep,
	}
	return &o.res, nil
}

// emitModeledFrontEnd lays the modeled FPGA front-end and inbound-DMA
// stages of one frame as synthetic spans under parent — fpga_capture and
// fpga_accumulate busy time from the default core parallelism (ingest
// width, bank count) at the node's clock, then the XD1 DMA cost model's
// inbound transfer.  The spans sit on a timeline cursor starting at the
// offload span so the Perfetto view reads as one pipeline; the returned
// cursor marks where the outbound DMA would begin.  A zero parent makes
// the whole thing free.
func emitModeledFrontEnd(parent trace.Span, cfg OffloadConfig, driftBins, tofBins int, rep OffloadReport) time.Time {
	cursor := time.Now()
	if !parent.Active() {
		return cursor
	}
	dp := DefaultDataPathConfig()
	cells := float64(driftBins) * float64(tofBins) * float64(dp.CyclesAccumulated)
	capD := time.Duration(cfg.Node.FPGA.CyclesToSeconds(int64(cells/float64(dp.CaptureSamplesPerCycle))) * 1e9)
	accD := time.Duration(cfg.Node.FPGA.CyclesToSeconds(int64(cells/float64(dp.AccumBanks))) * 1e9)
	capSpan := parent.ChildAt("fpga_capture", cursor)
	capSpan.SetInt("cycles_accumulated", int64(dp.CyclesAccumulated))
	capSpan.EndAfter(capD)
	cursor = cursor.Add(capD)
	accSpan := parent.ChildAt("fpga_accumulate", cursor)
	accSpan.SetInt("banks", int64(dp.AccumBanks))
	accSpan.EndAfter(accD)
	cursor = cursor.Add(accD)
	frameBytes := int64(float64(driftBins) * float64(tofBins) * float64(cfg.WordBytes))
	dmaIn := parent.ChildAt("xd1_dma_in", cursor)
	dmaIn.SetInt("bytes", frameBytes)
	dmaIn.SetInt("burst_bytes", int64(cfg.DMABurstBytes))
	dmaIn.EndAfter(time.Duration(rep.TransferInS * 1e9))
	return cursor.Add(time.Duration(rep.TransferInS * 1e9))
}

// record replays one frame's modeled host↔FPGA movement through the
// instrumented DMA engine and publishes the hybrid-level transfer and
// fabric-utilization telemetry.
func (m *transferMetrics) record(fabric xd1.Fabric, frameBytes float64, rep OffloadReport) {
	for i := range m.bytes {
		t := m.dma.TransferTime(frameBytes)
		m.bytes[i].Add(int64(frameBytes))
		m.ns[i].Observe(t * 1e9)
	}
	// Sustained link load at the steady-state frame rate, per direction.
	m.util.Set(fabric.Utilization(frameBytes * rep.FramesPerSec))
}

// SoftwareEstimate models the pure-CPU baseline on the same node: the
// measured per-frame CPU time on the simulation host is scaled to the XD1
// Opteron by clock ratio and divided across its cores (the embarrassingly
// parallel column loop).
type SoftwareEstimate struct {
	// MeasuredFrameS is the benchmarked per-frame time on the simulation
	// host with one thread.
	MeasuredFrameS float64
	// HostClockHz is the simulation host clock used for scaling.
	HostClockHz float64
}

// FrameTimeOn estimates per-frame wall time on the target CPU.
func (s SoftwareEstimate) FrameTimeOn(cpu xd1.CPU) (float64, error) {
	if s.MeasuredFrameS <= 0 || s.HostClockHz <= 0 {
		return 0, fmt.Errorf("hybrid: software estimate needs positive measurement and clock")
	}
	if err := cpu.Validate(); err != nil {
		return 0, err
	}
	scaled := s.MeasuredFrameS * s.HostClockHz / cpu.ClockHz
	return scaled / float64(cpu.Cores), nil
}

// ClusterReport describes multi-node scaling of the deconvolution offload:
// each XD1 node processes whole frames independently; a collection host
// gathers decoded frames over its own fabric link, which eventually caps
// the aggregate.
type ClusterReport struct {
	Nodes        int
	PerNodeFPS   float64
	AggregateFPS float64
	HostLimitFPS float64
	Efficiency   float64 // aggregate / (nodes × per-node)
	LimitedBy    string  // "compute" or "host-link"
}

// AnalyzeCluster evaluates the offload across nodes, with decoded frames
// collected over hostLink.
func AnalyzeCluster(c OffloadConfig, nodes int, hostLink xd1.Fabric) (ClusterReport, error) {
	if nodes < 1 {
		return ClusterReport{}, fmt.Errorf("hybrid: nodes %d must be >= 1", nodes)
	}
	if err := hostLink.Validate(); err != nil {
		return ClusterReport{}, err
	}
	node, err := AnalyzeOffload(c)
	if err != nil {
		return ClusterReport{}, err
	}
	core, err := fpga.NewFHTCore(c.Order, c.Format, c.Growth, c.ButterflyUnits, c.MemPorts)
	if err != nil {
		return ClusterReport{}, err
	}
	frameBytes := float64(core.Len()) * float64(c.TOFColumns) * float64(c.WordBytes)
	hostLimit := hostLink.BandwidthBytes / frameBytes
	agg := float64(nodes) * node.FramesPerSec
	limitedBy := "compute"
	if agg > hostLimit {
		agg = hostLimit
		limitedBy = "host-link"
	}
	return ClusterReport{
		Nodes:        nodes,
		PerNodeFPS:   node.FramesPerSec,
		AggregateFPS: agg,
		HostLimitFPS: hostLimit,
		Efficiency:   agg / (float64(nodes) * node.FramesPerSec),
		LimitedBy:    limitedBy,
	}, nil
}
