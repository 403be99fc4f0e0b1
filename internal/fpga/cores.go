// cores.go implements the three FPGA processing cores of the paper's
// hybrid application — data capture, accumulation, and the enhanced
// Hadamard-transform deconvolver — at a data-exact, cycle-approximate
// level: the arithmetic actually runs in the configured fixed-point
// precision, and every operation reports the hardware cycles it would
// consume.
package fpga

import (
	"fmt"
	"math"

	"repro/internal/hadamard"
	"repro/internal/telemetry"
)

// CaptureCore ingests raw ADC samples, applies the noise threshold, and
// groups samples into bins — the front of the FPGA data path.
type CaptureCore struct {
	// SamplesPerCycle is the ingest parallelism (ADC width ÷ bus width).
	SamplesPerCycle int
	// Threshold zeroes samples strictly below it (0 disables).
	Threshold int64

	kept, dropped int64

	keptC, droppedC, cyclesC *telemetry.Counter
}

// Instrument publishes the capture core's activity into reg as the
// fpga_capture_samples_total{result} and fpga_capture_cycles_total
// families.  A nil registry is a no-op.
func (c *CaptureCore) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.keptC = reg.Counter("fpga_capture_samples_total", "ADC samples processed by the capture core", telemetry.L("result", "kept"))
	c.droppedC = reg.Counter("fpga_capture_samples_total", "ADC samples processed by the capture core", telemetry.L("result", "dropped"))
	c.cyclesC = reg.Counter("fpga_capture_cycles_total", "capture core ingest cycles consumed")
}

// NewCaptureCore validates and constructs the core.
func NewCaptureCore(samplesPerCycle int, threshold int64) (*CaptureCore, error) {
	if samplesPerCycle < 1 {
		return nil, fmt.Errorf("fpga: capture parallelism %d must be >= 1", samplesPerCycle)
	}
	if threshold < 0 {
		return nil, fmt.Errorf("fpga: negative capture threshold")
	}
	return &CaptureCore{SamplesPerCycle: samplesPerCycle, Threshold: threshold}, nil
}

// Capture thresholds the samples in place and returns the cycles consumed.
func (c *CaptureCore) Capture(samples []int64) int64 {
	var kept, dropped int64
	for i, v := range samples {
		if c.Threshold > 0 && v < c.Threshold {
			samples[i] = 0
			dropped++
		} else {
			kept++
		}
	}
	c.kept += kept
	c.dropped += dropped
	cycles := c.CyclesFor(len(samples))
	c.keptC.Add(kept)
	c.droppedC.Add(dropped)
	c.cyclesC.Add(cycles)
	return cycles
}

// CyclesFor returns the ingest cycles for n samples.
func (c *CaptureCore) CyclesFor(n int) int64 {
	return int64((n + c.SamplesPerCycle - 1) / c.SamplesPerCycle)
}

// Stats reports kept/dropped sample counts.
func (c *CaptureCore) Stats() (kept, dropped int64) { return c.kept, c.dropped }

// AccumulatorCore sums successive capture blocks into block-RAM banks: the
// signal-averaging memory of the instrument.  Banks are interleaved by
// address, each sustaining one read-modify-write per cycle.
type AccumulatorCore struct {
	banks []*BRAM

	cyclesC    *telemetry.Counter
	overflowsC *telemetry.Counter
	occupancy  []*telemetry.Gauge
}

// Instrument publishes the accumulator's activity into reg: accumulation
// cycles (fpga_accum_cycles_total), saturation events
// (fpga_accum_overflows_total) and per-bank BRAM occupancy gauges
// (fpga_bram_occupancy_ratio{bank}, refreshed by PublishOccupancy).  A nil
// registry is a no-op.
func (a *AccumulatorCore) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	a.cyclesC = reg.Counter("fpga_accum_cycles_total", "accumulator read-modify-write cycles consumed")
	a.overflowsC = reg.Counter("fpga_accum_overflows_total", "accumulator word saturation events")
	a.occupancy = a.occupancy[:0]
	for _, b := range a.banks {
		a.occupancy = append(a.occupancy, reg.Gauge("fpga_bram_occupancy_ratio",
			"fraction of BRAM accumulator words holding nonzero data", telemetry.L("bank", b.Name)))
	}
}

// PublishOccupancy refreshes the per-bank occupancy gauges (a full scan of
// every bank, so it is meant for frame boundaries, not the per-sample hot
// path).  A no-op until Instrument is called.
func (a *AccumulatorCore) PublishOccupancy() {
	if a.occupancy == nil {
		return
	}
	for i, b := range a.banks {
		a.occupancy[i].Set(b.Occupancy())
	}
}

// NewAccumulatorCore builds nBanks interleaved banks covering `depth` total
// accumulator words of the given width.
func NewAccumulatorCore(nBanks, wordBits, depth int) (*AccumulatorCore, error) {
	if nBanks < 1 {
		return nil, fmt.Errorf("fpga: accumulator needs >= 1 bank")
	}
	if depth < nBanks {
		return nil, fmt.Errorf("fpga: depth %d below bank count %d", depth, nBanks)
	}
	per := (depth + nBanks - 1) / nBanks
	banks := make([]*BRAM, nBanks)
	for i := range banks {
		b, err := NewBRAM(fmt.Sprintf("acc%d", i), wordBits, per)
		if err != nil {
			return nil, err
		}
		banks[i] = b
	}
	return &AccumulatorCore{banks: banks}, nil
}

// Depth returns the total accumulator words.
func (a *AccumulatorCore) Depth() int {
	return len(a.banks) * a.banks[0].Depth
}

// Accumulate adds the block into the accumulator (block[i] → word i) and
// returns the cycles consumed: ceil(len/banks) with perfect interleaving.
func (a *AccumulatorCore) Accumulate(block []int64) (int64, error) {
	if len(block) > a.Depth() {
		return 0, fmt.Errorf("fpga: block of %d exceeds accumulator depth %d", len(block), a.Depth())
	}
	n := len(a.banks)
	before := a.Overflows()
	for i, v := range block {
		if err := a.banks[i%n].Accumulate(i/n, v); err != nil {
			return 0, err
		}
	}
	cycles := int64((len(block) + n - 1) / n)
	a.cyclesC.Add(cycles)
	a.overflowsC.Add(a.Overflows() - before)
	return cycles, nil
}

// Snapshot returns the accumulated words in address order.
func (a *AccumulatorCore) Snapshot() []int64 {
	out := make([]int64, 0, a.Depth())
	n := len(a.banks)
	snaps := make([][]int64, n)
	for i, b := range a.banks {
		snaps[i] = b.Snapshot()
	}
	for i := 0; i < a.Depth(); i++ {
		out = append(out, snaps[i%n][i/n])
	}
	return out
}

// Clear zeroes all banks.
func (a *AccumulatorCore) Clear() {
	for _, b := range a.banks {
		b.Clear()
	}
}

// Overflows sums saturation events across banks.
func (a *AccumulatorCore) Overflows() int64 {
	var t int64
	for _, b := range a.banks {
		_, _, o := b.Stats()
		t += o
	}
	return t
}

// StorageBits reports the BRAM bits consumed.
func (a *AccumulatorCore) StorageBits() int {
	t := 0
	for _, b := range a.banks {
		t += b.Bits()
	}
	return t
}

// GrowthPolicy selects how the FHT core handles bit growth through the
// butterfly stages.
type GrowthPolicy int

const (
	// GrowthSaturate keeps full-scale values and saturates on overflow.
	GrowthSaturate GrowthPolicy = iota
	// GrowthScalePerStage shifts right one bit per stage (normalized
	// transform, computes FWHT/N·2^stages... i.e. FWHT/N when all stages
	// shift), trading precision for guaranteed headroom.
	GrowthScalePerStage
)

// FHTCore is the deconvolution engine: the fast-Walsh–Hadamard simplex
// inverse with LFSR-derived scatter/gather address ROMs (the "memory
// addressing logic" of the abstract), computed in fixed point.
type FHTCore struct {
	Order          int
	Format         Format
	Growth         GrowthPolicy
	ButterflyUnits int // parallel butterfly ALUs
	MemPorts       int // words movable per cycle during scatter/gather

	dec        *hadamard.FHTDecoder
	scatter    []int
	gather     []int
	saturation int64
	work       []int64  // fixed-point scratch reused by DeconvolveTo and the tile path
	work32     []int32  // the integer tile step's work tile
	l1         []uint64 // per-lane sum of |quantized input| (the tile path's headroom bound)

	columnsC, cyclesC, saturationsC *telemetry.Counter
}

// Instrument publishes the deconvolver's activity into reg as the
// fpga_fht_columns_total, fpga_fht_cycles_total and
// fpga_fht_saturations_total families.  A nil registry is a no-op.
func (c *FHTCore) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.columnsC = reg.Counter("fpga_fht_columns_total", "waveforms deconvolved by the FHT core")
	c.cyclesC = reg.Counter("fpga_fht_cycles_total", "FHT core cycles consumed")
	c.saturationsC = reg.Counter("fpga_fht_saturations_total", "fixed-point saturation events in the FHT core")
}

// NewFHTCore builds the core for the canonical m-sequence of the given
// order.
func NewFHTCore(order int, format Format, growth GrowthPolicy, butterflyUnits, memPorts int) (*FHTCore, error) {
	if butterflyUnits < 1 {
		return nil, fmt.Errorf("fpga: butterfly units %d must be >= 1", butterflyUnits)
	}
	if memPorts < 1 {
		return nil, fmt.Errorf("fpga: memory ports %d must be >= 1", memPorts)
	}
	dec, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		return nil, err
	}
	s, g := dec.Permutations()
	return &FHTCore{
		Order:          order,
		Format:         format,
		Growth:         growth,
		ButterflyUnits: butterflyUnits,
		MemPorts:       memPorts,
		dec:            dec,
		scatter:        s,
		gather:         g,
	}, nil
}

// Len returns the waveform length 2^order − 1.
func (c *FHTCore) Len() int { return c.dec.Len() }

// CyclesPerFrame returns the hardware cycles to deconvolve one waveform:
// scatter + log2(M)·(M/2)/units butterflies + gather.
func (c *FHTCore) CyclesPerFrame() int64 {
	m := c.Len() + 1
	stages := int64(c.Order)
	perStage := int64((m/2 + c.ButterflyUnits - 1) / c.ButterflyUnits)
	move := int64((c.Len() + c.MemPorts - 1) / c.MemPorts)
	return move + stages*perStage + move
}

// Deconvolve runs the fixed-point transform on a waveform of expected ion
// counts and returns the recovered arrival distribution along with the
// cycles consumed.  It allocates the result; the serving path uses
// DeconvolveTo with a caller-owned destination instead.
func (c *FHTCore) Deconvolve(y []float64) ([]float64, int64, error) {
	x := make([]float64, c.Len())
	cycles, err := c.DeconvolveTo(x, y)
	if err != nil {
		return nil, 0, err
	}
	return x, cycles, nil
}

// DeconvolveTo runs the fixed-point transform on a waveform of expected
// ion counts into the caller-owned dst (length Len(), fully overwritten)
// and returns the cycles consumed, reusing per-core scratch so the steady
// state allocates nothing.  The arithmetic path is exactly the hardware's:
// quantize to the input format, scatter, staged butterflies with the
// configured growth policy, gather, and final scale.  The scratch makes an
// FHTCore single-threaded; create one per worker.
func (c *FHTCore) DeconvolveTo(dst, y []float64) (int64, error) {
	n := c.Len()
	if len(y) != n {
		return 0, fmt.Errorf("fpga: deconvolve length %d, want %d", len(y), n)
	}
	if len(dst) != n {
		return 0, fmt.Errorf("fpga: deconvolve dst length %d, want %d", len(dst), n)
	}
	m := n + 1
	satBefore := c.saturation
	if cap(c.work) < m {
		c.work = make([]int64, m)
	}
	work := c.work[:m]
	// The scatter ROM is a bijection onto addresses 1..m−1 (checked at
	// construction), so only the unused work row 0 needs re-zeroing.
	work[0] = 0
	for i, p := range c.scatter {
		raw, sat := c.Format.FromFloat(y[i])
		if sat {
			c.saturation++
		}
		work[p] = raw
	}
	shifts := 0
	for h := 1; h < m; h <<= 1 {
		for i := 0; i < m; i += h * 2 {
			for j := i; j < i+h; j++ {
				a, b := work[j], work[j+h]
				s1, sat1 := c.Format.Add(a, b)
				s2, sat2 := c.Format.Sub(a, b)
				if sat1 {
					c.saturation++
				}
				if sat2 {
					c.saturation++
				}
				if c.Growth == GrowthScalePerStage {
					s1 = c.Format.Shr(s1, 1)
					s2 = c.Format.Shr(s2, 1)
				}
				work[j], work[j+h] = s1, s2
			}
		}
		shifts++
	}
	// Undo the per-stage scaling in the final floating rescale so both
	// growth policies return the same nominal values.
	scale := c.dec.Scale()
	if c.Growth == GrowthScalePerStage {
		scale *= math.Ldexp(1, shifts)
	}
	for j := 0; j < n; j++ {
		dst[j] = c.Format.ToFloat(work[c.gather[j]]) * scale
	}
	cycles := c.CyclesPerFrame()
	c.columnsC.Inc()
	c.cyclesC.Add(cycles)
	c.saturationsC.Add(c.saturation - satBefore)
	return cycles, nil
}

// Saturations reports cumulative saturation events — nonzero values mean
// the format is too narrow for the data.
func (c *FHTCore) Saturations() int64 { return c.saturation }

// ResetStats clears the saturation counter.
func (c *FHTCore) ResetStats() { c.saturation = 0 }

// ReferenceDeconvolve runs the same transform in float64, the software
// reference against which fixed-point error is measured.
func (c *FHTCore) ReferenceDeconvolve(y []float64) ([]float64, error) {
	return c.dec.Decode(y)
}
