// instrument.go composes source, trap, gate, drift tube, TOF and detector
// into the full simulated spectrometer.  Its product is the Frame: the
// accumulated two-dimensional (drift bin × m/z bin) raw data block that the
// paper's FPGA component captures, accumulates and deconvolves.
package instrument

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/prs"
)

// Mode selects the acquisition scheme.
type Mode int

const (
	// ModeSignalAveraging is the conventional single-pulse experiment: one
	// gate opening per IMS cycle (~duty cycle 1/N).
	ModeSignalAveraging Mode = iota
	// ModeMultiplexed gates the continuous beam with the pseudorandom
	// sequence (duty cycle ≈ 1/2).
	ModeMultiplexed
	// ModeMultiplexedTrap combines the ion funnel trap with multiplexed
	// gating: ions arriving while the gate is closed are stored and
	// released with the next open bin (utilization beyond 1/2).
	ModeMultiplexedTrap
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSignalAveraging:
		return "signal-averaging"
	case ModeMultiplexed:
		return "multiplexed"
	case ModeMultiplexedTrap:
		return "multiplexed+trap"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// DetectionKind selects the digitizer technology.
type DetectionKind int

const (
	// DetectionADC digitizes analog detector current (default; wide
	// dynamic range, baseline noise).
	DetectionADC DetectionKind = iota
	// DetectionTDC counts discrete ion events with converter dead time
	// (noiseless at low flux, saturates at high flux).
	DetectionTDC
)

// String implements fmt.Stringer.
func (d DetectionKind) String() string {
	switch d {
	case DetectionADC:
		return "adc"
	case DetectionTDC:
		return "tdc"
	}
	return fmt.Sprintf("detection(%d)", int(d))
}

// TrapConfig bundles funnel trap parameters for the instrument.
type TrapConfig struct {
	Capacity           float64
	TrappingEfficiency float64
	ReleaseFraction    float64
	// EqualizeRelease caps each multiplexed release at the AGC-estimated
	// per-pulse quantum (cycle input ÷ gate pulses), storing the excess.
	// Uniform packets keep the sequence's spectral conditioning intact;
	// without it, packet sizes track the inter-pulse gaps and the decoder
	// must invert an ill-conditioned weighted modulation.
	EqualizeRelease bool
}

// DefaultTrapConfig mirrors the PNNL ion funnel trap with AGC-equalized
// release.
func DefaultTrapConfig() TrapConfig {
	return TrapConfig{Capacity: 3e7, TrappingEfficiency: 0.9, ReleaseFraction: 1.0, EqualizeRelease: true}
}

// Config fully describes a simulated acquisition.
type Config struct {
	SequenceOrder int // m-sequence order n (length 2^n − 1)
	Oversample    int // ≥1; bins per sequence element
	Defect        int // defect bins per open run (modified PRS); 0 = off
	Mode          Mode
	Gate          Gate
	Tube          DriftTube
	TOF           TOF
	Detector      Detector
	ADC           ADC
	// Detection selects ADC (default) or TDC digitization; TDC holds the
	// counting parameters when DetectionTDC is selected.
	Detection DetectionKind
	TDC       TDC
	Trap      TrapConfig
	// BinWidthS is the drift-axis bin width (= gate pulse width), s.
	BinWidthS float64
	// Frames is how many IMS cycles are accumulated into one output frame.
	Frames int
	// ExactSamplingCutoff bounds per-extraction exact sampling; above it
	// the digitizer uses the moment-matched approximation (see
	// ADC.AccumulateSamples).
	ExactSamplingCutoff int64
}

// DefaultConfig returns the reference configuration: order-9 sequence,
// 100 µs bins, multiplexed with trap, 10 accumulated cycles.
func DefaultConfig() Config {
	return Config{
		SequenceOrder:       9,
		Oversample:          1,
		Defect:              0,
		Mode:                ModeMultiplexedTrap,
		Gate:                DefaultGate(),
		Tube:                DefaultDriftTube(),
		TOF:                 DefaultTOF(),
		Detector:            DefaultDetector(),
		ADC:                 DefaultADC(),
		Detection:           DetectionADC,
		TDC:                 DefaultTDC(),
		Trap:                DefaultTrapConfig(),
		BinWidthS:           1e-4,
		Frames:              10,
		ExactSamplingCutoff: 16,
	}
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	if _, err := prs.Taps(c.SequenceOrder); err != nil {
		return err
	}
	if c.Oversample < 1 {
		return fmt.Errorf("instrument: oversample %d must be >= 1", c.Oversample)
	}
	if c.Defect < 0 {
		return fmt.Errorf("instrument: negative defect")
	}
	if c.Defect > 0 && c.Oversample < 2 {
		return fmt.Errorf("instrument: defect modification requires oversample >= 2")
	}
	if err := c.Gate.Validate(); err != nil {
		return err
	}
	if err := c.Tube.Validate(); err != nil {
		return err
	}
	if err := c.TOF.Validate(); err != nil {
		return err
	}
	if err := c.Detector.Validate(); err != nil {
		return err
	}
	if err := c.ADC.Validate(); err != nil {
		return err
	}
	if c.Detection == DetectionTDC {
		if err := c.TDC.Validate(); err != nil {
			return err
		}
	}
	if c.BinWidthS <= 0 {
		return fmt.Errorf("instrument: bin width %g must be positive", c.BinWidthS)
	}
	if c.BinWidthS < c.TOF.ExtractionPeriodS {
		return fmt.Errorf("instrument: bin width %g below TOF extraction period %g", c.BinWidthS, c.TOF.ExtractionPeriodS)
	}
	if c.Frames < 1 {
		return fmt.Errorf("instrument: frames %d must be >= 1", c.Frames)
	}
	if c.Mode == ModeMultiplexedTrap {
		if c.Trap.Capacity <= 0 || c.Trap.TrappingEfficiency <= 0 || c.Trap.ReleaseFraction <= 0 {
			return fmt.Errorf("instrument: trap mode requires valid trap config")
		}
	}
	return nil
}

// Sequence returns the gating sequence implied by the configuration
// (m-sequence, oversampled and defect-modified as configured).
func (c Config) Sequence() (prs.Sequence, error) {
	s, err := prs.MSequence(c.SequenceOrder)
	if err != nil {
		return nil, err
	}
	if c.Oversample > 1 {
		s = s.Oversample(c.Oversample)
	}
	if c.Defect > 0 {
		s = s.Modify(c.Defect)
	}
	return s, nil
}

// DriftBins returns the number of drift-axis bins per IMS cycle.
func (c Config) DriftBins() int {
	return (1<<c.SequenceOrder - 1) * c.Oversample
}

// CycleDuration returns the length of one IMS cycle, s.
func (c Config) CycleDuration() float64 {
	return float64(c.DriftBins()) * c.BinWidthS
}

// Frame is the accumulated raw data block: Data[d*TOFBins+t] holds the
// accumulated ADC counts at drift bin d and m/z bin t.
type Frame struct {
	DriftBins int
	TOFBins   int
	Data      []float64
}

// NewFrame allocates a zero frame.
func NewFrame(driftBins, tofBins int) *Frame {
	return &Frame{DriftBins: driftBins, TOFBins: tofBins, Data: make([]float64, driftBins*tofBins)}
}

// At returns the cell value.
func (f *Frame) At(d, t int) float64 { return f.Data[d*f.TOFBins+t] }

// Set assigns the cell value.
func (f *Frame) Set(d, t int, v float64) { f.Data[d*f.TOFBins+t] = v }

// Add increments the cell value.
func (f *Frame) Add(d, t int, v float64) { f.Data[d*f.TOFBins+t] += v }

// DriftProfile returns the drift-axis waveform summed over all m/z bins.
func (f *Frame) DriftProfile() []float64 {
	out := make([]float64, f.DriftBins)
	f.DriftProfileInto(out)
	return out
}

// DriftProfileInto fills dst (length DriftBins) with the drift-axis
// waveform, each row summed left to right: the allocation-free variant of
// DriftProfile.
func (f *Frame) DriftProfileInto(dst []float64) {
	for d := range dst[:f.DriftBins] {
		row := f.Data[d*f.TOFBins : (d+1)*f.TOFBins]
		var s float64
		for _, v := range row {
			s += v
		}
		dst[d] = s
	}
}

// TOFSpectrum returns a copy of the m/z spectrum at one drift bin.
func (f *Frame) TOFSpectrum(d int) []float64 {
	out := make([]float64, f.TOFBins)
	copy(out, f.Data[d*f.TOFBins:(d+1)*f.TOFBins])
	return out
}

// DriftVector returns the drift-axis waveform at a single m/z bin — the
// vector that Hadamard deconvolution operates on.
func (f *Frame) DriftVector(t int) []float64 {
	out := make([]float64, f.DriftBins)
	for d := 0; d < f.DriftBins; d++ {
		out[d] = f.Data[d*f.TOFBins+t]
	}
	return out
}

// DriftVectorInto fills dst with the drift-axis waveform at m/z bin t,
// the allocation-free variant of DriftVector.  Extra dst capacity is left
// untouched.
func (f *Frame) DriftVectorInto(t int, dst []float64) {
	for d := 0; d < f.DriftBins && d < len(dst); d++ {
		dst[d] = f.Data[d*f.TOFBins+t]
	}
}

// SetDriftVector writes a drift-axis waveform into m/z column t.
func (f *Frame) SetDriftVector(t int, v []float64) {
	for d := 0; d < f.DriftBins && d < len(v); d++ {
		f.Data[d*f.TOFBins+t] = v[d]
	}
}

// GatherColumns transposes the lanes m/z columns [t0, t0+lanes) into a
// row-major column-blocked tile (tile[d*lanes+l] = cell (d, t0+l)) in one
// cache-friendly pass: both the read of each frame row segment and the
// write of each tile row are unit-stride copies, unlike the per-column
// DriftVector gather whose accesses stride by TOFBins.  tile must hold
// DriftBins×lanes values and is fully overwritten.
//
// Both decode paths now run their tile steps straight on Data, so
// GatherColumns and ScatterColumns have no caller left in this module
// outside tests; they stay because bench/layers.go times them as the
// instrument.gather_scatter_ns_per_col rung of the ladder.
func (f *Frame) GatherColumns(t0, lanes int, tile []float64) {
	for d := 0; d < f.DriftBins; d++ {
		copy(tile[d*lanes:(d+1)*lanes], f.Data[d*f.TOFBins+t0:d*f.TOFBins+t0+lanes])
	}
}

// ScatterColumns writes a row-major column-blocked tile (the GatherColumns
// layout) back into m/z columns [t0, t0+lanes), again as unit-stride row
// segment copies.
func (f *Frame) ScatterColumns(t0, lanes int, tile []float64) {
	for d := 0; d < f.DriftBins; d++ {
		copy(f.Data[d*f.TOFBins+t0:d*f.TOFBins+t0+lanes], tile[d*lanes:(d+1)*lanes])
	}
}

// Counts is a frame whose cells are proven integers that fit int32: the
// accumulated ADC counts the paper's FPGA holds before its transform.
// Data[d*TOFBins+t] holds the count at drift bin d and m/z bin t, 4 bytes
// a cell.  It is a type of its own, not a Frame with a second slice, so no
// float consumer can read one by accident.  Bound is at least the largest
// |cell|: frameio records it while it decodes, and the integer tile steps
// size their overflow headroom from it (DriftBins·Bound bounds every
// column's L1 = Σ|cell|).
type Counts struct {
	DriftBins int
	TOFBins   int
	Data      []int32
	Bound     int64
}

// NewCounts allocates a zero counts frame.
func NewCounts(driftBins, tofBins int) *Counts {
	return &Counts{DriftBins: driftBins, TOFBins: tofBins, Data: make([]int32, driftBins*tofBins)}
}

// DriftProfileInto fills dst (length DriftBins) with the drift-axis
// waveform: each row summed in int64, which is exact for any int32 count
// in any association, then converted to float64 (exact below 2^53, so for
// any row shorter than 2^22 cells).  Four independent accumulators keep
// the adds from waiting on each other.
func (c *Counts) DriftProfileInto(dst []float64) {
	for d := range dst[:c.DriftBins] {
		row := c.Data[d*c.TOFBins : (d+1)*c.TOFBins]
		var s0, s1, s2, s3 int64
		for ; len(row) >= 4; row = row[4:] {
			r := (*[4]int32)(row)
			s0 += int64(r[0])
			s1 += int64(r[1])
			s2 += int64(r[2])
			s3 += int64(r[3])
		}
		for _, v := range row {
			s0 += int64(v)
		}
		dst[d] = float64((s0 + s1) + (s2 + s3))
	}
}

// TotalCounts sums the whole frame.
func (f *Frame) TotalCounts() float64 {
	var s float64
	for _, v := range f.Data {
		s += v
	}
	return s
}

// RunStats reports ion bookkeeping for an acquisition.
type RunStats struct {
	Mode           Mode
	Cycles         int
	DurationS      float64 // total acquisition time
	IonsGenerated  float64 // charges delivered by the source
	IonsInjected   float64 // charges injected into the drift tube
	IonsDetected   float64 // expected charges reaching the detector
	TrapLosses     float64 // charges lost to trap saturation
	Utilization    float64 // IonsInjected / IonsGenerated
	MeanPacketSize float64 // mean charges per gate injection
}

// Instrument is a configured, reusable simulator.
type Instrument struct {
	cfg      Config
	seq      prs.Sequence
	waveform []float64 // per-bin gate transmission
	source   *ESISource
}

// New builds an instrument for a configuration and source.
func New(cfg Config, source *ESISource) (*Instrument, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if source == nil {
		return nil, fmt.Errorf("instrument: nil source")
	}
	seq, err := cfg.Sequence()
	if err != nil {
		return nil, err
	}
	var waveform []float64
	switch cfg.Mode {
	case ModeSignalAveraging:
		waveform = make([]float64, cfg.DriftBins())
		waveform[0] = cfg.Gate.OpenTransmission
	case ModeMultiplexed, ModeMultiplexedTrap:
		waveform, err = cfg.Gate.EffectiveWaveform(seq)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("instrument: unknown mode %v", cfg.Mode)
	}
	return &Instrument{cfg: cfg, seq: seq, waveform: waveform, source: source}, nil
}

// Config returns the instrument configuration.
func (in *Instrument) Config() Config { return in.cfg }

// Sequence returns the gating sequence in use.
func (in *Instrument) Sequence() prs.Sequence { return in.seq }

// Modulation returns the instrument's effective per-bin injection weights
// for one IMS cycle with a steady unit-rate source: the waveform a decoder
// should deconvolve against.  For beam modes it is the gate transmission
// waveform; for trap mode each open bin is additionally weighted by the
// charge the trap accumulated since the previous release (the
// deterministic gap pattern of the sequence).  Weights are normalized so
// their sum equals the number of gate-open bins, making decoded amplitudes
// comparable with the ideal-sequence decoders.
func (in *Instrument) Modulation() []float64 {
	nBins := in.cfg.DriftBins()
	w := make([]float64, nBins)
	switch in.cfg.Mode {
	case ModeMultiplexedTrap:
		trap := in.newTrap()
		quantum := math.Inf(1)
		if in.cfg.Trap.EqualizeRelease {
			pulses := float64(in.seq.Ones())
			if pulses > 0 {
				quantum = in.cfg.BinWidthS * float64(nBins) / pulses * in.cfg.Trap.TrappingEfficiency
			}
		}
		// Two passes: the first warms the trap into its cyclic steady
		// state (the leftover charge entering bin 0), the second records.
		for pass := 0; pass < 2; pass++ {
			for b := 0; b < nBins; b++ {
				trap.Accumulate(1, in.cfg.BinWidthS)
				if in.waveform[b] > 0 && in.seq[b] != 0 {
					released := trap.Release()
					if !math.IsInf(quantum, 1) {
						trap.stored += released
						released = trap.ReleaseUpTo(quantum)
					}
					packet := released * in.waveform[b] / in.cfg.Gate.OpenTransmission
					if pass == 1 {
						w[b] = packet
					}
				}
			}
		}
	default:
		copy(w, in.waveform)
	}
	var sum float64
	open := 0
	for b := range w {
		sum += w[b]
		if in.cfg.Mode == ModeSignalAveraging {
			if b == 0 {
				open = 1
			}
		} else if in.seq[b] != 0 {
			open++
		}
	}
	if sum > 0 && open > 0 {
		scale := float64(open) / sum
		for b := range w {
			w[b] *= scale
		}
	}
	return w
}

// GatePulsesPerCycle counts gate openings per IMS cycle.
func (in *Instrument) GatePulsesPerCycle() int {
	if in.cfg.Mode == ModeSignalAveraging {
		return 1
	}
	return in.seq.Ones()
}

// newTrap builds a funnel trap from the configuration.
func (in *Instrument) newTrap() *FunnelTrap {
	return &FunnelTrap{
		Capacity:           in.cfg.Trap.Capacity,
		TrappingEfficiency: in.cfg.Trap.TrappingEfficiency,
		ReleaseFraction:    in.cfg.Trap.ReleaseFraction,
	}
}

// injectionProfile computes the per-bin injected charge (per analyte and
// total) for one IMS cycle starting at time t0, plus bookkeeping.  In trap
// mode the supplied trap carries stored charge across cycles, so successive
// cycles of an acquisition see the trap's cyclic steady state.
func (in *Instrument) injectionProfile(t0 float64, trap *FunnelTrap) (perAnalyte [][]float64, stats RunStats) {
	nBins := in.cfg.DriftBins()
	nA := len(in.source.Mixture.Analytes)
	perAnalyte = make([][]float64, nA)
	for i := range perAnalyte {
		perAnalyte[i] = make([]float64, nBins)
	}
	bw := in.cfg.BinWidthS

	switch in.cfg.Mode {
	case ModeSignalAveraging, ModeMultiplexed:
		// Continuous beam chopped by the gate: injected = rate·bw·w[bin].
		for b := 0; b < nBins; b++ {
			w := in.waveform[b]
			rates := in.source.Rates(t0 + float64(b)*bw)
			for i, r := range rates {
				stats.IonsGenerated += r * bw
				if w > 0 {
					perAnalyte[i][b] = r * bw * w
					stats.IonsInjected += perAnalyte[i][b]
				}
			}
		}
	case ModeMultiplexedTrap:
		// The funnel trap stores beam between open bins and releases a
		// packet at each opening, scaled by the gate transmission.
		// Composition of the trapped population follows the recent beam.
		quantum := math.Inf(1)
		if in.cfg.Trap.EqualizeRelease {
			// AGC: the per-pulse quantum drains exactly the expected
			// cycle input, estimated from the rate at cycle start.
			tot0 := in.source.TotalRateAt(t0)
			pulses := float64(in.seq.Ones())
			if pulses > 0 {
				quantum = tot0 * bw * float64(nBins) / pulses * in.cfg.Trap.TrappingEfficiency
			}
		}
		var lostSinceRelease float64
		for b := 0; b < nBins; b++ {
			rates := in.source.Rates(t0 + float64(b)*bw)
			var tot float64
			for _, r := range rates {
				tot += r
			}
			stats.IonsGenerated += tot * bw
			lost := trap.Accumulate(tot, bw)
			stats.TrapLosses += lost
			lostSinceRelease += lost
			if in.waveform[b] > 0 && in.seq[b] != 0 {
				released := trap.Release()
				if !math.IsInf(quantum, 1) {
					trap.stored += released
					released = trap.ReleaseUpTo(quantum)
				}
				packet := released * in.waveform[b] / in.cfg.Gate.OpenTransmission
				if tot > 0 {
					// Saturation discriminates by m/z: overfilled traps
					// preferentially eject low-m/z ions (shallower
					// pseudopotential well), biasing the packet.
					attempted := (released + lostSinceRelease) / trap.Capacity
					var weightSum float64
					weights := make([]float64, len(rates))
					for i, r := range rates {
						w := r * trap.MZBias(in.source.Mixture.Analytes[i].MZ, attempted)
						weights[i] = w
						weightSum += w
					}
					if weightSum > 0 {
						for i := range rates {
							perAnalyte[i][b] = packet * weights[i] / weightSum
						}
					}
				}
				stats.IonsInjected += packet
				lostSinceRelease = 0
			}
		}
	}
	pulses := in.GatePulsesPerCycle()
	if pulses > 0 {
		stats.MeanPacketSize = stats.IonsInjected / float64(pulses)
	}
	if stats.IonsGenerated > 0 {
		stats.Utilization = stats.IonsInjected / stats.IonsGenerated
	}
	return perAnalyte, stats
}

// arrivalKernel builds the cyclic arrival-time kernel (unit area) for an
// analyte given the mean packet size, in drift-bin units.
func (in *Instrument) arrivalKernel(a Analyte, meanPacket float64) ([]float64, error) {
	arr, err := in.cfg.Tube.Arrival(a, in.cfg.BinWidthS, meanPacket)
	if err != nil {
		return nil, err
	}
	nBins := in.cfg.DriftBins()
	bw := in.cfg.BinWidthS
	mean := arr.MeanS / bw
	sigma := arr.SigmaS / bw
	if sigma < 0.3 {
		sigma = 0.3 // sub-bin packets still occupy one bin
	}
	kernel := make([]float64, nBins)
	lo := int(mean - 5*sigma)
	hi := int(mean + 5*sigma)
	var sum float64
	for b := lo; b <= hi; b++ {
		d := (float64(b) - mean) / sigma
		w := math.Exp(-d * d / 2)
		idx := ((b % nBins) + nBins) % nBins
		kernel[idx] += w
		sum += w
	}
	if sum > 0 {
		for i := range kernel {
			kernel[i] /= sum
		}
	}
	return kernel, nil
}

// ExpectedDetections computes the noise-free expected ion arrivals per
// (drift, m/z) cell for one IMS cycle starting at t0, along with run
// bookkeeping.  This is the λ map that drives the stochastic digitizer, and
// doubles as ground truth for reconstruction metrics.
func (in *Instrument) ExpectedDetections(t0 float64) (*Frame, RunStats, error) {
	return in.expectedDetections(t0, in.newTrap())
}

func (in *Instrument) expectedDetections(t0 float64, trap *FunnelTrap) (*Frame, RunStats, error) {
	perAnalyte, stats := in.injectionProfile(t0, trap)
	nBins := in.cfg.DriftBins()
	expected := NewFrame(nBins, in.cfg.TOF.Bins)
	for i, a := range in.source.Mixture.Analytes {
		inj := perAnalyte[i]
		var injTotal float64
		for _, v := range inj {
			injTotal += v
		}
		if injTotal == 0 {
			continue
		}
		kernel, err := in.arrivalKernel(a, stats.MeanPacketSize)
		if err != nil {
			return nil, RunStats{}, err
		}
		// Drift-axis profile: cyclic convolution of injections with kernel.
		profile := make([]float64, nBins)
		for b, amt := range inj {
			if amt == 0 {
				continue
			}
			for k, w := range kernel {
				if w == 0 {
					continue
				}
				profile[(b+k)%nBins] += amt * w
			}
		}
		// m/z axis: spread each isotopologue over the analyzer's peak
		// shape with the orthogonal duty cycle applied.
		duty := in.cfg.TOF.DutyCycle(a.MZ)
		isotopes := a.Isotopes
		if len(isotopes) == 0 {
			isotopes = []IsotopePeakMZ{{OffsetMZ: 0, Fraction: 1}}
		}
		for _, iso := range isotopes {
			bins, weights := in.cfg.TOF.Spread(a.MZ + iso.OffsetMZ)
			if len(bins) == 0 {
				continue
			}
			for d := 0; d < nBins; d++ {
				p := profile[d] * duty * iso.Fraction
				if p == 0 {
					continue
				}
				for wi, tb := range bins {
					expected.Add(d, tb, p*weights[wi])
				}
			}
		}
	}
	for _, v := range expected.Data {
		stats.IonsDetected += v
	}
	stats.Cycles = 1
	stats.DurationS = in.cfg.CycleDuration()
	stats.Mode = in.cfg.Mode
	return expected, stats, nil
}

// Acquire runs cfg.Frames IMS cycles, digitizing with the stochastic
// detector/ADC model, and returns the accumulated frame and statistics.
// Acquisition is deterministic in rng.
func (in *Instrument) Acquire(rng *rand.Rand) (*Frame, RunStats, error) {
	if rng == nil {
		return nil, RunStats{}, fmt.Errorf("instrument: nil rng")
	}
	nBins := in.cfg.DriftBins()
	out := NewFrame(nBins, in.cfg.TOF.Bins)
	var total RunStats
	extrPerBin := int64(math.Round(in.cfg.BinWidthS / in.cfg.TOF.ExtractionPeriodS))
	if extrPerBin < 1 {
		extrPerBin = 1
	}
	trap := in.newTrap()
	for cycle := 0; cycle < in.cfg.Frames; cycle++ {
		t0 := float64(cycle) * in.cfg.CycleDuration()
		expected, stats, err := in.expectedDetections(t0, trap)
		if err != nil {
			return nil, RunStats{}, err
		}
		total.IonsGenerated += stats.IonsGenerated
		total.IonsInjected += stats.IonsInjected
		total.IonsDetected += stats.IonsDetected
		total.TrapLosses += stats.TrapLosses
		total.MeanPacketSize += stats.MeanPacketSize
		for d := 0; d < nBins; d++ {
			for t := 0; t < in.cfg.TOF.Bins; t++ {
				lambda := expected.At(d, t) / float64(extrPerBin)
				var acc float64
				if in.cfg.Detection == DetectionTDC {
					acc = in.cfg.TDC.AccumulateSamples(lambda, extrPerBin, rng, in.cfg.ExactSamplingCutoff)
				} else {
					acc = in.cfg.ADC.AccumulateSamples(lambda, extrPerBin, in.cfg.Detector, rng, in.cfg.ExactSamplingCutoff)
				}
				out.Add(d, t, acc)
			}
		}
	}
	total.Cycles = in.cfg.Frames
	total.DurationS = float64(in.cfg.Frames) * in.cfg.CycleDuration()
	total.Mode = in.cfg.Mode
	if total.IonsGenerated > 0 {
		total.Utilization = total.IonsInjected / total.IonsGenerated
	}
	total.MeanPacketSize /= float64(in.cfg.Frames)
	return out, total, nil
}

// RawSampleRate returns the digitizer output rate in samples/s: one sample
// per TOF bin per extraction.
func (in *Instrument) RawSampleRate() float64 {
	return float64(in.cfg.TOF.Bins) / in.cfg.TOF.ExtractionPeriodS
}

// RawByteRate returns the digitizer output in bytes/s (one byte per 8-bit
// sample, rounded up for wider ADCs).
func (in *Instrument) RawByteRate() float64 {
	bytesPerSample := float64((in.cfg.ADC.Bits + 7) / 8)
	return in.RawSampleRate() * bytesPerSample
}
