// detector.go models the microchannel-plate detector and the 8-bit ADC
// digitizer whose accumulated output is the raw data stream of the
// instrument.  Ion arrivals are Poisson processes; each ion produces an
// electron avalanche with multiplicative gain spread; the ADC adds baseline
// offset and thermal noise, quantizes to its word width, and saturates.
package instrument

import (
	"fmt"
	"math"
	"math/rand"
)

// Detector is the MCP/electron-multiplier model.
type Detector struct {
	// GainCounts is the mean digitizer counts produced per ion arrival.
	GainCounts float64
	// GainSpread is the relative sigma of per-ion gain fluctuation
	// (exponential-ish avalanche statistics ≈ 1.0 for MCPs; we use a
	// truncated normal with this relative width).
	GainSpread float64
}

// DefaultDetector returns MCP-like behaviour: 8 counts per ion, wide gain
// spread.
func DefaultDetector() Detector {
	return Detector{GainCounts: 8, GainSpread: 0.7}
}

// Validate reports unusable detector parameters.
func (d Detector) Validate() error {
	if d.GainCounts <= 0 {
		return fmt.Errorf("instrument: detector gain %g must be positive", d.GainCounts)
	}
	if d.GainSpread < 0 {
		return fmt.Errorf("instrument: negative gain spread")
	}
	return nil
}

// Counts converts nIons simultaneous ion arrivals into digitizer counts,
// sampling per-ion gain fluctuations.  For large nIons a normal
// approximation keeps the cost constant.
func (d Detector) Counts(nIons int64, rng *rand.Rand) float64 {
	if nIons <= 0 {
		return 0
	}
	mean := float64(nIons) * d.GainCounts
	if d.GainSpread == 0 {
		return mean
	}
	sd := d.GainCounts * d.GainSpread * math.Sqrt(float64(nIons))
	v := mean + rng.NormFloat64()*sd
	if v < 0 {
		return 0
	}
	return v
}

// ADC is the 8-bit digitizer whose samples the FPGA accumulates.
type ADC struct {
	Bits          int     // word width (8 for the reproduced instrument)
	BaselineMean  float64 // mean baseline offset per sample, counts
	BaselineSigma float64 // RMS baseline noise per sample, counts
	ThresholdCnt  float64 // counts subtracted/thresholded per sample (0 = off)
}

// DefaultADC returns the 8-bit, ~1.2-count-noise digitizer used by the
// reference configuration.
func DefaultADC() ADC {
	return ADC{Bits: 8, BaselineMean: 1.0, BaselineSigma: 1.2, ThresholdCnt: 0}
}

// Validate reports unusable ADC parameters.
func (a ADC) Validate() error {
	if a.Bits < 1 || a.Bits > 24 {
		return fmt.Errorf("instrument: ADC bits %d out of range [1,24]", a.Bits)
	}
	if a.BaselineSigma < 0 {
		return fmt.Errorf("instrument: negative ADC noise")
	}
	if a.ThresholdCnt < 0 {
		return fmt.Errorf("instrument: negative ADC threshold")
	}
	return nil
}

// FullScale returns the saturation level of a single sample.
func (a ADC) FullScale() float64 { return float64(int64(1)<<a.Bits - 1) }

// Sample digitizes one analog level (detector counts for one extraction):
// baseline + noise added, quantized, clipped to [0, full scale], and
// optionally thresholded (sub-threshold samples record zero — the FPGA
// capture core's noise suppression).
func (a ADC) Sample(analog float64, rng *rand.Rand) float64 {
	g := digitizer{adc: a, fullScale: a.FullScale()}
	return g.sample(analog, rng)
}

// AccumulateSamples digitizes n repeated extractions whose per-extraction
// expected ion count is lambda, accumulating the quantized samples — the
// operation the FPGA accumulation core performs in hardware.  Sampling is
// exact (per-extraction) below exactCutoff extractions and uses a
// moment-matched normal approximation above it, keeping frame synthesis
// tractable at realistic extraction rates.
func (a ADC) AccumulateSamples(lambda float64, n int64, det Detector, rng *rand.Rand, exactCutoff int64) float64 {
	g := digitizer{adc: a, det: det, n: n, cutoff: exactCutoff, fullScale: a.FullScale()}
	return g.accumulate(lambda, rng)
}

// digitizer digitizes cells of n extractions each (sampled one by one up
// to cutoff) with what does not depend on the cell worked out once: per
// acquisition in Acquire, per call in ADC.Sample and ADC.AccumulateSamples.
type digitizer struct {
	adc       ADC
	det       Detector
	tdc       TDC
	counting  bool // TDC detection
	n, cutoff int64
	fullScale float64
}

// accumulate digitizes one cell whose per-extraction expected ion count is
// lambda.
func (g *digitizer) accumulate(lambda float64, rng *rand.Rand) float64 {
	if g.counting {
		return g.tdc.AccumulateSamples(lambda, g.n, rng, g.cutoff)
	}
	if g.n <= g.cutoff || g.n <= 0 { // sampled one by one (n ≤ 0: nothing to add)
		var acc float64
		for i := int64(0); i < g.n; i++ {
			var analog float64
			if lambda > 0 { // no ion: PoissonSample and Counts draw nothing
				analog = g.det.Counts(PoissonSample(lambda, rng), rng)
			}
			acc += g.sample(analog, rng)
		}
		return acc
	}
	// Normal approximation of the accumulated sum.  Per-extraction sample
	// mean ≈ λ·gain + baseline, variance ≈ λ·gain²·(1+spread²) + noise².
	lambda = max(lambda, 0)
	perMean := lambda*g.det.GainCounts + g.adc.BaselineMean
	perVar := lambda*g.det.GainCounts*g.det.GainCounts*(1+g.det.GainSpread*g.det.GainSpread) +
		g.adc.BaselineSigma*g.adc.BaselineSigma + 1.0/12 // quantization variance
	mean := perMean * float64(g.n)
	sd := math.Sqrt(perVar * float64(g.n))
	v := mean + rng.NormFloat64()*sd
	if v < 0 {
		v = 0
	}
	if max := g.fullScale * float64(g.n); v > max {
		v = max
	}
	return math.Round(v)
}

// sample digitizes one extraction's analog level (ADC.Sample).
func (g *digitizer) sample(analog float64, rng *rand.Rand) float64 {
	v := clipRound(analog+g.adc.BaselineMean+rng.NormFloat64()*g.adc.BaselineSigma, g.fullScale)
	if g.adc.ThresholdCnt > 0 && v < g.adc.ThresholdCnt {
		return 0
	}
	return v
}

// clipRound is clip(math.Round(v), 0, fs) bit for bit (NaN stays NaN,
// (−0.5, −0] rounds to −0) for 1 ≤ fs < 2^52, with no branch on v's sign
// or fraction: below 2^52, truncating v + (0.5 − 2⁻⁵⁴) rounds half away
// from zero (at k+0.5 the sum rounds up to k+1, at k = 0 as a tie to even).
func clipRound(v, fs float64) float64 {
	if !(v < fs) { // v ≥ fs, or NaN
		if v >= fs {
			v = fs
		}
		return v
	}
	b := math.Float64bits(float64(max(int64(v+(0.5-0x1p-54)), 0)))
	if math.Float64bits(v)-1<<63 < math.Float64bits(0.5) {
		b |= 1 << 63 // v in (−0.5, −0]: math.Round keeps the sign
	}
	return math.Float64frombits(b)
}

// TDC models time-to-digital (event-counting) detection: per extraction and
// per bin, at most MaxEventsPerBin ion events are registered before the
// converter's dead time blanks the channel.  Counting is noiseless at low
// flux but saturates at high flux — the dynamic-range ceiling that motivated
// the move from TDC to ADC detection in the multiplexed instrument
// (Belov et al. 2008).
type TDC struct {
	// MaxEventsPerBin is the events registered per bin per extraction
	// before dead time truncates (1 for a classic single-stop TDC).
	MaxEventsPerBin int
}

// DefaultTDC returns a single-stop converter.
func DefaultTDC() TDC { return TDC{MaxEventsPerBin: 1} }

// Validate reports unusable TDC parameters.
func (t TDC) Validate() error {
	if t.MaxEventsPerBin < 1 {
		return fmt.Errorf("instrument: TDC max events %d must be >= 1", t.MaxEventsPerBin)
	}
	return nil
}

// ExpectedCounts returns the mean registered events per extraction for a
// true per-extraction ion rate lambda: saturating at MaxEventsPerBin, with
// the classic 1−exp(−λ) single-stop response.
func (t TDC) ExpectedCounts(lambda float64) float64 {
	if lambda <= 0 {
		return 0
	}
	if t.MaxEventsPerBin == 1 {
		return 1 - math.Exp(-lambda)
	}
	// Multi-stop: E[min(X,k)] = k − Σ_{j<k} (k−j)·P(X=j), an exact sum
	// over only the sub-threshold terms.
	k := float64(t.MaxEventsPerBin)
	mean := k
	p := math.Exp(-lambda)
	for j := 0; j < t.MaxEventsPerBin; j++ {
		mean -= (k - float64(j)) * p
		p *= lambda / float64(j+1)
	}
	return mean
}

// AccumulateSamples counts registered events over n extractions with
// per-extraction expected ion count lambda.  Below exactCutoff each
// extraction is sampled; above it a moment-matched normal approximation of
// the binomial/truncated-Poisson sum is used.
func (t TDC) AccumulateSamples(lambda float64, n int64, rng *rand.Rand, exactCutoff int64) float64 {
	if n <= 0 || lambda <= 0 {
		return 0
	}
	if n <= exactCutoff {
		var acc int64
		for i := int64(0); i < n; i++ {
			ions := PoissonSample(lambda, rng)
			if ions > int64(t.MaxEventsPerBin) {
				ions = int64(t.MaxEventsPerBin)
			}
			acc += ions
		}
		return float64(acc)
	}
	mean := t.ExpectedCounts(lambda)
	// Variance of min(Poisson, k) <= Poisson variance; for the single-stop
	// case it is Bernoulli: p(1-p).
	var variance float64
	if t.MaxEventsPerBin == 1 {
		p := mean
		variance = p * (1 - p)
	} else {
		variance = math.Min(lambda, float64(t.MaxEventsPerBin))
	}
	v := mean*float64(n) + rng.NormFloat64()*math.Sqrt(variance*float64(n))
	if v < 0 {
		v = 0
	}
	if max := float64(t.MaxEventsPerBin) * float64(n); v > max {
		v = max
	}
	return math.Round(v)
}

// PoissonSample draws a Poisson-distributed count with mean lambda.
// Knuth's product method is used for small lambda and a normal
// approximation for large lambda.
func PoissonSample(lambda float64, rng *rand.Rand) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := math.Round(lambda + rng.NormFloat64()*math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int64(v)
	}
	l := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
