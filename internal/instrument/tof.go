// tof.go models the orthogonal-acceleration time-of-flight mass analyzer:
// m/z to flight-time conversion, the m/z-dependent duty cycle of orthogonal
// extraction, finite resolving power, and the mapping of spectra onto the
// digitizer's m/z-binned axis.
package instrument

import (
	"fmt"
	"math"
)

// TOF is the orthogonal-acceleration time-of-flight analyzer.
type TOF struct {
	// FlightLengthM is the effective (reflectron-folded) flight path.
	FlightLengthM float64
	// AccelVoltage is the extraction acceleration potential, V.
	AccelVoltage float64
	// ResolvingPower is m/Δm (FWHM) of the analyzer.
	ResolvingPower float64
	// ExtractionPeriodS is the time between orthogonal extraction pulses;
	// its inverse is the TOF spectral rate (~10 kHz typical).
	ExtractionPeriodS float64
	// MinMZ and MaxMZ bound the recorded spectrum.
	MinMZ, MaxMZ float64
	// Bins is the number of m/z bins in the recorded spectrum.
	Bins int
}

// DefaultTOF returns the reference analyzer: 1.2 m effective path, 7 kV,
// resolving power 4000, 10 kHz extraction, m/z 200–2500 in 2048 bins.
func DefaultTOF() TOF {
	return TOF{
		FlightLengthM:     1.2,
		AccelVoltage:      7000,
		ResolvingPower:    4000,
		ExtractionPeriodS: 1e-4,
		MinMZ:             200,
		MaxMZ:             2500,
		Bins:              2048,
	}
}

// Validate reports unusable analyzer parameters.
func (t TOF) Validate() error {
	if t.FlightLengthM <= 0 {
		return fmt.Errorf("instrument: TOF flight length %g must be positive", t.FlightLengthM)
	}
	if t.AccelVoltage <= 0 {
		return fmt.Errorf("instrument: TOF acceleration %g must be positive", t.AccelVoltage)
	}
	if t.ResolvingPower <= 0 {
		return fmt.Errorf("instrument: TOF resolving power %g must be positive", t.ResolvingPower)
	}
	if t.ExtractionPeriodS <= 0 {
		return fmt.Errorf("instrument: TOF extraction period %g must be positive", t.ExtractionPeriodS)
	}
	if t.MinMZ <= 0 || t.MaxMZ <= t.MinMZ {
		return fmt.Errorf("instrument: TOF m/z range (%g, %g) invalid", t.MinMZ, t.MaxMZ)
	}
	if t.Bins <= 0 {
		return fmt.Errorf("instrument: TOF bins %d must be positive", t.Bins)
	}
	return nil
}

// FlightTime returns the flight time (s) for an ion of the given m/z:
// t = L·sqrt(m/(2·z·e·V)), evaluated in SI from m/z in Th.
func (t TOF) FlightTime(mz float64) (float64, error) {
	if mz <= 0 {
		return 0, fmt.Errorf("instrument: m/z %g must be positive", mz)
	}
	const daPerCharge = 1.66053906660e-27 / 1.602176634e-19 // kg/C per Th
	return t.FlightLengthM * math.Sqrt(mz*daPerCharge/(2*t.AccelVoltage)), nil
}

// DutyCycle returns the orthogonal-extraction duty cycle for the given m/z:
// the fraction of the continuous beam sampled per extraction, ∝ sqrt(m/z),
// normalized so the heaviest recorded ion is sampled at the geometric
// maximum (~25 % typical for oa-TOF).
func (t TOF) DutyCycle(mz float64) float64 {
	if mz <= t.MinMZ {
		mz = t.MinMZ
	}
	if mz > t.MaxMZ {
		mz = t.MaxMZ
	}
	const maxDuty = 0.25
	return maxDuty * math.Sqrt(mz/t.MaxMZ)
}

// MZSigma returns the Gaussian σ of a peak at the given m/z implied by the
// analyzer's resolving power (R = m/Δm_FWHM).
func (t TOF) MZSigma(mz float64) float64 {
	fwhm := mz / t.ResolvingPower
	return fwhm / (2 * math.Sqrt(2*math.Ln2))
}

// BinWidth returns the m/z width of one spectral bin.
func (t TOF) BinWidth() float64 {
	return (t.MaxMZ - t.MinMZ) / float64(t.Bins)
}

// BinOf returns the spectral bin index containing m/z, or -1 if out of
// range.
func (t TOF) BinOf(mz float64) int {
	if mz < t.MinMZ || mz >= t.MaxMZ {
		return -1
	}
	b := int((mz - t.MinMZ) / t.BinWidth())
	if b >= t.Bins {
		b = t.Bins - 1
	}
	return b
}

// BinCenter returns the m/z at the centre of bin b.
func (t TOF) BinCenter(b int) float64 {
	return t.MinMZ + (float64(b)+0.5)*t.BinWidth()
}

// Spread distributes unit intensity of a peak centred at mz across spectral
// bins as a Gaussian with the analyzer's σ, returning bin indices and
// weights (weights sum to the in-range fraction of the peak).  Peaks
// narrower than a bin collapse onto a single bin.
func (t TOF) Spread(mz float64) (bins []int, weights []float64) {
	return t.spreadInto(nil, nil, mz)
}

// spreadInto is Spread built in the storage of bins and weights.
func (t TOF) spreadInto(bins []int, weights []float64, mz float64) ([]int, []float64) {
	bins, weights = bins[:0], weights[:0]
	sigma := t.MZSigma(mz)
	bw := t.BinWidth()
	if sigma < bw/2 {
		if b := t.BinOf(mz); b >= 0 {
			return append(bins, b), append(weights, 1)
		}
		return bins, weights
	}
	lo := t.BinOf(mz - 4*sigma)
	hi := t.BinOf(mz + 4*sigma)
	if lo < 0 {
		lo = 0
	}
	if hi < 0 {
		if mz+4*sigma >= t.MaxMZ {
			hi = t.Bins - 1
		} else {
			return bins, weights
		}
	}
	for b := lo; b <= hi; b++ {
		c := t.BinCenter(b)
		d := (c - mz) / sigma
		w := math.Exp(-d*d/2) * bw / (sigma * math.Sqrt(2*math.Pi))
		if w > 1e-12 {
			bins = append(bins, b)
			weights = append(weights, w)
		}
	}
	return bins, weights
}

// ExtractionsPer returns how many TOF extractions occur in an interval.
func (t TOF) ExtractionsPer(interval float64) float64 {
	return interval / t.ExtractionPeriodS
}
