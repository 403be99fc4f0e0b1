// source.go models the electrospray ionization source and optional liquid
// chromatography elution: each analyte contributes an ion current that may
// vary in time as an exponentially modified Gaussian (EMG) elution peak.
package instrument

import (
	"fmt"
	"math"
)

// ESISource converts a mixture into time-dependent ion currents.  The source
// emits TotalRate charges/s at full output, shared across analytes in
// proportion to abundance; an optional LC program modulates each analyte's
// share over time.
type ESISource struct {
	Mixture   Mixture
	TotalRate float64 // total ion current delivered to the funnel, charges/s
	// Elution optionally assigns an LC elution profile per analyte index.
	// A nil map (or missing entry) means constant infusion.
	Elution map[int]LCPeak
}

// NewESISource validates and constructs a source.
func NewESISource(m Mixture, totalRate float64) (*ESISource, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if totalRate <= 0 {
		return nil, fmt.Errorf("instrument: source total rate %g must be positive", totalRate)
	}
	return &ESISource{Mixture: m, TotalRate: totalRate}, nil
}

// LCPeak is an exponentially modified Gaussian elution profile, the standard
// chromatographic peak shape: a Gaussian of width Sigma centred at
// Retention, convolved with an exponential tail of time constant Tau.
type LCPeak struct {
	Retention float64 // retention time, s
	Sigma     float64 // Gaussian width, s
	Tau       float64 // exponential tail constant, s
}

// Amplitude evaluates the unit-area EMG profile at time t.
func (p LCPeak) Amplitude(t float64) float64 {
	if p.Sigma <= 0 {
		return 0
	}
	if p.Tau <= 1e-12 {
		// Pure Gaussian limit.
		d := (t - p.Retention) / p.Sigma
		return math.Exp(-d*d/2) / (p.Sigma * math.Sqrt(2*math.Pi))
	}
	// EMG via the exponentially scaled complementary error function form,
	// numerically stable for small tau.
	z := (p.Sigma/p.Tau - (t-p.Retention)/p.Sigma) / math.Sqrt2
	pre := 1 / (2 * p.Tau)
	expArg := (p.Sigma*p.Sigma)/(2*p.Tau*p.Tau) - (t-p.Retention)/p.Tau
	// erfc via math.Erfc; guard the exp overflow by combining logs.
	logVal := math.Log(pre) + expArg + logErfc(z)
	if logVal > 700 {
		return math.Inf(1)
	}
	return math.Exp(logVal)
}

// logErfc returns log(erfc(z)) stably for large positive z using the
// asymptotic expansion erfc(z) ≈ exp(−z²)/(z√π).
func logErfc(z float64) float64 {
	if z < 10 {
		v := math.Erfc(z)
		if v <= 0 {
			return math.Inf(-1)
		}
		return math.Log(v)
	}
	return -z*z - math.Log(z*math.Sqrt(math.Pi))
}

// Rates returns the per-analyte ion currents (charges/s) at time t.  With no
// elution programmed, rates are constant shares of TotalRate.  With elution,
// each analyte's share is scaled by its own EMG amplitude normalized to its
// peak apex, so an analyte at its apex delivers its full share.
func (s *ESISource) Rates(t float64) []float64 {
	rates := make([]float64, len(s.Mixture.Analytes))
	s.RatesInto(rates, t)
	return rates
}

// RatesInto writes Rates(t) into dst, which holds one value per analyte.
func (s *ESISource) RatesInto(dst []float64, t float64) {
	dst = dst[:len(s.Mixture.Analytes)]
	total := s.Mixture.TotalAbundance()
	if total == 0 {
		clear(dst)
		return
	}
	for i, a := range s.Mixture.Analytes {
		share := s.TotalRate * a.Abundance / total
		if s.Elution != nil {
			if pk, ok := s.Elution[i]; ok {
				apex := pk.Amplitude(pk.Retention)
				if apex > 0 {
					share *= pk.Amplitude(t) / apex
				} else {
					share = 0
				}
			}
		}
		dst[i] = share
	}
}

// TotalRateAt sums the per-analyte currents at time t.
func (s *ESISource) TotalRateAt(t float64) float64 {
	return sum(s.Rates(t))
}

// sum adds v left to right.
func sum(v []float64) float64 {
	var total float64
	for _, x := range v {
		total += x
	}
	return total
}
