package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 on an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// rule the driver judges spread by.  It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance from four values up, the full range below
// that (two or three values have no meaningful quartiles).
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 || len(v) < 2 {
		return 0
	}
	var width float64
	if len(v) >= 4 {
		q1, q3 := quartiles(v)
		width = q3 - q1
	} else {
		s := sortedCopy(v)
		width = s[len(s)-1] - s[0]
	}
	return math.Abs(width / med)
}

// perSlice counts the instants that fall in each slice (edges[i],
// edges[i+1]]; an instant at or before the first edge belongs to the first
// slice, one past the last edge to none.
func perSlice(instants []time.Duration, edges []time.Duration) []float64 {
	counts := make([]float64, len(edges)-1)
	for _, t := range instants {
		i := sort.Search(len(edges)-1, func(i int) bool { return t <= edges[i+1] })
		if i < len(counts) {
			counts[i]++
		}
	}
	return counts
}

// latencySlices cuts open-phase samples, which are in schedule order, into
// runs of size consecutive arrivals (the last run takes the remainder) and
// returns each run's q-quantile of the answered requests' latencies, in
// milliseconds.
func latencySlices(samples []sample, size int, q float64) []float64 {
	n := max(len(samples)/size, 1)
	var out []float64
	for i := 0; i < n; i++ {
		run := samples[i*size:]
		if i < n-1 {
			run = run[:size]
		}
		var lat []time.Duration
		for _, s := range run {
			if s.outcome == outcomeOK {
				lat = append(lat, s.latency())
			}
		}
		if len(lat) > 0 {
			out = append(out, quantile(sortedMs(lat), q))
		}
	}
	return out
}

// best returns the least disturbed slice's value: the largest when higher
// is better, the smallest otherwise; 0 of nothing.
func best(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	if better == "higher" {
		return slices.Max(v)
	}
	return slices.Min(v)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// fastestStages is the least disturbed time of a procedure that was
// repeated, every repetition cut into the same stages: each stage's fastest
// repetition, summed.  A stage is short enough to fit between two
// disturbances where a whole repetition is not.
func fastestStages(reps [][]float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	var total float64
	for stage := range reps[0] {
		fastest := reps[0][stage]
		for _, rep := range reps[1:] {
			fastest = min(fastest, rep[stage])
		}
		total += fastest
	}
	return total
}

// sortedMs converts to milliseconds, ascending.
func sortedMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
