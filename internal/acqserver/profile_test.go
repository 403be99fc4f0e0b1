// profile_test.go: the CPU path's answer is one transform of the frame's
// row sums (driftProfile).  It must equal the drift profile of the frame
// decoded column by column — under == on integral frames, within the
// documented bound on fractional ones.
package acqserver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
)

// columnProfile is the reference: every column of f decoded alone by the
// scalar DecodeTo, then the decoded frame's DriftProfileInto.
func columnProfile(t testing.TB, dec *hadamard.FHTDecoder, f *instrument.Frame) []float64 {
	t.Helper()
	n := f.DriftBins
	decoded := instrument.NewFrame(n, f.TOFBins)
	col, x := make([]float64, n), make([]float64, n)
	for c := 0; c < f.TOFBins; c++ {
		f.DriftVectorInto(c, col)
		if err := dec.DecodeTo(x, col); err != nil {
			t.Fatal(err)
		}
		decoded.SetDriftVector(c, x)
	}
	profile := make([]float64, n)
	decoded.DriftProfileInto(profile)
	return profile
}

// countsOf returns f's cells as a counts frame with its exact bound, or
// nil when a cell is not an int32.
func countsOf(f *instrument.Frame) *instrument.Counts {
	c := instrument.NewCounts(f.DriftBins, f.TOFBins)
	for i, v := range f.Data {
		c.Data[i] = int32(v)
		if float64(c.Data[i]) != v || v < math.MinInt32 || v > math.MaxInt32 {
			return nil
		}
		c.Bound = max(c.Bound, int64(math.Abs(v)))
	}
	return c
}

// checkServedProfile serves f through driftProfile — as counts when its
// cells are int32 counts, and as float cells — and compares each answer
// with columnProfile: under == while Len·TOFBins·Bound < 2^53 on an
// integral frame, within driftProfile's documented bound otherwise.
func checkServedProfile(t testing.TB, label string, dec *hadamard.FHTDecoder, f *instrument.Frame) {
	t.Helper()
	want := columnProfile(t, dec, f)
	var l1, bound float64
	integral := true
	for _, v := range f.Data {
		l1 += math.Abs(v)
		bound = max(bound, math.Abs(v))
		integral = integral && v == math.Trunc(v)
	}
	exact := integral && float64(f.DriftBins)*float64(f.TOFBins)*bound < 0x1p53
	tol := float64(f.TOFBins+dec.Order()) * 0x1p-52 * math.Abs(dec.Scale()) * l1
	inputs := map[string]input{"float": {frame: f}}
	if c := countsOf(f); c != nil {
		inputs["counts"] = input{counts: c}
	}
	got := make([]float64, f.DriftBins)
	for kind, in := range inputs {
		got[0] = math.NaN() // must be overwritten
		if err := driftProfile(dec, in, got); err != nil {
			t.Fatal(err)
		}
		for d := range got {
			if exact && got[d] != want[d] {
				t.Fatalf("%s (%s): profile[%d] = %v, column by column %v", label, kind, d, got[d], want[d])
			}
			if !exact && !(math.Abs(got[d]-want[d]) <= tol) {
				t.Fatalf("%s (%s): profile[%d] = %v, column by column %v: off by more than %g", label, kind, d, got[d], want[d], tol)
			}
		}
	}
}

// fillCells fills f by pattern: small counts, any int32, only the int32
// extremes (row sums far past ±2^31), or a row of 2^31 − 1 beside a row of
// −2^31 over small counts.
func fillCells(rng *rand.Rand, f *instrument.Frame, pattern int) {
	edges := []float64{math.MaxInt32, math.MinInt32, -math.MaxInt32}
	for i := range f.Data {
		switch pattern % 4 {
		case 0:
			f.Data[i] = float64(rng.Intn(4096))
		case 1:
			f.Data[i] = float64(int32(rng.Uint32()))
		case 2:
			f.Data[i] = edges[rng.Intn(len(edges))]
		case 3:
			f.Data[i] = float64(rng.Intn(64) - 32)
		}
	}
	if pattern%4 == 3 {
		a := rng.Intn(f.DriftBins)
		b := (a + 1 + rng.Intn(f.DriftBins-1)) % f.DriftBins
		for c := 0; c < f.TOFBins; c++ {
			f.Set(a, c, math.MaxInt32)
			f.Set(b, c, math.MinInt32)
		}
	}
}

// TestServedProfileMatchesColumns is driftProfile's property over random
// counts frames — orders 5–9, TOF widths 1–64 and 256, small counts, any
// int32, the int32 extremes, rows summing past ±2^31 — and an acquired
// frame; then over fractional frames, which must stay within the bound.
func TestServedProfileMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for order := 5; order <= 9; order++ {
		dec, err := hadamard.NewFHTDecoder(order)
		if err != nil {
			t.Fatal(err)
		}
		n := dec.Len()
		for w := 1; w <= 65; w++ {
			if w == 65 {
				w = 256
			}
			f := instrument.NewFrame(n, w)
			pattern := rng.Intn(4)
			fillCells(rng, f, pattern)
			checkServedProfile(t, "counts", dec, f)
			for i := range f.Data {
				f.Data[i] = rng.NormFloat64() * 1000
			}
			checkServedProfile(t, "fractional", dec, f)
		}
	}
	dec, err := hadamard.NewFHTDecoder(9)
	if err != nil {
		t.Fatal(err)
	}
	checkServedProfile(t, "acquired", dec, acquiredFrame(t))
}

// acquiredFrame is a 511 × 256 frame from the simulated instrument: two
// peptide-like analytes through the default multiplexed trap acquisition.
func acquiredFrame(t testing.TB) *instrument.Frame {
	t.Helper()
	var mix instrument.Mixture
	for _, a := range []instrument.Analyte{
		{Name: "probe", MassDa: 1000, Z: 2, MZ: 501, CCSM2: 2.8e-18, Abundance: 1},
		{Name: "second", MassDa: 1300, Z: 2, MZ: 651, CCSM2: 3.4e-18, Abundance: 0.6},
	} {
		if err := mix.AddAnalyte(a); err != nil {
			t.Fatal(err)
		}
	}
	src, err := instrument.NewESISource(mix, 5e6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := instrument.DefaultConfig()
	cfg.TOF.Bins = 256
	inst, err := instrument.New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := inst.Acquire(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzServedProfileMatchesColumns drives checkServedProfile with any order
// in 5–9, any width in 1–64 or 256, any cell pattern, and, when frac is
// odd, fractional cells sprinkled over an integral frame.
func FuzzServedProfileMatchesColumns(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(31), uint8(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(64), uint8(1), uint8(0))   // order 9, any int32
	f.Add(int64(3), uint8(4), uint8(0), uint8(2), uint8(0))    // order 9 × 256, the extremes
	f.Add(int64(4), uint8(2), uint8(17), uint8(3), uint8(0))   // rows of ±2^31
	f.Add(int64(5), uint8(1), uint8(1), uint8(0), uint8(1))    // one column, fractional
	f.Add(int64(6), uint8(3), uint8(40), uint8(1), uint8(255)) // many fractions over any int32
	f.Fuzz(func(t *testing.T, seed int64, order, width, pattern, frac uint8) {
		dec, err := hadamard.NewFHTDecoder(5 + int(order)%5)
		if err != nil {
			t.Fatal(err)
		}
		w := 1 + int(width)%65
		if w == 65 {
			w = 256
		}
		rng := rand.New(rand.NewSource(seed))
		fr := instrument.NewFrame(dec.Len(), w)
		fillCells(rng, fr, int(pattern))
		if frac&1 != 0 {
			for k := 0; k <= int(frac>>1); k++ {
				fr.Data[rng.Intn(len(fr.Data))] += rng.Float64() - 0.5
			}
		}
		checkServedProfile(t, "fuzzed", dec, fr)
	})
}
