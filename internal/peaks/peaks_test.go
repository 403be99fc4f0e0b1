package peaks

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/chem"
	"repro/internal/instrument"
)

func gaussianSignal(n int, centre, sigma, height, noise float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		d := (float64(i) - centre) / sigma
		x[i] = height * math.Exp(-d*d/2)
		if noise > 0 {
			x[i] += rng.NormFloat64() * noise
		}
	}
	return x
}

func TestBaseline(t *testing.T) {
	// Flat offset plus one sharp peak: baseline should track the offset.
	x := make([]float64, 100)
	for i := range x {
		x[i] = 10
	}
	x[50] = 1000
	b, err := Baseline(x, 10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if math.Abs(v-10) > 1e-9 {
			t.Fatalf("baseline[%d] = %g, want 10", i, v)
		}
	}
	sub, err := Subtract(x, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sub[50]-990) > 1e-9 || sub[0] != 0 {
		t.Error("subtract wrong")
	}
	if _, err := Baseline(x, 0, 0.2); err == nil {
		t.Error("zero window")
	}
	if _, err := Baseline(x, 5, 0); err == nil {
		t.Error("bad percentile")
	}
	if _, err := Subtract(x, x[:10]); err == nil {
		t.Error("length mismatch")
	}
}

func TestSavitzkyGolayProperties(t *testing.T) {
	coeff, err := SavitzkyGolay(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(coeff) != 7 {
		t.Fatalf("kernel length %d", len(coeff))
	}
	// Coefficients sum to 1 (preserve constants).
	var sum float64
	for _, c := range coeff {
		sum += c
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("kernel sums to %g", sum)
	}
	// Symmetric.
	for i := 0; i < len(coeff)/2; i++ {
		if math.Abs(coeff[i]-coeff[len(coeff)-1-i]) > 1e-9 {
			t.Error("kernel not symmetric")
		}
	}
	// A degree-2 SG filter reproduces quadratics exactly.
	quad := make([]float64, 30)
	for i := range quad {
		v := float64(i) - 15
		quad[i] = 3 + 2*v + 0.5*v*v
	}
	sm, err := Smooth(quad, coeff)
	if err != nil {
		t.Fatal(err)
	}
	for i := 7; i < len(quad)-7; i++ { // interior (edges reflect)
		if math.Abs(sm[i]-quad[i]) > 1e-6 {
			t.Fatalf("SG filter distorted a quadratic at %d: %g vs %g", i, sm[i], quad[i])
		}
	}
	// Known classic kernel: window 5, degree 2 → (-3, 12, 17, 12, -3)/35.
	c5, _ := SavitzkyGolay(2, 2)
	want := []float64{-3.0 / 35, 12.0 / 35, 17.0 / 35, 12.0 / 35, -3.0 / 35}
	for i := range want {
		if math.Abs(c5[i]-want[i]) > 1e-9 {
			t.Errorf("classic kernel[%d] = %g, want %g", i, c5[i], want[i])
		}
	}
}

func TestSavitzkyGolayErrors(t *testing.T) {
	if _, err := SavitzkyGolay(0, 2); err == nil {
		t.Error("zero window")
	}
	if _, err := SavitzkyGolay(2, -1); err == nil {
		t.Error("negative degree")
	}
	if _, err := SavitzkyGolay(1, 3); err == nil {
		t.Error("degree >= window")
	}
	if _, err := Smooth([]float64{1, 2}, []float64{1, 1}); err == nil {
		t.Error("even kernel")
	}
	if _, err := Smooth([]float64{1, 2}, nil); err == nil {
		t.Error("empty kernel")
	}
}

func TestSmoothReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	x := gaussianSignal(200, 100, 8, 100, 5, rng)
	coeff, _ := SavitzkyGolay(4, 2)
	sm, _ := Smooth(x, coeff)
	// Residual noise after smoothing should drop.
	rawNoise := NoiseMAD(x)
	smNoise := NoiseMAD(sm)
	if smNoise >= rawNoise {
		t.Errorf("smoothing did not reduce noise: %g -> %g", rawNoise, smNoise)
	}
}

func TestNoiseMAD(t *testing.T) {
	if NoiseMAD(nil) != 0 {
		t.Error("empty signal noise should be 0")
	}
	rng := rand.New(rand.NewSource(71))
	x := make([]float64, 10000)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
	}
	got := NoiseMAD(x)
	if math.Abs(got-3) > 0.15 {
		t.Errorf("MAD noise %g, want ~3", got)
	}
	// Robust to sparse large peaks.
	for i := 0; i < 100; i++ {
		x[i*100] = 1e6
	}
	got = NoiseMAD(x)
	if math.Abs(got-3) > 0.3 {
		t.Errorf("MAD noise with outliers %g, want ~3", got)
	}
}

// noiseMADSorted is NoiseMAD as it was before the selection: two full sorts.
// It stays as the oracle the selection must equal on every input.
func noiseMADSorted(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, x)
	sort.Float64s(tmp)
	med := tmp[n/2]
	for i, v := range x {
		tmp[i] = math.Abs(v - med)
	}
	sort.Float64s(tmp)
	return 1.4826 * tmp[n/2]
}

// sameFloat is == with NaN equal to NaN.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// TestNoiseMADMatchesSort holds the selection-based estimate to the
// sort-based one on the inputs a partition gets wrong first: NaNs (which
// sort.Float64s orders first), infinities, signed zeros, heavy duplication,
// sorted and reversed runs, and the shortest lengths.
func TestNoiseMADMatchesSort(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, x := range [][]float64{
		{1}, {nan}, {inf}, {negZero},
		{1, 2}, {2, 1}, {nan, 1}, {1, nan}, {inf, -inf}, {negZero, 0},
		{1, 2, 3}, {3, 2, 1}, {nan, nan, 1}, {1, nan, 2}, {inf, inf, inf}, {-inf, 0, inf},
		{nan, nan, nan, nan}, {5, 5, 5, 5, 5, 5, 5}, {inf, nan, -inf, nan, 0, negZero, 1},
	} {
		if got, want := NoiseMAD(x), noiseMADSorted(x); !sameFloat(got, want) {
			t.Errorf("NoiseMAD(%v) = %v, sort-based %v", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(75))
	specials := []float64{nan, inf, -inf, negZero, 0}
	for trial := 0; trial < 3000; trial++ {
		x := make([]float64, 1+rng.Intn(2048))
		switch trial % 4 {
		case 0: // continuous noise
			for i := range x {
				x[i] = rng.NormFloat64() * 100
			}
		case 1: // a handful of distinct values: long runs of duplicates
			for i := range x {
				x[i] = float64(rng.Intn(4))
			}
		case 2: // ascending or descending, with ties
			step := float64(1 - 2*(trial/4%2))
			for i := range x {
				x[i] = step * float64(i/(1+rng.Intn(3)))
			}
		case 3: // all equal
			v := rng.NormFloat64()
			for i := range x {
				x[i] = v
			}
		}
		// Inject specials: none, a few, or (rarely) more than half.
		inject := []int{0, 1 + rng.Intn(4), len(x)/2 + rng.Intn(len(x)/2+1)}[rng.Intn(20)/9]
		for ; inject > 0; inject-- {
			x[rng.Intn(len(x))] = specials[rng.Intn(len(specials))]
		}
		in := append([]float64(nil), x...)
		if got, want := NoiseMAD(x), noiseMADSorted(x); !sameFloat(got, want) {
			t.Fatalf("trial %d (n=%d): NoiseMAD = %v, sort-based %v", trial, len(x), got, want)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(in[i]) {
				t.Fatalf("trial %d: NoiseMAD modified its input at %d", trial, i)
			}
		}
	}
}

// TestSelectKthAdversarial drives the selection past its partition budget:
// whatever the pivots do, the answer is the sorted order statistic.
func TestSelectKthAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, n := range []int{1, 2, 3, 64, 511, 2048} {
		// Organ pipes put the maximum at the middle pivot: partitions
		// that peel off an element or two exhaust the budget.
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(min(i, n-1-i))
		}
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		for _, k := range []int{0, n / 2, n - 1, rng.Intn(n)} {
			if got := selectKth(append([]float64(nil), x...), k); got != sorted[k] {
				t.Errorf("n=%d k=%d: selected %v, sorted %v", n, k, got, sorted[k])
			}
		}
	}
}

func BenchmarkNoiseMAD(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	x := gaussianSignal(511, 250, 4, 4000, 30, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNoise = NoiseMAD(x)
	}
}

var sinkNoise float64

func TestDetectSinglePeak(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x := gaussianSignal(300, 150.3, 5, 500, 2, rng)
	ps, err := Detect(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("detected %d peaks, want 1", len(ps))
	}
	p := ps[0]
	if absInt(p.Index-150) > 1 {
		t.Errorf("apex at %d, want ~150", p.Index)
	}
	if math.Abs(p.Centroid-150.3) > 0.5 {
		t.Errorf("centroid %g, want ~150.3", p.Centroid)
	}
	if p.SNR < 5 {
		t.Errorf("SNR %g below threshold", p.SNR)
	}
	if p.Area <= p.Height {
		t.Error("area should integrate multiple bins")
	}
	if p.LeftBin >= p.Index || p.RightBin <= p.Index {
		t.Error("peak bounds wrong")
	}
}

func TestDetectMultiplePeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	x := gaussianSignal(400, 100, 4, 300, 1, rng)
	y := gaussianSignal(400, 250, 4, 600, 0, nil)
	for i := range x {
		x[i] += y[i]
	}
	ps, _ := Detect(x, 8)
	if len(ps) != 2 {
		t.Fatalf("detected %d peaks, want 2", len(ps))
	}
	if absInt(ps[0].Index-100) > 1 || absInt(ps[1].Index-250) > 1 {
		t.Errorf("apexes %d, %d", ps[0].Index, ps[1].Index)
	}
}

func TestDetectRejectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ps, _ := Detect(x, 8)
	if len(ps) != 0 {
		t.Errorf("detected %d peaks in pure noise at SNR 8", len(ps))
	}
	if _, err := Detect(x, 0); err == nil {
		t.Error("zero SNR threshold should fail")
	}
	short, _ := Detect([]float64{1, 2}, 3)
	if short != nil {
		t.Error("too-short signal should yield nil")
	}
}

func buildFeatureFrame(t *testing.T, tof instrument.TOF) (*instrument.Frame, int, int) {
	t.Helper()
	f := instrument.NewFrame(64, tof.Bins)
	// A feature: gaussian in drift at bin 30, spread over 3 m/z columns
	// around column 20.
	for dc := -2; dc <= 2; dc++ {
		for c := 19; c <= 21; c++ {
			w := math.Exp(-float64(dc*dc) / 2)
			colW := 1.0
			if c != 20 {
				colW = 0.5
			}
			f.Add(30+dc, c, 200*w*colW)
		}
	}
	// Mild uniform noise floor.
	rng := rand.New(rand.NewSource(75))
	for i := range f.Data {
		f.Data[i] += math.Abs(rng.NormFloat64())
	}
	return f, 30, 20
}

func TestFindFeatures(t *testing.T) {
	tof := instrument.DefaultTOF()
	tof.Bins = 64
	f, wantDrift, wantCol := buildFeatureFrame(t, tof)
	feats, err := FindFeatures(f, tof, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Fatal("no features found")
	}
	top := feats[0]
	if absInt(top.DriftBin-wantDrift) > 1 {
		t.Errorf("feature drift bin %d, want ~%d", top.DriftBin, wantDrift)
	}
	if absInt(top.MZBin-wantCol) > 1 {
		t.Errorf("feature m/z bin %d, want ~%d", top.MZBin, wantCol)
	}
	if top.Columns < 2 {
		t.Errorf("feature spans %d columns, want >= 2 (merged)", top.Columns)
	}
	if math.Abs(top.MZ-tof.BinCenter(top.MZBin)) > 1e-9 {
		t.Error("feature m/z should be the bin centre")
	}
}

func TestFindFeaturesErrors(t *testing.T) {
	tof := instrument.DefaultTOF()
	if _, err := FindFeatures(nil, tof, 5, 1); err == nil {
		t.Error("nil frame")
	}
	f := instrument.NewFrame(8, 8)
	if _, err := FindFeatures(f, tof, 5, -1); err == nil {
		t.Error("negative tolerance")
	}
	if _, err := FindFeatures(f, tof, 5, 1); err == nil {
		t.Error("geometry mismatch should fail")
	}
}

func TestCandidatesAndMatching(t *testing.T) {
	p1, _ := chem.NewPeptide("LVNELTEFAK")
	p2, _ := chem.NewPeptide("HLVDEPQNLIK")
	cands, err := CandidatesFromPeptides(map[string]chem.Peptide{"a": p1, "b": p2}, true)
	if err != nil {
		t.Fatal(err)
	}
	var targets, decoys int
	for _, c := range cands {
		if c.IsDecoy {
			decoys++
		} else {
			targets++
		}
	}
	if targets == 0 || decoys == 0 {
		t.Fatalf("targets %d decoys %d", targets, decoys)
	}
	// Sorted by m/z.
	for i := 1; i < len(cands); i++ {
		if cands[i].MZ < cands[i-1].MZ {
			t.Fatal("candidates not sorted")
		}
	}
	// Build a feature exactly at p1 2+ m/z.
	mz, _ := p1.MZ(2)
	feats := []Feature{{MZ: mz, Intensity: 100, SNR: 20}}
	matches, err := MatchFeatures(feats, cands, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches %d, want 1", len(matches))
	}
	if matches[0].Candidate.Peptide.Sequence != "LVNELTEFAK" || matches[0].Candidate.Z != 2 {
		t.Errorf("matched %s/%d+", matches[0].Candidate.Peptide.Sequence, matches[0].Candidate.Z)
	}
	if matches[0].PPMError > 1 {
		t.Errorf("ppm error %g for exact mass", matches[0].PPMError)
	}
	// A far-off feature matches nothing.
	none, _ := MatchFeatures([]Feature{{MZ: 99999}}, cands, 20)
	if len(none) != 0 {
		t.Error("distant feature should not match")
	}
	if _, err := MatchFeatures(feats, cands, 0); err == nil {
		t.Error("zero tolerance should fail")
	}
}

func TestMatchFeaturesOneCandidatePerFeature(t *testing.T) {
	p1, _ := chem.NewPeptide("LVNELTEFAK")
	mz, _ := p1.MZ(2)
	cands := []Candidate{{Name: "a", Peptide: p1, Z: 2, MZ: mz}}
	feats := []Feature{
		{MZ: mz, Intensity: 100},
		{MZ: mz, Intensity: 50}, // same mass, lower intensity: loses
	}
	matches, _ := MatchFeatures(feats, cands, 20)
	if len(matches) != 1 {
		t.Errorf("candidate matched %d times, want 1", len(matches))
	}
	if matches[0].Feature.Intensity != 100 {
		t.Error("most intense feature should win the candidate")
	}
}

func TestFDR(t *testing.T) {
	p, _ := chem.NewPeptide("LVNELTEFAK")
	mk := func(decoy bool) Match {
		return Match{Candidate: Candidate{Peptide: p, IsDecoy: decoy}}
	}
	if got := FDR(nil); got != 0 {
		t.Errorf("empty FDR %g", got)
	}
	ms := []Match{mk(false), mk(false), mk(false), mk(true)}
	if got := FDR(ms); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("FDR %g, want 1/3", got)
	}
	if got := FDR([]Match{mk(true)}); got != 1 {
		t.Errorf("all-decoy FDR %g, want 1", got)
	}
	if got := UniqueTargets(ms); got != 1 {
		t.Errorf("unique targets %d, want 1", got)
	}
}

func BenchmarkDetect(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	x := gaussianSignal(2048, 1000, 10, 500, 3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect(x, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDetectWithScratch pins DetectWith to Detect whatever the scratch
// holds — none, too short, exact, longer and dirty — and the scratch's
// purpose: one that holds len(x) words saves the noise estimate's buffer.
func TestDetectWithScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x := gaussianSignal(511, 256, 6, 400, 3, rng)
	want, err := Detect(x, 5)
	if err != nil || len(want) == 0 {
		t.Fatalf("Detect: %v, %d peaks", err, len(want))
	}
	for _, n := range []int{0, 510, 511, 600} {
		scratch := make([]float64, n)
		for i := range scratch {
			scratch[i] = math.NaN()
		}
		got, err := DetectWith(nil, x, 5, scratch)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("scratch of %d words: %v, %+v; Detect %+v", n, err, got, want)
		}
	}
	scratch := make([]float64, len(x))
	fresh := testing.AllocsPerRun(20, func() { Detect(x, 5) })
	pooled := testing.AllocsPerRun(20, func() { DetectWith(nil, x, 5, scratch) })
	if pooled != fresh-1 {
		t.Errorf("DetectWith allocates %g objects per call with scratch, Detect %g: want one fewer", pooled, fresh)
	}
}

// TestDetectWithAllocs pins the serving path's use of DetectWith: with
// scratch of len(x) words and a dst that already holds room for the
// peaks, a call allocates nothing, and appends after what dst holds.
func TestDetectWithAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x := gaussianSignal(511, 256, 6, 400, 3, rng)
	want, err := Detect(x, 5)
	if err != nil || len(want) == 0 {
		t.Fatalf("Detect: %v, %d peaks", err, len(want))
	}
	scratch := make([]float64, len(x))
	head := Peak{Index: -1}
	dst := append(make([]Peak, 0, len(want)+1), head)
	got, err := DetectWith(dst, x, 5, scratch)
	if err != nil || got[0] != head || !reflect.DeepEqual(got[1:], want) {
		t.Fatalf("DetectWith after one peak: %v, %+v; want it, then %+v", err, got, want)
	}
	if a := testing.AllocsPerRun(20, func() { dst, _ = DetectWith(dst[:0], x, 5, scratch) }); a != 0 {
		t.Errorf("DetectWith into a kept dst allocates %g objects per call, want 0", a)
	}
}

// Property: the baseline never exceeds the signal at the chosen percentile's
// guarantee — specifically, subtracting it never yields negative values, and
// the baseline tracks a constant offset exactly.
func TestBaselineProperties(t *testing.T) {
	f := func(seed int64, offsetQ uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		offset := float64(offsetQ)
		x := make([]float64, 120)
		for i := range x {
			x[i] = offset
			if rng.Intn(10) == 0 {
				x[i] += rng.Float64() * 500
			}
		}
		b, err := Baseline(x, 8, 0.2)
		if err != nil {
			return false
		}
		sub, err := Subtract(x, b)
		if err != nil {
			return false
		}
		for i := range sub {
			if sub[i] < 0 {
				return false
			}
		}
		// Where the window saw mostly offset, the baseline equals it.
		matches := 0
		for _, v := range b {
			if math.Abs(v-offset) < 1e-9 {
				matches++
			}
		}
		return matches > len(b)/2
	}
	if err := quickCheck(f, 30); err != nil {
		t.Error(err)
	}
}

// Property: Savitzky-Golay smoothing of any straight line reproduces the
// line exactly in the interior, for every valid window/degree >= 1.
func TestSavitzkyGolayLinearInvariance(t *testing.T) {
	for half := 1; half <= 5; half++ {
		for degree := 1; degree < 2*half+1 && degree <= 4; degree++ {
			coeff, err := SavitzkyGolay(half, degree)
			if err != nil {
				t.Fatal(err)
			}
			line := make([]float64, 40)
			for i := range line {
				line[i] = 2.5*float64(i) - 7
			}
			sm, err := Smooth(line, coeff)
			if err != nil {
				t.Fatal(err)
			}
			for i := half; i < len(line)-half; i++ {
				if math.Abs(sm[i]-line[i]) > 1e-6 {
					t.Fatalf("half=%d degree=%d: line distorted at %d (%g vs %g)",
						half, degree, i, sm[i], line[i])
				}
			}
		}
	}
}

// Property: every detected peak's apex is a true local maximum of the
// signal, and peaks are reported in index order.
func TestDetectInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 200)
		for k := 0; k < 4; k++ {
			c := 20 + rng.Float64()*160
			h := 50 + rng.Float64()*400
			w := 2 + rng.Float64()*4
			for i := range x {
				d := (float64(i) - c) / w
				x[i] += h * math.Exp(-d*d/2)
			}
		}
		for i := range x {
			x[i] += rng.NormFloat64()
		}
		ps, err := Detect(x, 5)
		if err != nil {
			return false
		}
		prev := -1
		for _, p := range ps {
			if p.Index <= prev {
				return false
			}
			prev = p.Index
			if !(x[p.Index] >= x[p.Index-1] && x[p.Index] >= x[p.Index+1]) {
				return false
			}
			if p.LeftBin > p.Index || p.RightBin < p.Index {
				return false
			}
			if p.Centroid < float64(p.Index)-1 || p.Centroid > float64(p.Index)+1 {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 40); err != nil {
		t.Error(err)
	}
}

// quickCheck adapts a func(seed) bool (plus optional extra args) to
// testing/quick with a bounded count.
func quickCheck(f interface{}, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}
