package instrument

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
)

// testMixture returns a small three-peptide mixture.
func testMixture(t testing.TB) Mixture {
	t.Helper()
	var m Mixture
	for _, def := range []struct {
		name, seq string
		abundance float64
	}{
		{"bradykinin", "RPPGFSPFR", 1.0},
		{"angiotensin I", "DRVYIHPFHL", 0.5},
		{"fibrinopeptide A", "ADSGEGDFLAEGGGVR", 0.2},
	} {
		p, err := chem.NewPeptide(def.seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddPeptide(def.name, p, def.abundance); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// testConfig returns a fast configuration for unit tests: order 6, small
// TOF axis.
func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.SequenceOrder = 6
	cfg.Mode = mode
	cfg.Frames = 2
	cfg.TOF.Bins = 256
	cfg.TOF.MinMZ = 200
	cfg.TOF.MaxMZ = 1700
	cfg.BinWidthS = 4e-4 // keep the 63-bin cycle long enough for drift times
	return cfg
}

func testSource(t testing.TB, rate float64) *ESISource {
	t.Helper()
	src, err := NewESISource(testMixture(t), rate)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestAnalyteValidate(t *testing.T) {
	good := Analyte{Name: "x", MassDa: 1000, Z: 2, MZ: 501, CCSM2: 3e-18, Abundance: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Analyte{
		{MassDa: 0, Z: 2, MZ: 501, CCSM2: 3e-18},
		{MassDa: 1000, Z: 0, MZ: 501, CCSM2: 3e-18},
		{MassDa: 1000, Z: 2, MZ: 0, CCSM2: 3e-18},
		{MassDa: 1000, Z: 2, MZ: 501, CCSM2: 0},
		{MassDa: 1000, Z: 2, MZ: 501, CCSM2: 3e-18, Abundance: -1},
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestAnalytesFromPeptide(t *testing.T) {
	p, _ := chem.NewPeptide("LVNELTEFAK")
	as, err := AnalytesFromPeptide("pep", p, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no analytes")
	}
	var total float64
	for _, a := range as {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		total += a.Abundance
	}
	// Total abundance approximately preserved (small states dropped).
	if total < 9 || total > 10 {
		t.Errorf("total abundance %g, want near 10", total)
	}
	if _, err := AnalytesFromPeptide("bad", p, -1, 0.02); err == nil {
		t.Error("negative abundance should fail")
	}
	if _, err := AnalytesFromPeptide("none", p, 1, 1.1); err == nil {
		t.Error("impossible min fraction should fail")
	}
}

func TestMixture(t *testing.T) {
	m := testMixture(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.TotalAbundance() <= 0 {
		t.Error("zero total abundance")
	}
	m.SortByMZ()
	for i := 1; i < len(m.Analytes); i++ {
		if m.Analytes[i].MZ < m.Analytes[i-1].MZ {
			t.Fatal("not sorted by m/z")
		}
	}
	var empty Mixture
	if err := empty.Validate(); err == nil {
		t.Error("empty mixture should fail")
	}
	if err := empty.AddAnalyte(Analyte{}); err == nil {
		t.Error("invalid analyte should fail")
	}
}

func TestLCPeak(t *testing.T) {
	pk := LCPeak{Retention: 100, Sigma: 2, Tau: 3}
	apex := pk.Amplitude(pk.Retention)
	if apex <= 0 {
		t.Fatal("apex must be positive")
	}
	// Tail is slower than front (EMG asymmetry).
	front := pk.Amplitude(95)
	tail := pk.Amplitude(105)
	if tail <= front {
		t.Errorf("EMG tail %g should exceed mirrored front %g", tail, front)
	}
	// Decays to ~0 far from the peak.
	if pk.Amplitude(0) > apex*1e-6 {
		t.Error("profile should vanish far before the peak")
	}
	if pk.Amplitude(1e4) > apex*1e-6 {
		t.Error("profile should vanish far after the peak")
	}
	// Pure Gaussian limit.
	g := LCPeak{Retention: 50, Sigma: 2, Tau: 0}
	want := 1 / (2 * math.Sqrt(2*math.Pi))
	if got := g.Amplitude(50); math.Abs(got-want) > 1e-9 {
		t.Errorf("gaussian apex = %g, want %g", got, want)
	}
	if (LCPeak{Sigma: 0}).Amplitude(0) != 0 {
		t.Error("zero-sigma peak should be zero")
	}
}

func TestESISourceRates(t *testing.T) {
	src := testSource(t, 1e8)
	rates := src.Rates(0)
	var sum float64
	for _, r := range rates {
		if r < 0 {
			t.Fatal("negative rate")
		}
		sum += r
	}
	if math.Abs(sum-1e8) > 1 {
		t.Errorf("rates sum to %g, want 1e8", sum)
	}
	if math.Abs(src.TotalRateAt(0)-1e8) > 1 {
		t.Error("TotalRateAt mismatch")
	}
	// With elution, rate at apex exceeds rate far away.
	src.Elution = map[int]LCPeak{0: {Retention: 60, Sigma: 3, Tau: 2}}
	atApex := src.Rates(60)[0]
	away := src.Rates(300)[0]
	if atApex <= away {
		t.Error("elution profile not applied")
	}
	if _, err := NewESISource(Mixture{}, 1e8); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewESISource(testMixture(t), 0); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestFunnelTrap(t *testing.T) {
	ft, err := NewFunnelTrap(1000, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	lost := ft.Accumulate(100, 1) // 90 stored
	if lost != 0 {
		t.Errorf("lost %g at low fill", lost)
	}
	if math.Abs(ft.Stored()-90) > 1e-9 {
		t.Errorf("stored %g, want 90", ft.Stored())
	}
	// Overfill: capacity 1000, incoming 9000*0.9 = 8100, room 910.
	lost = ft.Accumulate(9000, 1)
	if math.Abs(lost-(8100-910)) > 1e-9 {
		t.Errorf("lost %g, want %g", lost, 8100.0-910)
	}
	if ft.Fill() != 1 {
		t.Errorf("fill %g, want 1", ft.Fill())
	}
	// Fully saturated: everything lost.
	lost = ft.Accumulate(10, 1)
	if math.Abs(lost-9) > 1e-9 {
		t.Errorf("lost %g, want 9", lost)
	}
	packet := ft.Release()
	if math.Abs(packet-1000) > 1e-9 {
		t.Errorf("packet %g, want 1000", packet)
	}
	if ft.Stored() != 0 {
		t.Error("trap should be empty after full release")
	}
	ft.Accumulate(100, 1)
	ft.Reset()
	if ft.Stored() != 0 {
		t.Error("reset failed")
	}
	// Degenerate accumulate inputs.
	if ft.Accumulate(-5, 1) != 0 || ft.Accumulate(5, 0) != 0 {
		t.Error("degenerate accumulate should be a no-op")
	}
	// Partial release.
	ft2, _ := NewFunnelTrap(1000, 1, 0.5)
	ft2.Accumulate(100, 1)
	p := ft2.Release()
	if math.Abs(p-50) > 1e-9 || math.Abs(ft2.Stored()-50) > 1e-9 {
		t.Error("partial release wrong")
	}
}

func TestFunnelTrapConstructorErrors(t *testing.T) {
	if _, err := NewFunnelTrap(0, 1, 1); err == nil {
		t.Error("zero capacity")
	}
	if _, err := NewFunnelTrap(10, 0, 1); err == nil {
		t.Error("zero efficiency")
	}
	if _, err := NewFunnelTrap(10, 1.5, 1); err == nil {
		t.Error("efficiency > 1")
	}
	if _, err := NewFunnelTrap(10, 1, 0); err == nil {
		t.Error("zero release")
	}
}

// TestFunnelTrapConservesCharge drives the trap through random
// interleavings of Accumulate, Release and ReleaseUpTo, at the PNNL
// capacity of 3×10⁷ charges (Ibrahim 2007) and at small ones.  After every
// step the stored charge lies in [0, Capacity], and every captured charge
// is accounted for: Σ efficiency·rate·dt = stored + Σ released + Σ lost.
func TestFunnelTrapConservesCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	for _, capacity := range []float64{DefaultTrapConfig().Capacity, 1000, 37.5, 1} {
		for trial := 0; trial < 20; trial++ {
			eff, frac := 1-rng.Float64(), 1-rng.Float64() // both in (0,1]
			ft, err := NewFunnelTrap(capacity, eff, frac)
			if err != nil {
				t.Fatal(err)
			}
			var in, released, lost float64
			for step := 0; step < 1000; step++ {
				switch op := rng.Intn(4); op {
				case 0, 1: // fill: up to twice the capacity per interval, sometimes nothing
					rate, dt := 2*capacity*rng.Float64()*float64(rng.Intn(2))/1e-3, 1e-3*rng.Float64()
					if rate > 0 && dt > 0 {
						in += eff * rate * dt
					}
					lost += ft.Accumulate(rate, dt)
				case 2:
					released += ft.Release()
				default:
					released += ft.ReleaseUpTo(capacity * (rng.Float64() - 0.1))
				}
				if s := ft.Stored(); s < 0 || s > capacity {
					t.Fatalf("capacity %g trial %d step %d: stored %g outside [0, %g]", capacity, trial, step, s, capacity)
				}
				if d := in - (ft.Stored() + released + lost); math.Abs(d) > 1e-12*in {
					t.Fatalf("capacity %g trial %d step %d: %g charges in, %g stored + %g released + %g lost (off by %g)",
						capacity, trial, step, in, ft.Stored(), released, lost, d)
				}
			}
		}
	}
}

func TestMZBias(t *testing.T) {
	ft, _ := NewFunnelTrap(1000, 1, 1)
	if ft.MZBias(500, 0.5) != 1 {
		t.Error("no bias below capacity")
	}
	lowMZ := ft.MZBias(200, 2)
	highMZ := ft.MZBias(1500, 2)
	if lowMZ >= highMZ {
		t.Errorf("overfill should bias against low m/z: low %g, high %g", lowMZ, highMZ)
	}
	if lowMZ <= 0 || highMZ > 1 {
		t.Error("bias out of range")
	}
}

func TestAGC(t *testing.T) {
	agc, err := NewAGC(1e6, 1e-3, 1e-1)
	if err != nil {
		t.Fatal(err)
	}
	// Initial guess is inside the bounds.
	ft := agc.NextFillTime()
	if ft < 1e-3 || ft > 1e-1 {
		t.Errorf("initial fill %g outside bounds", ft)
	}
	// After observing a strong beam, fill time adapts downward toward
	// target/rate.
	agc.Observe(1e6, 1e-3) // rate 1e9 charges/s
	got := agc.NextFillTime()
	if got > 2e-3 {
		t.Errorf("fill time %g should approach %g", got, 1e6/1e9)
	}
	// A weak beam pushes the fill time to the maximum.
	agc2, _ := NewAGC(1e6, 1e-3, 1e-1)
	agc2.Observe(100, 1e-1) // rate 1e3
	if agc2.NextFillTime() != 1e-1 {
		t.Error("weak beam should clamp to max fill")
	}
	// EMA smooths: a single outlier does not fully reset the estimate.
	agc3, _ := NewAGC(1e6, 1e-3, 1e-1)
	agc3.Observe(1e6, 1e-3)
	r1 := agc3.EstimatedRate()
	agc3.Observe(1, 1e-1) // near-zero outlier
	r2 := agc3.EstimatedRate()
	if r2 >= r1 {
		t.Error("estimate should decrease")
	}
	if r2 < r1*0.2 {
		t.Error("EMA should damp single outliers")
	}
	agc3.Observe(0, 0) // ignored
	if agc3.EstimatedRate() != r2 {
		t.Error("zero fill time must be ignored")
	}
}

func TestAGCConstructorErrors(t *testing.T) {
	if _, err := NewAGC(0, 1e-3, 1e-1); err == nil {
		t.Error("zero target")
	}
	if _, err := NewAGC(1, 0, 1); err == nil {
		t.Error("zero min fill")
	}
	if _, err := NewAGC(1, 1e-1, 1e-3); err == nil {
		t.Error("max below min")
	}
}

func TestGateEffectiveWaveform(t *testing.T) {
	g := Gate{OpenTransmission: 0.9, ClosedLeakage: 0.01, RiseBins: 1, RiseDepth: 0.5}
	seq := []uint8{0, 1, 1, 0, 1}
	w, err := g.EffectiveWaveform(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Bin 1 opens after a 0: depleted.  Bin 2 continues open: full.
	// Bin 4 opens after a 0: depleted (cyclic wrap ignored: bin 0 is 0).
	want := []float64{0.01, 0.45, 0.9, 0.01, 0.45}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("waveform[%d] = %g, want %g", i, w[i], want[i])
		}
	}
	// Ideal gate: no depletion anywhere.
	ideal := Gate{OpenTransmission: 1, ClosedLeakage: 0, RiseBins: 0}
	w2, _ := ideal.EffectiveWaveform(seq)
	for i, b := range seq {
		if w2[i] != float64(b) {
			t.Fatal("ideal gate should reproduce the sequence")
		}
	}
	if _, err := g.EffectiveWaveform([]uint8{0, 0}); err == nil {
		t.Error("never-open sequence should fail")
	}
}

func TestGateValidate(t *testing.T) {
	bad := []Gate{
		{OpenTransmission: 0},
		{OpenTransmission: 1.5},
		{OpenTransmission: 0.5, ClosedLeakage: 0.6},
		{OpenTransmission: 0.9, RiseBins: -1},
		{OpenTransmission: 0.9, RiseDepth: 1.5},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("gate case %d should fail", i)
		}
	}
	if err := DefaultGate().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDriftTubeArrival(t *testing.T) {
	tube := DefaultDriftTube()
	p, _ := chem.NewPeptide("RPPGFSPFR")
	as, _ := AnalytesFromPeptide("bk", p, 1, 0.05)
	a := as[0]
	arr, err := tube.Arrival(a, 1e-4, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	if arr.MeanS < 5e-3 || arr.MeanS > 0.2 {
		t.Errorf("drift time %g s implausible", arr.MeanS)
	}
	if arr.SigmaS <= 0 || arr.SigmaS > arr.MeanS {
		t.Errorf("sigma %g implausible vs mean %g", arr.SigmaS, arr.MeanS)
	}
	// Space charge increases sigma.
	arrBig, _ := tube.Arrival(a, 1e-4, 1e8)
	if arrBig.SigmaS <= arr.SigmaS {
		t.Error("larger packet should broaden arrival")
	}
	// Errors.
	if _, err := tube.Arrival(Analyte{}, 1e-4, 0); err == nil {
		t.Error("invalid analyte should fail")
	}
	if _, err := tube.Arrival(a, -1, 0); err == nil {
		t.Error("negative gate width should fail")
	}
	bad := tube
	bad.LengthM = 0
	if _, err := bad.Arrival(a, 1e-4, 0); err == nil {
		t.Error("invalid tube should fail")
	}
}

func TestDriftTubeMaxDriftTime(t *testing.T) {
	tube := DefaultDriftTube()
	m := testMixture(t)
	max, err := tube.MaxDriftTime(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.Analytes {
		arr, _ := tube.Arrival(a, 0, 0)
		if arr.MeanS > max {
			t.Fatal("MaxDriftTime missed a slower analyte")
		}
	}
	if _, err := tube.MaxDriftTime(Mixture{}); err == nil {
		t.Error("empty mixture should fail")
	}
}

func TestDriftTubeResolvingPower(t *testing.T) {
	r, err := DefaultDriftTube().ResolvingPower(2)
	if err != nil {
		t.Fatal(err)
	}
	if r < 50 || r > 300 {
		t.Errorf("resolving power %g implausible", r)
	}
}

func TestTOFFlightTime(t *testing.T) {
	tof := DefaultTOF()
	t1, err := tof.FlightTime(500)
	if err != nil {
		t.Fatal(err)
	}
	// Flight times are tens of microseconds.
	if t1 < 5e-6 || t1 > 1e-4 {
		t.Errorf("flight time %g implausible", t1)
	}
	t2, _ := tof.FlightTime(2000)
	if math.Abs(t2/t1-2) > 1e-9 {
		t.Errorf("flight time should scale as sqrt(m/z): ratio %g", t2/t1)
	}
	if _, err := tof.FlightTime(0); err == nil {
		t.Error("zero m/z should fail")
	}
}

func TestTOFDutyCycle(t *testing.T) {
	tof := DefaultTOF()
	dMax := tof.DutyCycle(tof.MaxMZ)
	if math.Abs(dMax-0.25) > 1e-9 {
		t.Errorf("max duty %g, want 0.25", dMax)
	}
	dLow := tof.DutyCycle(tof.MinMZ)
	if dLow >= dMax {
		t.Error("duty cycle should grow with m/z")
	}
	// Clamping.
	if tof.DutyCycle(1) != dLow {
		t.Error("below-range m/z should clamp")
	}
	if tof.DutyCycle(1e6) != dMax {
		t.Error("above-range m/z should clamp")
	}
}

func TestTOFBinning(t *testing.T) {
	tof := DefaultTOF()
	if tof.BinOf(tof.MinMZ-1) != -1 || tof.BinOf(tof.MaxMZ) != -1 {
		t.Error("out-of-range m/z should map to -1")
	}
	for _, mz := range []float64{200, 500.5, 1234.5, 2499.9} {
		b := tof.BinOf(mz)
		if b < 0 || b >= tof.Bins {
			t.Fatalf("bin %d out of range for m/z %g", b, mz)
		}
		c := tof.BinCenter(b)
		if math.Abs(c-mz) > tof.BinWidth() {
			t.Fatalf("bin center %g too far from %g", c, mz)
		}
	}
}

func TestTOFSpread(t *testing.T) {
	tof := DefaultTOF()
	bins, weights := tof.Spread(1000)
	if len(bins) == 0 {
		t.Fatal("no spread bins")
	}
	var sum float64
	maxW := 0.0
	maxI := 0
	for i, w := range weights {
		sum += w
		if w > maxW {
			maxW, maxI = w, i
		}
	}
	if sum < 0.9 || sum > 1.1 {
		t.Errorf("spread weights sum to %g, want ~1", sum)
	}
	centre := tof.BinCenter(bins[maxI])
	if math.Abs(centre-1000) > 2*tof.BinWidth() {
		t.Errorf("spread apex at %g, want near 1000", centre)
	}
	// Out-of-range peaks vanish.
	if b, _ := tof.Spread(10); b != nil {
		t.Error("far out-of-range peak should spread nowhere")
	}
}

func TestTOFValidate(t *testing.T) {
	if err := DefaultTOF().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTOF()
	bad.MinMZ = 3000
	if err := bad.Validate(); err == nil {
		t.Error("inverted m/z range should fail")
	}
}

func TestPoissonSample(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	if PoissonSample(0, rng) != 0 || PoissonSample(-1, rng) != 0 {
		t.Error("non-positive lambda should give 0")
	}
	// Small-lambda regime: empirical mean near lambda.
	for _, lambda := range []float64{0.5, 3, 20} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(PoissonSample(lambda, rng))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/float64(n)) {
			t.Errorf("lambda %g: empirical mean %g", lambda, mean)
		}
	}
	// Large-lambda (normal approx) regime.
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		sum += float64(PoissonSample(1000, rng))
	}
	if mean := sum / float64(n); math.Abs(mean-1000) > 5 {
		t.Errorf("lambda 1000: empirical mean %g", mean)
	}
}

func TestDetectorCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	det := Detector{GainCounts: 8, GainSpread: 0}
	if det.Counts(0, rng) != 0 {
		t.Error("zero ions give zero counts")
	}
	if got := det.Counts(5, rng); got != 40 {
		t.Errorf("deterministic gain: %g, want 40", got)
	}
	det2 := DefaultDetector()
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += det2.Counts(10, rng)
	}
	mean := sum / float64(n)
	want := 10 * det2.GainCounts
	if math.Abs(mean-want) > want*0.05 {
		t.Errorf("mean counts %g, want ~%g", mean, want)
	}
}

func TestADCSample(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	adc := ADC{Bits: 8, BaselineMean: 0, BaselineSigma: 0}
	if got := adc.Sample(100.4, rng); got != 100 {
		t.Errorf("quantization: %g, want 100", got)
	}
	if got := adc.Sample(5000, rng); got != 255 {
		t.Errorf("saturation: %g, want 255", got)
	}
	if got := adc.Sample(-20, rng); got != 0 {
		t.Errorf("clipping: %g, want 0", got)
	}
	thr := ADC{Bits: 8, ThresholdCnt: 10}
	if got := thr.Sample(3, rng); got != 0 {
		t.Errorf("threshold: %g, want 0", got)
	}
	if err := (ADC{Bits: 0}).Validate(); err == nil {
		t.Error("zero bits should fail")
	}
	if err := (ADC{Bits: 8, BaselineSigma: -1}).Validate(); err == nil {
		t.Error("negative noise should fail")
	}
}

func TestADCAccumulateSamplesConsistency(t *testing.T) {
	// The exact and approximate accumulation paths must agree in mean.
	det := Detector{GainCounts: 5, GainSpread: 0.5}
	adc := ADC{Bits: 8, BaselineMean: 1, BaselineSigma: 1}
	lambda := 2.0
	var n int64 = 400
	trials := 200
	rng := rand.New(rand.NewSource(44))
	var exact, approx float64
	for i := 0; i < trials; i++ {
		exact += adc.AccumulateSamples(lambda, n, det, rng, n+1) // force exact
		approx += adc.AccumulateSamples(lambda, n, det, rng, 0)  // force approx
	}
	exact /= float64(trials)
	approx /= float64(trials)
	if math.Abs(exact-approx)/exact > 0.05 {
		t.Errorf("exact mean %g vs approx mean %g differ by >5%%", exact, approx)
	}
	if adc.AccumulateSamples(1, 0, det, rng, 10) != 0 {
		t.Error("zero samples give zero")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.SequenceOrder = 1 }),
		mut(func(c *Config) { c.Oversample = 0 }),
		mut(func(c *Config) { c.Defect = -1 }),
		mut(func(c *Config) { c.Defect = 1; c.Oversample = 1 }),
		mut(func(c *Config) { c.BinWidthS = 0 }),
		mut(func(c *Config) { c.BinWidthS = 1e-6 }), // below extraction period
		mut(func(c *Config) { c.Frames = 0 }),
		mut(func(c *Config) { c.Trap = TrapConfig{} }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config case %d should fail", i)
		}
	}
}

func TestConfigSequence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SequenceOrder = 5
	cfg.Oversample = 3
	cfg.Defect = 1
	s, err := cfg.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 31*3 {
		t.Errorf("sequence length %d, want 93", len(s))
	}
	if cfg.DriftBins() != 93 {
		t.Errorf("drift bins %d, want 93", cfg.DriftBins())
	}
	if math.Abs(cfg.CycleDuration()-93*cfg.BinWidthS) > 1e-12 {
		t.Error("cycle duration wrong")
	}
}

func TestFrameAccessors(t *testing.T) {
	f := NewFrame(4, 3)
	f.Set(2, 1, 5)
	f.Add(2, 1, 2)
	if f.At(2, 1) != 7 {
		t.Errorf("At = %g, want 7", f.At(2, 1))
	}
	f.Set(0, 0, 1)
	f.Set(3, 2, 10)
	if got := f.TotalCounts(); got != 18 {
		t.Errorf("total %g, want 18", got)
	}
	dp := f.DriftProfile()
	if dp[2] != 7 || dp[0] != 1 || dp[3] != 10 || dp[1] != 0 {
		t.Errorf("drift profile %v", dp)
	}
	ts := f.TOFSpectrum(2)
	if ts[1] != 7 || ts[0] != 0 {
		t.Errorf("tof spectrum %v", ts)
	}
	dv := f.DriftVector(1)
	if dv[2] != 7 || dv[0] != 0 {
		t.Errorf("drift vector %v", dv)
	}
	f.SetDriftVector(2, []float64{9, 9, 9, 9})
	if f.At(0, 2) != 9 || f.At(3, 2) != 9 {
		t.Error("SetDriftVector failed")
	}
}

func TestInstrumentModeString(t *testing.T) {
	if ModeSignalAveraging.String() != "signal-averaging" ||
		ModeMultiplexed.String() != "multiplexed" ||
		ModeMultiplexedTrap.String() != "multiplexed+trap" {
		t.Error("mode strings wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestInstrumentGatePulses(t *testing.T) {
	src := testSource(t, 1e8)
	sa, err := New(testConfig(ModeSignalAveraging), src)
	if err != nil {
		t.Fatal(err)
	}
	if sa.GatePulsesPerCycle() != 1 {
		t.Error("SA mode should pulse once per cycle")
	}
	mp, _ := New(testConfig(ModeMultiplexed), src)
	if got := mp.GatePulsesPerCycle(); got != 32 {
		t.Errorf("order-6 MP pulses = %d, want 32", got)
	}
}

// TestUtilizationOrdering is the duty-cycle story of the paper series:
// SA ≈ 1/N, MP ≈ 1/2, trap+MP above MP.
func TestUtilizationOrdering(t *testing.T) {
	src := testSource(t, 1e7)
	var utils [3]float64
	for i, mode := range []Mode{ModeSignalAveraging, ModeMultiplexed, ModeMultiplexedTrap} {
		inst, err := New(testConfig(mode), src)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := inst.ExpectedDetections(0)
		if err != nil {
			t.Fatal(err)
		}
		utils[i] = stats.Utilization
	}
	if utils[0] > 0.05 {
		t.Errorf("SA utilization %g should be ~1/63", utils[0])
	}
	if utils[1] < 0.4 || utils[1] > 0.55 {
		t.Errorf("MP utilization %g should be ~0.5", utils[1])
	}
	if utils[2] <= utils[1] {
		t.Errorf("trap+MP utilization %g should exceed MP %g", utils[2], utils[1])
	}
	if utils[2] > 1 {
		t.Errorf("utilization %g cannot exceed 1", utils[2])
	}
}

func TestExpectedDetectionsConservation(t *testing.T) {
	src := testSource(t, 1e7)
	inst, _ := New(testConfig(ModeMultiplexed), src)
	frame, stats, err := inst.ExpectedDetections(0)
	if err != nil {
		t.Fatal(err)
	}
	if frame.DriftBins != 63 || frame.TOFBins != 256 {
		t.Fatalf("frame geometry %dx%d", frame.DriftBins, frame.TOFBins)
	}
	// Detected ions are injected ions times duty cycle (<= max 25 %) and
	// spectral truncation; they cannot exceed injections.
	if stats.IonsDetected >= stats.IonsInjected {
		t.Errorf("detected %g should be below injected %g (duty cycle)", stats.IonsDetected, stats.IonsInjected)
	}
	if stats.IonsDetected <= 0 {
		t.Error("nothing detected")
	}
	// All frame mass is non-negative.
	for _, v := range frame.Data {
		if v < 0 {
			t.Fatal("negative expectation")
		}
	}
}

// TestTrapModeBeatsBeamModeSignal: at the same source current the funnel
// trap injects more ions per cycle.
func TestTrapModeBeatsBeamModeSignal(t *testing.T) {
	src := testSource(t, 1e7)
	beam, _ := New(testConfig(ModeMultiplexed), src)
	trap, _ := New(testConfig(ModeMultiplexedTrap), src)
	_, sBeam, _ := beam.ExpectedDetections(0)
	_, sTrap, _ := trap.ExpectedDetections(0)
	if sTrap.IonsInjected <= sBeam.IonsInjected {
		t.Errorf("trap injected %g should exceed beam %g", sTrap.IonsInjected, sBeam.IonsInjected)
	}
}

// TestTrapSaturation: a huge source current saturates the trap and records
// losses.
func TestTrapSaturation(t *testing.T) {
	src := testSource(t, 1e13)
	cfg := testConfig(ModeMultiplexedTrap)
	inst, _ := New(cfg, src)
	_, stats, _ := inst.ExpectedDetections(0)
	if stats.TrapLosses <= 0 {
		t.Error("expected trap losses at saturating current")
	}
	if stats.Utilization >= 0.9 {
		t.Errorf("utilization %g should collapse under saturation", stats.Utilization)
	}
}

func TestAcquireDeterminism(t *testing.T) {
	src := testSource(t, 1e7)
	inst, _ := New(testConfig(ModeMultiplexed), src)
	f1, s1, err := inst.Acquire(rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	f2, s2, err := inst.Acquire(rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	if s1.IonsInjected != s2.IonsInjected {
		t.Error("stats not deterministic")
	}
	for i := range f1.Data {
		if f1.Data[i] != f2.Data[i] {
			t.Fatal("frames not deterministic under equal seeds")
		}
	}
	// Different seeds give different noise.
	f3, _, _ := inst.Acquire(rand.New(rand.NewSource(78)))
	same := true
	for i := range f1.Data {
		if f1.Data[i] != f3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical frames")
	}
	if _, _, err := inst.Acquire(nil); err == nil {
		t.Error("nil rng should fail")
	}
}

// TestAcquireSignalPresent: the acquired frame contains clearly more counts
// in the analyte's m/z column than in an empty column.
func TestAcquireSignalPresent(t *testing.T) {
	src := testSource(t, 1e7)
	cfg := testConfig(ModeMultiplexed)
	inst, _ := New(cfg, src)
	frame, _, err := inst.Acquire(rand.New(rand.NewSource(79)))
	if err != nil {
		t.Fatal(err)
	}
	// Locate bradykinin 2+ column.
	p, _ := chem.NewPeptide("RPPGFSPFR")
	mz, _ := p.MZ(2)
	col := cfg.TOF.BinOf(mz)
	if col < 0 {
		t.Fatal("bradykinin 2+ out of recorded range")
	}
	sig := 0.0
	for _, v := range frame.DriftVector(col) {
		sig += v
	}
	// An empty column far from any analyte.
	empty := 0.0
	for _, v := range frame.DriftVector(5) {
		empty += v
	}
	if sig < empty*1.5 {
		t.Errorf("analyte column (%g) not above background (%g)", sig, empty)
	}
}

func TestTDCExpectedCounts(t *testing.T) {
	tdc := DefaultTDC()
	if err := tdc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tdc.ExpectedCounts(0); got != 0 {
		t.Errorf("zero flux counts %g", got)
	}
	// Low flux: linear (1-exp(-λ) ≈ λ).
	if got := tdc.ExpectedCounts(0.01); math.Abs(got-0.00995) > 1e-4 {
		t.Errorf("low flux counts %g", got)
	}
	// High flux: saturates at 1 event per extraction.
	if got := tdc.ExpectedCounts(100); got < 0.999 || got > 1 {
		t.Errorf("saturated counts %g", got)
	}
	// Multi-stop raises the ceiling.
	multi := TDC{MaxEventsPerBin: 4}
	if got := multi.ExpectedCounts(100); got < 3.9 || got > 4 {
		t.Errorf("multi-stop saturated counts %g", got)
	}
	if got := multi.ExpectedCounts(1); got <= tdc.ExpectedCounts(1) {
		t.Errorf("multi-stop should register more at moderate flux: %g", got)
	}
	if err := (TDC{}).Validate(); err == nil {
		t.Error("zero max events should fail")
	}
}

func TestTDCAccumulateSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tdc := DefaultTDC()
	if tdc.AccumulateSamples(1, 0, rng, 10) != 0 || tdc.AccumulateSamples(0, 10, rng, 10) != 0 {
		t.Error("degenerate inputs should give zero")
	}
	// Exact and approximate paths agree in mean.
	lambda := 0.5
	var n int64 = 500
	trials := 200
	var exact, approx float64
	for i := 0; i < trials; i++ {
		exact += tdc.AccumulateSamples(lambda, n, rng, n+1)
		approx += tdc.AccumulateSamples(lambda, n, rng, 0)
	}
	exact /= float64(trials)
	approx /= float64(trials)
	if math.Abs(exact-approx)/exact > 0.05 {
		t.Errorf("exact %g vs approx %g", exact, approx)
	}
	// Never exceeds the event ceiling.
	if got := tdc.AccumulateSamples(1e6, 100, rng, 0); got > 100 {
		t.Errorf("TDC returned %g counts for 100 extractions", got)
	}
}

// TestTDCSaturationCompressesDynamicRange: the end-to-end contrast that
// motivated ADC detection — at high flux a strong and a 100x weaker analyte
// look much closer in a TDC run than in an ADC run.
func TestTDCSaturationCompressesDynamicRange(t *testing.T) {
	build := func(kind DetectionKind) (*Frame, Config) {
		var m Mixture
		p1, _ := chem.NewPeptide("RPPGFSPFR")
		p2, _ := chem.NewPeptide("DRVYIHPF")
		if err := m.AddPeptide("strong", p1, 100); err != nil {
			t.Fatal(err)
		}
		if err := m.AddPeptide("weak", p2, 1); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(ModeSignalAveraging)
		cfg.Detection = kind
		cfg.TDC = DefaultTDC()
		cfg.Detector.GainCounts = 2      // keep the ADC linear at this flux
		src, err := NewESISource(m, 1e7) // saturates the TDC, not the ADC
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := inst.Acquire(rand.New(rand.NewSource(46)))
		if err != nil {
			t.Fatal(err)
		}
		return frame, cfg
	}
	ratio := func(frame *Frame, cfg Config) float64 {
		p1, _ := chem.NewPeptide("RPPGFSPFR")
		p2, _ := chem.NewPeptide(`DRVYIHPF`)
		mz1, _ := p1.MZ(2)
		mz2, _ := p2.MZ(2)
		c1, c2 := cfg.TOF.BinOf(mz1), cfg.TOF.BinOf(mz2)
		max1, max2 := 0.0, 0.0
		for _, v := range frame.DriftVector(c1) {
			if v > max1 {
				max1 = v
			}
		}
		for _, v := range frame.DriftVector(c2) {
			if v > max2 {
				max2 = v
			}
		}
		if max2 == 0 {
			return math.Inf(1)
		}
		return max1 / max2
	}
	adcFrame, adcCfg := build(DetectionADC)
	tdcFrame, tdcCfg := build(DetectionTDC)
	adcRatio := ratio(adcFrame, adcCfg)
	tdcRatio := ratio(tdcFrame, tdcCfg)
	if tdcRatio >= adcRatio/2 {
		t.Errorf("TDC ratio %g should be well below ADC ratio %g (saturation compression)", tdcRatio, adcRatio)
	}
}

// TestTrapSaturationBiasesMZ: when the trap saturates, the packet
// composition shifts toward high m/z relative to the beam composition.
func TestTrapSaturationBiasesMZ(t *testing.T) {
	var m Mixture
	if err := m.AddAnalyte(Analyte{Name: "light", MassDa: 400, Z: 2, MZ: 201, CCSM2: 1.5e-18, Abundance: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddAnalyte(Analyte{Name: "heavy", MassDa: 3000, Z: 2, MZ: 1501, CCSM2: 5e-18, Abundance: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeMultiplexedTrap)
	cfg.Trap.EqualizeRelease = false
	composition := func(rate float64) float64 {
		src, err := NewESISource(m, rate)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		frame, stats, err := inst.ExpectedDetections(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = stats
		// Fraction of detected ions in the heavy analyte's column region.
		heavyCol := cfg.TOF.BinOf(1501)
		lightCol := cfg.TOF.BinOf(201)
		var heavy, light float64
		for _, v := range frame.DriftVector(heavyCol) {
			heavy += v
		}
		for _, v := range frame.DriftVector(lightCol) {
			light += v
		}
		if light == 0 {
			t.Fatal("no light signal")
		}
		return heavy / light
	}
	gentle := composition(1e7)     // far below capacity
	saturated := composition(1e13) // trap overfilled every gap
	if saturated <= gentle*1.05 {
		t.Errorf("saturation should enrich high m/z: gentle ratio %g, saturated %g", gentle, saturated)
	}
}

func TestConfigValidateTDC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Detection = DetectionTDC
	cfg.TDC = TDC{}
	if err := cfg.Validate(); err == nil {
		t.Error("invalid TDC config should fail validation")
	}
	if DetectionADC.String() != "adc" || DetectionTDC.String() != "tdc" {
		t.Error("detection kind strings wrong")
	}
	if DetectionKind(9).String() == "" {
		t.Error("unknown detection kind should render")
	}
}

func TestRawRates(t *testing.T) {
	src := testSource(t, 1e7)
	inst, _ := New(testConfig(ModeMultiplexed), src)
	// 256 bins per 100 µs extraction = 2.56 Msamples/s.
	if got := inst.RawSampleRate(); math.Abs(got-2.56e6) > 1 {
		t.Errorf("sample rate %g", got)
	}
	if got := inst.RawByteRate(); math.Abs(got-2.56e6) > 1 {
		t.Errorf("byte rate %g", got)
	}
}

func TestNewInstrumentErrors(t *testing.T) {
	src := testSource(t, 1e7)
	bad := testConfig(ModeMultiplexed)
	bad.Frames = 0
	if _, err := New(bad, src); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := New(testConfig(ModeMultiplexed), nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := New(Config{SequenceOrder: 6, Oversample: 1, Mode: Mode(9), Gate: DefaultGate(), Tube: DefaultDriftTube(), TOF: DefaultTOF(), Detector: DefaultDetector(), ADC: DefaultADC(), Trap: DefaultTrapConfig(), BinWidthS: 4e-4, Frames: 1}, src); err == nil {
		t.Error("unknown mode should fail")
	}
}

func BenchmarkExpectedDetections(b *testing.B) {
	src := testSource(b, 1e7)
	inst, err := New(testConfig(ModeMultiplexedTrap), src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.ExpectedDetections(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcquire(b *testing.B) {
	src := testSource(b, 1e7)
	cfg := testConfig(ModeMultiplexed)
	cfg.Frames = 1
	inst, _ := New(cfg, src)
	rng := rand.New(rand.NewSource(80))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.Acquire(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSyntheticBackground(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	bg, err := SyntheticBackground(rng, 50, 10, 200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bg) != 50 {
		t.Fatalf("species %d", len(bg))
	}
	var total float64
	for _, a := range bg {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if a.MZ < 200 || a.MZ > 2000 {
			t.Errorf("background m/z %g out of range", a.MZ)
		}
		total += a.Abundance
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total abundance %g, want 10", total)
	}
	// Determinism.
	rng2 := rand.New(rand.NewSource(91))
	bg2, _ := SyntheticBackground(rng2, 50, 10, 200, 2000)
	for i := range bg {
		if bg[i].MZ != bg2[i].MZ {
			t.Fatal("background not deterministic")
		}
	}
	// Errors.
	if _, err := SyntheticBackground(rng, 0, 1, 200, 2000); err == nil {
		t.Error("zero species")
	}
	if _, err := SyntheticBackground(rng, 5, 0, 200, 2000); err == nil {
		t.Error("zero abundance")
	}
	if _, err := SyntheticBackground(rng, 5, 1, 2000, 200); err == nil {
		t.Error("inverted range")
	}
}

// TestBackgroundRaisesNoiseFloor: adding chemical background raises the
// measured noise in an otherwise clean column.
func TestBackgroundRaisesNoiseFloor(t *testing.T) {
	run := func(withBG bool) float64 {
		m := testMixture(t)
		if withBG {
			rng := rand.New(rand.NewSource(92))
			bg, err := SyntheticBackground(rng, 100, 5, 200, 1700)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range bg {
				if err := m.AddAnalyte(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		cfg := testConfig(ModeMultiplexed)
		src, err := NewESISource(m, 1e7)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := New(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := inst.Acquire(rand.New(rand.NewSource(93)))
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, v := range frame.Data {
			total += v
		}
		return total
	}
	clean := run(false)
	noisy := run(true)
	if noisy <= clean*1.02 {
		t.Errorf("background should add counts: clean %g, with background %g", clean, noisy)
	}
}

func TestWithIsotopes(t *testing.T) {
	p, _ := chem.NewPeptide("RPPGFSPFR")
	mz, _ := p.MZ(2)
	ccs, _ := p.CCS(2)
	a := Analyte{Name: "bk", MassDa: p.MonoisotopicMass(), Z: 2, MZ: mz, CCSM2: ccs, Abundance: 1}
	iso, err := a.WithIsotopes(p.Formula(), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(iso.Isotopes) < 3 {
		t.Fatalf("isotope peaks %d", len(iso.Isotopes))
	}
	if iso.Isotopes[0].OffsetMZ != 0 {
		t.Error("first isotope should sit at the monoisotopic m/z")
	}
	// Spacing ~1.003/z.
	spacing := iso.Isotopes[1].OffsetMZ - iso.Isotopes[0].OffsetMZ
	if math.Abs(spacing-1.003/2) > 0.01 {
		t.Errorf("isotope m/z spacing %g, want ~0.5015", spacing)
	}
	var sum float64
	for _, ip := range iso.Isotopes {
		sum += ip.Fraction
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("fractions sum %g", sum)
	}
	bad := a
	bad.Z = 0
	if _, err := bad.WithIsotopes(p.Formula(), 1e-4); err == nil {
		t.Error("zero charge should fail")
	}
}

// TestFrameCarriesIsotopeEnvelope: with a fine m/z axis and a 1+ analyte,
// the acquired frame shows the M+1 peak at the theoretical ratio.
func TestFrameCarriesIsotopeEnvelope(t *testing.T) {
	p, _ := chem.NewPeptide("RPPGFSPFR")
	mz, _ := p.MZ(1)
	ccs, _ := p.CCS(1)
	base := Analyte{Name: "bk", MassDa: p.MonoisotopicMass(), Z: 1, MZ: mz, CCSM2: ccs, Abundance: 1}
	a, err := base.WithIsotopes(p.Formula(), 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	var m Mixture
	if err := m.AddAnalyte(a); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(ModeSignalAveraging)
	cfg.TOF.Bins = 4096 // ~0.37 Th per bin: isotopes resolved at 1+
	src, _ := NewESISource(m, 1e8)
	inst, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := inst.ExpectedDetections(0)
	if err != nil {
		t.Fatal(err)
	}
	colSum := func(mzv float64) float64 {
		col := cfg.TOF.BinOf(mzv)
		var s float64
		for _, v := range frame.DriftVector(col) {
			s += v
		}
		return s
	}
	mono := colSum(mz)
	mPlus1 := colSum(mz + 1.0033)
	if mono <= 0 || mPlus1 <= 0 {
		t.Fatalf("isotope columns empty: %g %g", mono, mPlus1)
	}
	ratio := mPlus1 / mono
	// ~1060 Da peptide: M+1/M ≈ 0.58 theoretical; allow binning slop.
	if ratio < 0.35 || ratio > 0.85 {
		t.Errorf("M+1/M ratio %g, want ~0.58", ratio)
	}
}

func TestInstrumentAccessors(t *testing.T) {
	src := testSource(t, 1e6)
	cfg := testConfig(ModeMultiplexed)
	inst, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Config().SequenceOrder != cfg.SequenceOrder {
		t.Error("Config accessor wrong")
	}
	if len(inst.Sequence()) != cfg.DriftBins() {
		t.Error("Sequence accessor wrong")
	}
	if w := IdealWaveform(inst.Sequence()); len(w) != cfg.DriftBins() || w[0] != float64(inst.Sequence()[0]) {
		t.Error("IdealWaveform wrong")
	}
}

// TestModulationByMode: SA = impulse; beam MP = gate waveform; equalized
// trap ≈ uniform weights on the open bins.
func TestModulationByMode(t *testing.T) {
	src := testSource(t, 1e6)

	sa, _ := New(testConfig(ModeSignalAveraging), src)
	w := sa.Modulation()
	if w[0] <= 0 {
		t.Error("SA modulation should open at bin 0")
	}
	for b := 1; b < len(w); b++ {
		if w[b] != 0 {
			t.Fatalf("SA modulation open at bin %d", b)
		}
	}

	mp, _ := New(testConfig(ModeMultiplexed), src)
	wm := mp.Modulation()
	seq := mp.Sequence()
	for b := range wm {
		if (seq[b] == 1) != (wm[b] > 0.01) {
			t.Fatalf("beam modulation disagrees with sequence at bin %d", b)
		}
	}

	tr, _ := New(testConfig(ModeMultiplexedTrap), src)
	wt := tr.Modulation()
	seqT := tr.Sequence()
	// Equalized release: the open-bin weights should be nearly uniform
	// (ignoring the rise-depleted first bin of each run).
	var min, max float64 = 1e18, 0
	for b := range wt {
		if seqT[b] == 1 && seqT[(b+len(seqT)-1)%len(seqT)] == 1 { // not a run head
			if wt[b] < min {
				min = wt[b]
			}
			if wt[b] > max {
				max = wt[b]
			}
		}
	}
	if max/min > 1.3 {
		t.Errorf("equalized trap weights spread %g-%g (ratio %.2f), want near-uniform", min, max, max/min)
	}
	// Without equalization the spread follows the gap pattern: run-head
	// bins carry the whole preceding gap while interior bins carry one
	// bin's worth, so the all-open-bin spread is large.
	cfgU := testConfig(ModeMultiplexedTrap)
	cfgU.Trap.EqualizeRelease = false
	un, _ := New(cfgU, src)
	wu := un.Modulation()
	min, max = 1e18, 0
	for b := range wu {
		if seqT[b] == 1 {
			if wu[b] < min {
				min = wu[b]
			}
			if wu[b] > max {
				max = wu[b]
			}
		}
	}
	if max/min < 1.5 {
		t.Errorf("free-running trap weights ratio %.2f, want gap-structured spread", max/min)
	}
}

func TestTOFSpreadBroadPeak(t *testing.T) {
	tof := DefaultTOF()
	tof.ResolvingPower = 100 // force multi-bin peaks
	bins, weights := tof.Spread(1000)
	if len(bins) < 3 {
		t.Fatalf("broad peak covers %d bins", len(bins))
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum < 0.9 || sum > 1.1 {
		t.Errorf("broad spread weights sum %g", sum)
	}
	// Near the spectrum edge the spread truncates without panicking.
	edgeBins, _ := tof.Spread(tof.MaxMZ - 1)
	if len(edgeBins) == 0 {
		t.Error("edge peak should still land in range")
	}
	if got := tof.ExtractionsPer(1e-3); math.Abs(got-10) > 1e-9 {
		t.Errorf("extractions per ms %g, want 10", got)
	}
}

func TestValidateBranches(t *testing.T) {
	if err := (Detector{GainCounts: 0}).Validate(); err == nil {
		t.Error("zero gain")
	}
	if err := (Detector{GainCounts: 1, GainSpread: -1}).Validate(); err == nil {
		t.Error("negative spread")
	}
	tofCases := []func(*TOF){
		func(t *TOF) { t.FlightLengthM = 0 },
		func(t *TOF) { t.AccelVoltage = 0 },
		func(t *TOF) { t.ResolvingPower = 0 },
		func(t *TOF) { t.ExtractionPeriodS = 0 },
		func(t *TOF) { t.Bins = 0 },
	}
	for i, mut := range tofCases {
		tof := DefaultTOF()
		mut(&tof)
		if err := tof.Validate(); err == nil {
			t.Errorf("TOF case %d should fail", i)
		}
	}
	if err := (ADC{Bits: 30}).Validate(); err == nil {
		t.Error("over-wide ADC")
	}
	if err := (ADC{Bits: 8, ThresholdCnt: -1}).Validate(); err == nil {
		t.Error("negative threshold")
	}
}
