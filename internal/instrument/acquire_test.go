package instrument

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/chem"
)

// benchMixture is the four-analyte mixture the ingest benchmark serves
// (bench/frames.go): bradykinin 2+ and 1+, angiotensin I 2+ and
// fibrinopeptide A 2+.
func benchMixture(t testing.TB) Mixture {
	t.Helper()
	var m Mixture
	for _, def := range []struct {
		name, seq string
		z         int
		abundance float64
	}{
		{"bradykinin", "RPPGFSPFR", 2, 1.0},
		{"angiotensin I", "DRVYIHPFHL", 2, 0.7},
		{"fibrinopeptide A", "ADSGEGDFLAEGGGVR", 2, 0.5},
		{"bradykinin", "RPPGFSPFR", 1, 0.45},
	} {
		p, err := chem.NewPeptide(def.seq)
		if err != nil {
			t.Fatal(err)
		}
		states, err := AnalytesFromPeptide(def.name, p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range states {
			if a.Z == def.z {
				a.Abundance = def.abundance
				if err := m.AddAnalyte(a); err != nil {
					t.Fatal(err)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("%s has no %d+ charge state", def.name, def.z)
		}
	}
	return m
}

// benchInstrument builds the benchmark's instrument (order 9, multiplexed
// with trap, 10 cycles, 5e6 charges/s) at tofBins columns, after edit has
// adjusted the configuration.
func benchInstrument(t testing.TB, tofBins int, edit func(*Config)) *Instrument {
	t.Helper()
	src, err := NewESISource(benchMixture(t), 5e6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TOF.Bins = tofBins
	if edit != nil {
		edit(&cfg)
	}
	inst, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// frameDigest hashes a frame's geometry and cell bits and every field of
// its RunStats (by reflection, so a field added later is covered too).
func frameDigest(t testing.TB, f *Frame, s RunStats) string {
	t.Helper()
	h := sha256.New()
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(f.DriftBins))
	put(uint64(f.TOFBins))
	for _, v := range f.Data {
		put(math.Float64bits(v))
	}
	sv := reflect.ValueOf(s)
	for i := 0; i < sv.NumField(); i++ {
		switch fv := sv.Field(i); fv.Kind() {
		case reflect.Float64:
			put(math.Float64bits(fv.Float()))
		case reflect.Int:
			put(uint64(fv.Int()))
		default:
			t.Fatalf("RunStats.%s: kind %v not hashed", sv.Type().Field(i).Name, fv.Kind())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAcquireGolden pins the simulator's output bit for bit: each case
// acquires two frames in a row from one seed (so the second digest also
// pins how many numbers the first drew) and compares the SHA-256 of each
// frame and its RunStats with a digest recorded before the simulator's
// expected-detection map, drift convolution and digitizer were
// restructured.  The cases cover the benchmark's served geometry at two
// widths and two seeds, TDC detection, an ADC threshold, several
// extractions per bin sampled exactly, and the normal approximation above
// ExactSamplingCutoff for both digitizers.
func TestAcquireGolden(t *testing.T) {
	cases := []struct {
		name    string
		tofBins int
		seed    int64
		edit    func(*Config)
		want    [2]string
	}{
		{name: "served/256/seed2007", tofBins: 256, seed: 2007, want: [2]string{
			"aefd34512713f3823069f648067f7e0cc9157a4955336ec86b26c62b6f57cbff",
			"508c791d051354381886c30fb40acb433c5e3b21a23b9bcc261900deff02fca2",
		}},
		{name: "served/256/seed7", tofBins: 256, seed: 7, want: [2]string{
			"2537fbefb4c53aa4b001548c2f82f02a62a9861c93051476d42861bfd866d407",
			"0fef0b6f799273cf73f8967c287bac1447ce1e11576ba5a87382862ca1aa318e",
		}},
		{name: "served/64/seed2007", tofBins: 64, seed: 2007, want: [2]string{
			"98446cb36acac983a88fd9ec21df16e138d3d810e5bd6190341df5d0578dee10",
			"76b39e89be63ba39943062f98f77b224ad97e2a3e4ea3419b6e976858a6acbd4",
		}},
		{name: "served/64/seed7", tofBins: 64, seed: 7, want: [2]string{
			"7f067b51b57c63a31c89f1b44bf5a01f9ac2427e3ca80331baffec1a1e0c7817",
			"2f2d726a184cf423cfdc70f97d631c5f0d65e8970ebbf720ea42b4816c8a82a9",
		}},
		{name: "tdc/exact", tofBins: 64, seed: 11, edit: func(c *Config) {
			c.Mode = ModeMultiplexed
			c.Detection = DetectionTDC
			c.TDC = TDC{MaxEventsPerBin: 2}
			c.BinWidthS = 2e-4 // two extractions per bin
		}, want: [2]string{
			"90547977169143de1909011319dd56030a695a16ec83948ca813f993b937150a",
			"b77c27016dcc14dede06341b954f7eef4f9f007b69bcf93d75efca134184ba9b",
		}},
		{name: "tdc/approx", tofBins: 64, seed: 11, edit: func(c *Config) {
			c.Detection = DetectionTDC
			c.BinWidthS = 4e-4
			c.ExactSamplingCutoff = 2 // four extractions per bin, above the cutoff
		}, want: [2]string{
			"d5f2e1e746caa18f4234bab7ef063a0b418ca09d453387e5da1be165ec3cfbac",
			"fe02b3232b762b94b5363ef9e3ef60e92d75bb7862a0054679d1ab78ffe27a3a",
		}},
		{name: "adc/threshold", tofBins: 64, seed: 13, edit: func(c *Config) {
			c.Mode = ModeSignalAveraging
			c.ADC.ThresholdCnt = 2.5
			c.Detector.GainSpread = 0
		}, want: [2]string{
			"0ae534dda115faf3625c5421d69984954b3df87186a76bebee47352657620f6e",
			"31244cd1f6dfc78be4dbc522bd8a07532318c13d1df2588b73455995cf327c44",
		}},
		{name: "adc/exact4", tofBins: 64, seed: 17, edit: func(c *Config) {
			c.BinWidthS = 4e-4 // four extractions per bin, sampled one by one
		}, want: [2]string{
			"c39778628520b8757bff23026320e1e2e2a8a507971c00cb0b873a0a4119e0ff",
			"7d4051bf6f131fc3638792a8262778bbbe891dd0119308ecd1649f014aeba451",
		}},
		{name: "adc/approx", tofBins: 64, seed: 19, edit: func(c *Config) {
			c.BinWidthS = 4e-4
			c.ExactSamplingCutoff = 2
		}, want: [2]string{
			"41435759c1c8b4d4a3037da1604eccb478afac3da5d28f54c937443dd34e8f3b",
			"14c447153ce72d802f44cefb01bb23312dbe490a73363471a669bafb58fadef5",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst := benchInstrument(t, tc.tofBins, tc.edit)
			rng := rand.New(rand.NewSource(tc.seed))
			for i, want := range tc.want {
				f, s, err := inst.Acquire(rng)
				if err != nil {
					t.Fatal(err)
				}
				if got := frameDigest(t, f, s); got != want {
					t.Errorf("frame %d: digest %s, want %s", i, got, want)
				}
			}
		})
	}
	t.Run("expected", func(t *testing.T) {
		inst := benchInstrument(t, 256, nil)
		f, s, err := inst.ExpectedDetections(0)
		if err != nil {
			t.Fatal(err)
		}
		const want = "09af04da2a27304e4c3432645a32a2db8475be8a86b3639046a17a51da9ae1c9"
		if got := frameDigest(t, f, s); got != want {
			t.Errorf("ExpectedDetections(0): digest %s, want %s", got, want)
		}
	})
}

// TestClipRoundMatchesMathRound holds the digitizer's branch-free
// clip-and-round to clip(math.Round(v), 0, fs) bit for bit — the sign of
// a rounded −0 and a NaN's payload included — at every edge the
// truncation trick could miss, then on random values.
func TestClipRoundMatchesMathRound(t *testing.T) {
	ref := func(v, fs float64) float64 {
		v = math.Round(v)
		if v < 0 {
			v = 0
		}
		if v > fs {
			v = fs
		}
		return v
	}
	check := func(v, fs float64) {
		t.Helper()
		if got, want := clipRound(v, fs), ref(v, fs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("clipRound(%v [%#x], %v) = %v [%#x], want %v [%#x]",
				v, math.Float64bits(v), fs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	down := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for _, bits := range []int{1, 8, 12, 24} {
		fs := ADC{Bits: bits}.FullScale()
		for _, v := range []float64{
			0, math.Copysign(0, -1), -0.3, 0.3, down(0.5), 0.5, up(0.5), -0.5, down(-0.5), up(-0.5),
			-1.5, down(-1.5), -1e300, math.Inf(-1), math.Inf(1), math.NaN(), -math.NaN(),
			fs, down(fs), up(fs), fs - 0.5, down(fs - 0.5), up(fs - 0.5), fs + 0.5, down(fs + 0.5), up(fs + 0.5),
			0x1p52, 0x1p63, 0x1p64, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		} {
			check(v, fs)
		}
		for k := 0.0; k <= min(fs, 4096); k++ {
			for _, v := range []float64{k, down(k), up(k), k + 0.5, down(k + 0.5), up(k + 0.5), -k, -k - 0.5, down(-k - 0.5)} {
				check(v, fs)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		fs := ADC{Bits: 1 + rng.Intn(24)}.FullScale()
		check(math.Float64frombits(rng.Uint64()), fs)
		check(1+rng.NormFloat64()*1.2*float64(1+rng.Intn(1000)), fs)
	}
}

// TestAcquireAllocs bounds what one Acquire allocates at the served
// geometry: the output frame, one expected-detection map and one cycle
// scratch (a drift-bin row per analyte plus the kernel and the profile),
// all made once per acquisition, and at most 16 KiB and 40 objects besides
// (page rounding, the trap, slices grown on first use: about 5 KiB and 21
// objects in all, measured with the four-analyte mixture).  Nothing is
// allocated per cycle: 10 cycles of a per-bin rate slice cost 5,110
// objects, a map allocated per cycle 2 KiB per drift bin.  The figures
// are the mean of four Acquires, and the slack is about three times what
// was measured, so that what the runtime allocates meanwhile (a few KiB,
// now and then, more under -race and load) cannot fail it.
func TestAcquireAllocs(t *testing.T) {
	inst := benchInstrument(t, 256, nil)
	cfg := inst.Config()
	rng := rand.New(rand.NewSource(2007))
	if _, _, err := inst.Acquire(rng); err != nil {
		t.Fatal(err)
	}
	mapBytes := uint64(8 * cfg.DriftBins() * cfg.TOF.Bins)
	scratchBytes := uint64(8 * cfg.DriftBins() * (len(inst.source.Mixture.Analytes) + 2))
	budget := 2*mapBytes + scratchBytes + 16<<10
	const maxObjects, runs = 40, 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, _, err := inst.Acquire(rng); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got, objects := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	t.Logf("Acquire allocates %d B in %d objects (maps %d B each, scratch %d B, budget %d B)",
		got, objects, mapBytes, scratchBytes, budget)
	if got > budget || objects > maxObjects {
		t.Errorf("Acquire allocates %d B in %d objects, budget is %d B (two %d B frame maps, a %d B scratch and 16 KiB) in %d",
			got, objects, budget, mapBytes, scratchBytes, maxObjects)
	}
}
