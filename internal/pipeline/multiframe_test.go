// multiframe_test.go: the cross-frame batched decode must be bit-identical
// to decoding each frame alone and to the scalar references, including when
// tiles straddle frame boundaries, on both the tile and per-column paths.
package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/prs"
)

// scalarOnly hides a decoder's blocked kernel so tests can force the
// per-column fallback path.
type scalarOnly struct{ hadamard.Decoder }

func multiframeFixture(t *testing.T, order int, widths []int) []FramePair {
	t.Helper()
	n := 1<<order - 1
	rng := rand.New(rand.NewSource(int64(len(widths))))
	pairs := make([]FramePair, len(widths))
	for i, w := range widths {
		src := instrument.NewFrame(n, w)
		for j := range src.Data {
			src.Data[j] = rng.NormFloat64() * 300
		}
		pairs[i] = FramePair{Dst: instrument.NewFrame(n, w), Src: src}
	}
	return pairs
}

// TestDeconvolveFramesMatchesSingle pins the concatenated-column batch
// against per-frame DeconvolveFrame, bit for bit, across width mixes where
// tiles span two and three frames, for 1 and 2 workers, on both decoder
// paths.
func TestDeconvolveFramesMatchesSingle(t *testing.T) {
	const order = 5
	factories := map[string]DecoderFactory{
		"batch": func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) },
		"scalar-fallback": func() (hadamard.Decoder, error) {
			d, err := hadamard.NewFHTDecoder(order)
			if err != nil {
				return nil, err
			}
			return scalarOnly{d}, nil
		},
	}
	for name, factory := range factories {
		for _, widths := range [][]int{
			{40},             // single frame, tail block
			{5, 16, 7},       // every tile spans a boundary
			{3, 3, 3, 3, 3},  // frames narrower than one tile
			{16, 32},         // aligned boundaries
			{1, 47, 2, 1, 9}, // ragged mix
		} {
			for _, workers := range []int{1, 2} {
				pairs := multiframeFixture(t, order, widths)
				if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, workers, nil); err != nil {
					t.Fatalf("%s widths %v workers %d: %v", name, widths, workers, err)
				}
				for i, p := range pairs {
					want, err := DeconvolveFrame(p.Src, factory, 1)
					if err != nil {
						t.Fatal(err)
					}
					for j, v := range p.Dst.Data {
						if v != want.Data[j] {
							t.Fatalf("%s widths %v workers %d frame %d cell %d: batch %v != single %v",
								name, widths, workers, i, j, v, want.Data[j])
						}
					}
				}
			}
		}
	}
}

// TestDeconvolveFramesValidation exercises the geometry and input guards.
func TestDeconvolveFramesValidation(t *testing.T) {
	const order = 5
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	ctx := context.Background()
	if err := DeconvolveFramesIntoContext(ctx, nil, factory, 1, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
	n := 1<<order - 1
	good := FramePair{Dst: instrument.NewFrame(n, 4), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good}, nil, 1, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: good.Src}}, factory, 1, nil); err == nil {
		t.Error("nil dst without a profile accepted")
	}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: good.Src, Profile: make([]float64, n)}}, factory, 1, nil); err != nil {
		t.Errorf("profile-only pair rejected: %v", err)
	}
	for _, l := range []int{0, n - 1, n + 1} {
		if err := DeconvolveFramesIntoContext(ctx, []FramePair{{Src: good.Src, Profile: make([]float64, l)}}, factory, 1, nil); err == nil {
			t.Errorf("profile of length %d accepted for %d drift bins", l, n)
		}
	}
	mismatched := FramePair{Dst: instrument.NewFrame(n, 5), Src: instrument.NewFrame(n, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{mismatched}, factory, 1, nil); err == nil {
		t.Error("geometry mismatch accepted")
	}
	other := FramePair{Dst: instrument.NewFrame(2*n+1, 4), Src: instrument.NewFrame(2*n+1, 4)}
	if err := DeconvolveFramesIntoContext(ctx, []FramePair{good, other}, factory, 1, nil); err == nil {
		t.Error("mixed drift-bin batch accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := DeconvolveFramesIntoContext(cancelled, []FramePair{good}, factory, 1, nil); err == nil {
		t.Error("cancelled context not surfaced")
	}
}

// TestTilePathBitExactMatrix pins the staging-free tile path against
// references that share none of it: every output column must equal the
// scalar FHTDecoder.DecodeTo bit for bit on arbitrary floats, and — on
// integral counts, where both inverses are exact — StandardDecoder's
// O(N²) DecodeNaive.  The matrix is TOF widths around the tile width ×
// 1–4 workers × solo, two-frame and three-frame batches (tiles straddle
// the boundaries whenever a width is not a multiple of 16), plus
// DecodeBatch on a gathered tile and a caller-owned decoder set reused
// across every call.
//
// The reducing mode rides the same matrix.  With Dst and Profile both set
// the Dst must still pass the column check (so it is what store-only mode
// writes) and the Profile must be the Dst's DriftProfile(): bit for bit on
// integral counts, within the documented association bound on arbitrary
// floats.  Profile-only mode must return the same bits as Dst+Profile
// mode, and for one (frames, batch) the bits must not depend on the
// number of decoders.
func TestTilePathBitExactMatrix(t *testing.T) {
	const order = 6
	n := 1<<order - 1
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	scalar, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := hadamard.NewStandardDecoder(prs.MustMSequence(order))
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewFrameDecoders(factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	newFrame := func(w int, integral bool) *instrument.Frame {
		f := instrument.NewFrame(n, w)
		for i := range f.Data {
			if integral {
				f.Data[i] = float64(rng.Intn(4096))
			} else {
				f.Data[i] = rng.NormFloat64() * 300
			}
		}
		return f
	}
	// check compares dst's columns with the reference decode of src's.
	col, want := make([]float64, n), make([]float64, n)
	check := func(label string, dst, src *instrument.Frame, integral bool) {
		t.Helper()
		for c := 0; c < src.TOFBins; c++ {
			src.DriftVectorInto(c, col)
			if err := scalar.DecodeTo(want, col); err != nil {
				t.Fatal(err)
			}
			var exact []float64
			if integral {
				if exact, err = naive.DecodeNaive(col); err != nil {
					t.Fatal(err)
				}
			}
			for d := 0; d < n; d++ {
				got := dst.At(d, c)
				if math.Float64bits(got) != math.Float64bits(want[d]) {
					t.Fatalf("%s: column %d row %d = %v, scalar DecodeTo %v", label, c, d, got, want[d])
				}
				if integral && got != exact[d] {
					t.Fatalf("%s: column %d row %d = %v, DecodeNaive %v", label, c, d, got, exact[d])
				}
			}
		}
	}
	// checkProfile compares a reduced profile with DriftProfile() of the
	// stored decode of the same frame.
	checkProfile := func(label string, profile []float64, dst *instrument.Frame, integral bool) {
		t.Helper()
		want := dst.DriftProfile()
		for d, got := range profile {
			if integral {
				if math.Float64bits(got) != math.Float64bits(want[d]) {
					t.Fatalf("%s: profile[%d] = %v, DriftProfile() %v", label, d, got, want[d])
				}
			} else if bound := profileBound(dst, d); math.Abs(got-want[d]) > bound {
				t.Fatalf("%s: profile[%d] = %v, DriftProfile() %v: off by more than %g", label, d, got, want[d], bound)
			}
		}
	}
	ctx := context.Background()
	for _, w := range []int{1, 15, 16, 17, 64, 250, 256} {
		for _, integral := range []bool{false, true} {
			frames := []*instrument.Frame{newFrame(w, integral), newFrame(17, integral), newFrame(w, integral)}
			var firstProfiles [4][][]float64 // by batch size: the profiles the first decoder-set size produced
			for workers := 1; workers <= 4; workers++ {
				for batch := 1; batch <= 3; batch++ {
					label := fmt.Sprintf("width %d integral %v workers %d batch %d", w, integral, workers, batch)
					pairs := make([]FramePair, batch)
					for i := range pairs {
						pairs[i] = FramePair{Dst: instrument.NewFrame(n, frames[i].TOFBins), Src: frames[i]}
					}
					if batch == 1 {
						err = DeconvolveFrameIntoContext(ctx, pairs[0].Dst, pairs[0].Src, factory, workers, nil)
					} else {
						err = DeconvolveFramesIntoContext(ctx, pairs, factory, workers, nil)
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for _, p := range pairs {
						check(label, p.Dst, p.Src, integral)
						clear(p.Dst.Data)
					}
					// Dst and Profile from one transform, through the reused set.
					for i := range pairs {
						pairs[i].Profile = make([]float64, n)
						pairs[i].Profile[0] = math.NaN() // must be overwritten, not added to
					}
					if err := DeconvolveFramesWith(ctx, pairs, reused[:workers], nil); err != nil {
						t.Fatalf("%s (reused decoders): %v", label, err)
					}
					var profiles [][]float64
					for _, p := range pairs {
						check(label+" (reused decoders)", p.Dst, p.Src, integral)
						checkProfile(label, p.Profile, p.Dst, integral)
						profiles = append(profiles, p.Profile)
					}
					// Profile alone: the same bits, and no Dst to write.
					only := make([]FramePair, batch)
					for i := range only {
						only[i] = FramePair{Src: frames[i], Profile: make([]float64, n)}
					}
					if err := DeconvolveFramesWith(ctx, only, reused[:workers], nil); err != nil {
						t.Fatalf("%s (profile only): %v", label, err)
					}
					if firstProfiles[batch] == nil {
						firstProfiles[batch] = profiles
					}
					for i := range only {
						for d := range only[i].Profile {
							got := math.Float64bits(only[i].Profile[d])
							if got != math.Float64bits(profiles[i][d]) {
								t.Fatalf("%s: frame %d profile[%d] differs between profile-only and dst+profile mode", label, i, d)
							}
							if got != math.Float64bits(firstProfiles[batch][i][d]) {
								t.Fatalf("%s: frame %d profile[%d] differs from the one-decoder run", label, i, d)
							}
						}
					}
				}
			}
			// DecodeBatch over a gathered tile is the same three steps.
			lanes := min(w, DefaultBlockColumns)
			in, out := hadamard.NewColumnBlock(n, lanes), hadamard.NewColumnBlock(n, lanes)
			frames[0].GatherColumns(0, lanes, in.Data)
			if err := scalar.DecodeBatch(out, in); err != nil {
				t.Fatal(err)
			}
			got := instrument.NewFrame(n, lanes)
			got.ScatterColumns(0, lanes, out.Data)
			head := instrument.NewFrame(n, lanes)
			head.ScatterColumns(0, lanes, in.Data)
			check(fmt.Sprintf("DecodeBatch width %d integral %v", w, integral), got, head, integral)
		}
	}
}

// TestColumnPathMatchesDecodeTo covers the decoders without the tile steps
// (here the FFT-based StandardDecoder): columns go one by one through
// DecodeTo, across frame boundaries, and equal a direct DecodeTo exactly.
func TestColumnPathMatchesDecodeTo(t *testing.T) {
	const order = 5
	n := 1<<order - 1
	seq := prs.MustMSequence(order)
	factory := func() (hadamard.Decoder, error) { return hadamard.NewStandardDecoder(seq) }
	ref, err := hadamard.NewStandardDecoder(seq)
	if err != nil {
		t.Fatal(err)
	}
	pairs := multiframeFixture(t, order, []int{5, 16, 7})
	for i := range pairs {
		pairs[i].Profile = make([]float64, n)
	}
	if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, 2, nil); err != nil {
		t.Fatal(err)
	}
	col, want := make([]float64, n), make([]float64, n)
	for i, p := range pairs {
		for c := 0; c < p.Src.TOFBins; c++ {
			p.Src.DriftVectorInto(c, col)
			if err := ref.DecodeTo(want, col); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < n; d++ {
				if got := p.Dst.At(d, c); got != want[d] {
					t.Fatalf("frame %d column %d row %d: pipeline %v != DecodeTo %v", i, c, d, got, want[d])
				}
			}
		}
	}
	// The reducing mode on the column path: each decoded column is added
	// to its segment's slot, so the profile is DriftProfile() up to the
	// association, and Profile-only mode with one worker returns the bits
	// that Dst+Profile mode with two did.
	only := make([]FramePair, len(pairs))
	for i, p := range pairs {
		only[i] = FramePair{Src: p.Src, Profile: make([]float64, n)}
	}
	if err := DeconvolveFramesIntoContext(context.Background(), only, factory, 1, nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		sums := p.Dst.DriftProfile()
		for d, got := range p.Profile {
			if bound := profileBound(p.Dst, d); math.Abs(got-sums[d]) > bound {
				t.Fatalf("frame %d profile[%d] = %v, DriftProfile() %v: off by more than %g", i, d, got, sums[d], bound)
			}
			if math.Float64bits(got) != math.Float64bits(only[i].Profile[d]) {
				t.Fatalf("frame %d profile[%d]: %v with a Dst and two workers, %v alone with one", i, d, got, only[i].Profile[d])
			}
		}
	}
}

// TestDeconvolveFramesWithValidation: the caller-owned-decoder entry point
// rejects an empty or mismatched decoder set.
func TestDeconvolveFramesWithValidation(t *testing.T) {
	pairs := multiframeFixture(t, 5, []int{4})
	if err := DeconvolveFramesWith(context.Background(), pairs, nil, nil); err == nil {
		t.Error("empty decoder set accepted")
	}
	fd, err := NewFrameDecoder(func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(6) }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := DeconvolveFramesWith(context.Background(), pairs, []*FrameDecoder{fd}, nil); err == nil {
		t.Error("decoder of the wrong length accepted")
	}
}

// profileBound is the documented bound on how far a reduced profile may sit
// from DriftProfile() of the same decoded frame when its cells are not
// exactly summable: the two sum the same TOFBins cells in different
// associations, so |Δ| <= TOFBins · ε · Σ_t |x[d][t]|.
func profileBound(decoded *instrument.Frame, d int) float64 {
	var abs float64
	for t := 0; t < decoded.TOFBins; t++ {
		abs += math.Abs(decoded.At(d, t))
	}
	return float64(decoded.TOFBins) * 0x1p-52 * abs
}

// TestProfileHeadroomEdge puts integral cells just under and just over the
// exactness headroom TOFBins · 2^order · max|cell| < 2^53.  Under it every
// butterfly word and partial row sum is exactly representable, so the
// profile equals DriftProfile() bit for bit under any tiling — solo, and
// behind a 5-column frame that shifts every tile boundary.  Over it the
// sums round, and the profile stays within the association bound.  Two
// more frames are counts on the integer tile step's edge: max|cell| at
// the largest bound whose Len()·bound fits int32, where full tiles
// decode in int32, and one past it, where they decode in int64 — exact
// both ways.  In every case a Profile-only decode (the integer step's
// mode, of counts wherever the cells fit int32) returns the bits of the
// Dst+Profile decode of float cells (the float steps').
func TestProfileHeadroomEdge(t *testing.T) {
	const order, width = 5, 40
	n := 1<<order - 1
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	limit := int64(1) << 53 / (width << order)
	edge := int64(math.MaxInt32) / int64(n)
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		name  string
		max   int64
		exact bool
	}{{"under", limit, true}, {"over", 8 * limit, false}, {"int32 edge", edge + 1, true}, {"past the int32 edge", edge + 2, true}} {
		src := instrument.NewFrame(n, width)
		for i := range src.Data {
			src.Data[i] = float64(rng.Int63n(tc.max-1) | 1) // odd: every mantissa bit in play
		}
		src.Data[0] = float64(tc.max - 1)
		var counts *instrument.Counts
		if tc.max-1 <= math.MaxInt32 {
			counts = instrument.NewCounts(n, width)
			for i, v := range src.Data {
				counts.Data[i] = int32(v)
			}
			counts.Bound = tc.max - 1
		}
		lead := instrument.NewFrame(n, 5)
		var profiles [][]float64
		for _, shifted := range []bool{false, true} {
			for workers := 1; workers <= 3; workers++ {
				pair := FramePair{Dst: instrument.NewFrame(n, width), Src: src, Profile: make([]float64, n)}
				pairs := []FramePair{pair}
				if shifted {
					pairs = []FramePair{{Src: lead, Profile: make([]float64, n)}, pair}
				}
				if err := DeconvolveFramesIntoContext(context.Background(), pairs, factory, workers, nil); err != nil {
					t.Fatal(err)
				}
				want := pair.Dst.DriftProfile()
				for d, got := range pair.Profile {
					if tc.exact && math.Float64bits(got) != math.Float64bits(want[d]) {
						t.Fatalf("%s shifted %v workers %d: profile[%d] = %v, DriftProfile() %v", tc.name, shifted, workers, d, got, want[d])
					}
					if bound := profileBound(pair.Dst, d); math.Abs(got-want[d]) > bound {
						t.Fatalf("%s shifted %v workers %d: profile[%d] = %v, DriftProfile() %v: off by more than %g", tc.name, shifted, workers, d, got, want[d], bound)
					}
				}
				only := make([]FramePair, len(pairs))
				for i, p := range pairs {
					only[i] = FramePair{Src: p.Src, Profile: make([]float64, n)}
					if p.Src == src && counts != nil {
						only[i].Src, only[i].Counts = nil, counts
					}
				}
				if err := DeconvolveFramesIntoContext(context.Background(), only, factory, workers, nil); err != nil {
					t.Fatal(err)
				}
				for d, got := range only[len(only)-1].Profile {
					if math.Float64bits(got) != math.Float64bits(pair.Profile[d]) {
						t.Fatalf("%s shifted %v workers %d: Profile-only profile[%d] = %v, with a Dst %v", tc.name, shifted, workers, d, got, pair.Profile[d])
					}
				}
				profiles = append(profiles, pair.Profile)
			}
		}
		// Over the headroom the tilings may disagree — but only there.
		differ := false
		for _, p := range profiles[1:] {
			for d := range p {
				differ = differ || p[d] != profiles[0][d]
			}
		}
		if tc.exact && differ {
			t.Errorf("%s: profiles differ between tilings", tc.name)
		}
	}
}

// TestProfileDeterministic: on arbitrary floats a frame's profile is a
// function of the frames and the batch alone — 20 runs through four
// racing decoders return the same bits as one decoder.
func TestProfileDeterministic(t *testing.T) {
	const order = 6
	n := 1<<order - 1
	factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
	srcs := multiframeFixture(t, order, []int{250, 17, 64})
	run := func(decoders []*FrameDecoder) [][]float64 {
		pairs := make([]FramePair, len(srcs))
		for i, p := range srcs {
			pairs[i] = FramePair{Src: p.Src, Profile: make([]float64, n)}
		}
		if err := DeconvolveFramesWith(context.Background(), pairs, decoders, nil); err != nil {
			t.Fatal(err)
		}
		out := make([][]float64, len(pairs))
		for i, p := range pairs {
			out[i] = p.Profile
		}
		return out
	}
	set, err := NewFrameDecoders(factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := run(set[:1])
	for rep := 0; rep < 20; rep++ {
		for i, profile := range run(set) {
			for d, v := range profile {
				if math.Float64bits(v) != math.Float64bits(want[i][d]) {
					t.Fatalf("run %d frame %d profile[%d] = %v, one-decoder run %v", rep, i, d, v, want[i][d])
				}
			}
		}
	}
}

// TestProfileModeAllocs is the reducing mode's allocation gate: through a
// warm caller-owned decoder set, a Profile-only decode allocates no more
// than the same decode in store mode — the slots and row sums are decoder
// scratch, so only the call's own bookkeeping (spans, error slots) remains.
func TestProfileModeAllocs(t *testing.T) {
	const order = 9
	n := 1<<order - 1
	set, err := NewFrameDecoders(func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := multiframeFixture(t, order, []int{64, 40})
	store := []FramePair{src[0], src[1]}
	profile := []FramePair{{Src: src[0].Src, Profile: make([]float64, n)}, {Src: src[1].Src, Profile: make([]float64, n)}}
	ctx := context.Background()
	measure := func(pairs []FramePair) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := DeconvolveFramesWith(ctx, pairs, set, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	measure(profile) // warm the slots
	storeAllocs, profileAllocs := measure(store), measure(profile)
	t.Logf("allocations per call: store mode %.0f, profile mode %.0f", storeAllocs, profileAllocs)
	if profileAllocs > storeAllocs {
		t.Errorf("profile mode allocates %.0f objects per call, store mode %.0f", profileAllocs, storeAllocs)
	}
}

// FuzzTileProfileIntMatchesFloat pins the integer tile step to the float
// steps inside the served decode.  A Profile-only decode of counts frames
// — where a full 16-column tile inside one frame takes the integer step —
// must return, bit for bit, the profiles a decode of the same cells as
// float frames with a Dst (the float steps on every tile) returns, for one
// and for two decoders.  The fuzzer picks one or two frames of any width
// up to 64 (so tiles span two frames, or are narrow) of integral counts,
// a bound that is exact or loose, and a column whose L1 = Σ|cell| sits at
// 2^31 − 1 or 2^31 (a bound past the int32 network's); it sprinkles
// fractional, NaN, ±Inf and −0 cells, which keep a frame float (−0, an
// integer, makes a counts 0), so a batch can mix counts and float frames.
func FuzzTileProfileIntMatchesFloat(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(39), uint8(23), uint8(0), uint8(1))  // L1 = 2^31 − 1
	f.Add(int64(3), uint8(39), uint8(23), uint8(0), uint8(2))  // L1 = 2^31
	f.Add(int64(4), uint8(15), uint8(15), uint8(15), uint8(0)) // every special
	f.Add(int64(5), uint8(6), uint8(29), uint8(8), uint8(1))   // −0, tiles across the frame boundary
	f.Add(int64(6), uint8(63), uint8(63), uint8(2), uint8(0))  // one NaN: a mixed batch
	f.Fuzz(func(t *testing.T, seed int64, widthA, widthB, specials, edge uint8) {
		const order = 6
		n := 1<<order - 1
		rng := rand.New(rand.NewSource(seed))
		frames := []*instrument.Frame{instrument.NewFrame(n, 1+int(widthA)%64)}
		if widthB != 0 {
			frames = append(frames, instrument.NewFrame(n, 1+int(widthB)%64))
		}
		for _, fr := range frames {
			for i := range fr.Data {
				fr.Data[i] = float64(rng.Intn(1<<12) - 1<<11)
			}
		}
		cell := func() *float64 {
			fr := frames[rng.Intn(len(frames))]
			return &fr.Data[rng.Intn(len(fr.Data))]
		}
		if specials&1 != 0 {
			*cell() += 0.5
		}
		if specials&2 != 0 {
			*cell() = math.NaN()
		}
		if specials&4 != 0 {
			*cell() = math.Inf(1 - 2*rng.Intn(2))
		}
		if specials&8 != 0 {
			for k := 0; k < 8; k++ {
				*cell() = math.Copysign(0, -1)
			}
		}
		if e := int(edge % 3); e != 0 {
			fr := frames[rng.Intn(len(frames))]
			c := rng.Intn(fr.TOFBins)
			for d := 0; d < n; d++ {
				fr.Data[d*fr.TOFBins+c] = 0
			}
			a := rng.Intn(n)
			fr.Data[a*fr.TOFBins+c] = 1 << 30
			fr.Data[(a+1+rng.Intn(n-1))%n*fr.TOFBins+c] = -float64(1<<30 - 2 + e) // L1 = 2^31 − 2 + e
		}
		loose := edge&4 != 0
		counts := make([]*instrument.Counts, len(frames))
		for i, fr := range frames {
			c := instrument.NewCounts(n, fr.TOFBins)
			for j, v := range fr.Data {
				c.Data[j] = int32(v)
				if float64(c.Data[j]) != v {
					c = nil // stays a float frame
					break
				}
				c.Bound = max(c.Bound, int64(math.Abs(v)))
			}
			if c != nil && loose {
				c.Bound = math.MaxInt32
			}
			counts[i] = c
		}
		factory := func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }
		set, err := NewFrameDecoders(factory, 2)
		if err != nil {
			t.Fatal(err)
		}
		run := func(withDst bool, decoders []*FrameDecoder) []FramePair {
			pairs := make([]FramePair, len(frames))
			for i, fr := range frames {
				pairs[i] = FramePair{Src: fr, Profile: make([]float64, n)}
				if withDst {
					pairs[i].Dst = instrument.NewFrame(n, fr.TOFBins)
				} else if counts[i] != nil {
					pairs[i].Src, pairs[i].Counts = nil, counts[i]
				}
			}
			if err := DeconvolveFramesWith(context.Background(), pairs, decoders, nil); err != nil {
				t.Fatal(err)
			}
			return pairs
		}
		want := run(true, set[:1])
		for workers := 1; workers <= 2; workers++ {
			for i, p := range run(false, set[:workers]) {
				for d, got := range p.Profile {
					if math.Float64bits(got) != math.Float64bits(want[i].Profile[d]) {
						t.Fatalf("workers %d frame %d (counts %v): profile[%d] = %v (bits %x), float steps %v (bits %x)",
							workers, i, counts[i] != nil, d, got, math.Float64bits(got), want[i].Profile[d], math.Float64bits(want[i].Profile[d]))
					}
				}
			}
		}
	})
}
