// pool_test.go: FramePool recycling semantics and the block accessors
// that feed the batched decode path.
package instrument

import (
	"math/rand"
	"testing"
)

// TestFramePoolGetReshapesReusedFrames pins the pool's contract: a reused
// frame comes back with the requested geometry over the same backing array
// and whatever cells its last owner left — Get does not pay to zero memory
// its callers overwrite anyway.
func TestFramePoolGetReshapesReusedFrames(t *testing.T) {
	var p FramePool
	f := p.Get(4, 8)
	if f.DriftBins != 4 || f.TOFBins != 8 || len(f.Data) != 32 {
		t.Fatalf("bad geometry %d×%d len %d", f.DriftBins, f.TOFBins, len(f.Data))
	}
	for i := range f.Data {
		f.Data[i] = float64(i + 1)
	}
	p.Put(f)
	g := p.Get(2, 8) // smaller: reuses the capacity when the pool hands f back
	if g.DriftBins != 2 || g.TOFBins != 8 || len(g.Data) != 16 {
		t.Fatalf("bad reshaped geometry %d×%d len %d", g.DriftBins, g.TOFBins, len(g.Data))
	}
	if g == f { // sync.Pool may drop an item (it does at random under -race)
		if cap(g.Data) != 32 {
			t.Fatalf("reused frame lost its capacity: %d", cap(g.Data))
		}
		for i, v := range g.Data {
			if v != float64(i+1) {
				t.Fatalf("Get rewrote cell %d of a reused frame: %v", i, v)
			}
		}
	}
	p.Put(g)
	h := p.Get(100, 100) // larger than pooled capacity: fresh allocation
	if len(h.Data) != 10000 {
		t.Fatalf("bad fresh frame len %d", len(h.Data))
	}
	p.Put(nil) // must not panic
}

func TestGatherScatterColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFrame(7, 13)
	for i := range f.Data {
		f.Data[i] = rng.Float64()
	}
	for _, tc := range []struct{ t0, lanes int }{{0, 1}, {0, 13}, {3, 4}, {11, 2}} {
		tile := make([]float64, f.DriftBins*tc.lanes)
		f.GatherColumns(tc.t0, tc.lanes, tile)
		for l := 0; l < tc.lanes; l++ {
			want := f.DriftVector(tc.t0 + l)
			for d := 0; d < f.DriftBins; d++ {
				if tile[d*tc.lanes+l] != want[d] {
					t.Fatalf("gather t0=%d lanes=%d lane %d row %d mismatch", tc.t0, tc.lanes, l, d)
				}
			}
		}
		// Scatter into a fresh frame and compare the column range.
		g := NewFrame(f.DriftBins, f.TOFBins)
		g.ScatterColumns(tc.t0, tc.lanes, tile)
		for l := 0; l < tc.lanes; l++ {
			got := g.DriftVector(tc.t0 + l)
			want := f.DriftVector(tc.t0 + l)
			for d := range got {
				if got[d] != want[d] {
					t.Fatalf("scatter t0=%d lanes=%d lane %d row %d mismatch", tc.t0, tc.lanes, l, d)
				}
			}
		}
	}
}

func TestDriftVectorInto(t *testing.T) {
	f := NewFrame(5, 3)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	dst := make([]float64, 5)
	f.DriftVectorInto(1, dst)
	want := f.DriftVector(1)
	for d := range want {
		if dst[d] != want[d] {
			t.Fatalf("row %d: %v != %v", d, dst[d], want[d])
		}
	}
}
