// kernel_test.go: the float path's view of the butterfly network.  The
// network's own equivalence matrix lives in internal/butterfly; here a
// second, independent oracle — the one-level-per-pass block loop — agrees
// with both the scalar FWHT and the network through fwhtBlock, and
// fwhtBlock rejects bad geometry with errors rather than panics.
package hadamard

import (
	"math/rand"
	"testing"

	"repro/internal/butterfly"
)

// fwhtBlockRadix2 is the block oracle: the same butterfly order as FWHT,
// one pass over the tile per level, unit stride over the lanes.
func fwhtBlockRadix2(x []float64, rows, lanes int) {
	for h := 1; h < rows; h <<= 1 {
		step := 2 * h * lanes
		hl := h * lanes
		for i := 0; i < rows*lanes; i += step {
			for jo := i; jo < i+hl; jo += lanes {
				a := x[jo : jo+lanes : jo+lanes]
				b := x[jo+hl : jo+hl+lanes : jo+hl+lanes]
				for l, av := range a {
					bv := b[l]
					a[l], b[l] = av+bv, av-bv
				}
			}
		}
	}
}

// TestFWHTKernelsMatchScalar pins the network (as fwhtBlock dispatches
// it on this machine) and the radix-2 block oracle to the scalar FWHT,
// lane by lane, bit for bit, across sizes covering every leftover-stage
// path (log2 rows ≡ 0,1,2 mod 3) and lane counts including the
// degenerate single lane.  The integer tile step's int32 network rides
// the same geometries: over the whole int32 range every lane must wrap
// exactly as the scalar two's-complement loop does.
func TestFWHTKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kernels := map[string]func(x []float64, rows, lanes int){
		"network": func(x []float64, rows, lanes int) {
			if err := fwhtBlock(x, rows, lanes); err != nil {
				t.Fatalf("rows %d lanes %d: %v", rows, lanes, err)
			}
		},
		"radix2": fwhtBlockRadix2,
	}
	for _, rows := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		for _, lanes := range []int{1, 2, 3, 5, 8, 16, 17} {
			tile := make([]float64, rows*lanes)
			for i := range tile {
				tile[i] = rng.NormFloat64() * 1e3
			}
			want := make([][]float64, lanes)
			for l := 0; l < lanes; l++ {
				col := make([]float64, rows)
				for r := 0; r < rows; r++ {
					col[r] = tile[r*lanes+l]
				}
				if err := FWHT(col); err != nil {
					t.Fatal(err)
				}
				want[l] = col
			}
			for name, kernel := range kernels {
				got := make([]float64, len(tile))
				copy(got, tile)
				kernel(got, rows, lanes)
				for l := 0; l < lanes; l++ {
					for r := 0; r < rows; r++ {
						if got[r*lanes+l] != want[l][r] {
							t.Fatalf("kernel %s rows %d lanes %d lane %d row %d: %v != scalar %v",
								name, rows, lanes, l, r, got[r*lanes+l], want[l][r])
						}
					}
				}
			}
			ints := make([]int32, rows*lanes)
			for i := range ints {
				ints[i] = int32(rng.Uint32())
			}
			got := append([]int32(nil), ints...)
			butterfly.Block(got, rows, lanes)
			col := make([]int32, rows)
			for l := 0; l < lanes; l++ {
				for r := range col {
					col[r] = ints[r*lanes+l]
				}
				for h := 1; h < rows; h <<= 1 {
					for i := 0; i < rows; i += 2 * h {
						for j := i; j < i+h; j++ {
							col[j], col[j+h] = col[j]+col[j+h], col[j]-col[j+h]
						}
					}
				}
				for r, w := range col {
					if got[r*lanes+l] != w {
						t.Fatalf("int32 network rows %d lanes %d lane %d row %d: %d != scalar %d", rows, lanes, l, r, got[r*lanes+l], w)
					}
				}
			}
		}
	}
}

// TestFWHTBlockGeometryErrors pins the validated error returns that
// replaced the old panic path: bad row counts, bad lane counts and short
// tiles must all surface as errors, including through the lanes==1
// degenerate path.
func TestFWHTBlockGeometryErrors(t *testing.T) {
	if err := fwhtBlock(make([]float64, 6), 3, 2); err == nil {
		t.Fatal("non-power-of-two rows accepted")
	}
	if err := fwhtBlock(make([]float64, 8), 8, 0); err == nil {
		t.Fatal("zero lanes accepted")
	}
	if err := fwhtBlock(make([]float64, 8), 8, -1); err == nil {
		t.Fatal("negative lanes accepted")
	}
	if err := fwhtBlock(make([]float64, 7), 8, 1); err == nil {
		t.Fatal("short single-lane tile accepted")
	}
	if err := fwhtBlock(make([]float64, 15), 8, 2); err == nil {
		t.Fatal("short tile accepted")
	}
	if err := fwhtBlock(make([]float64, 8), 0, 1); err == nil {
		t.Fatal("zero rows accepted")
	}
	// The valid degenerate cases still work.
	if err := fwhtBlock(make([]float64, 8), 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := fwhtBlock(make([]float64, 1), 1, 1); err != nil {
		t.Fatal(err)
	}
}
