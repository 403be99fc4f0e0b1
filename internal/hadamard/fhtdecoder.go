// fhtdecoder.go implements the exact simplex-matrix inverse through a fast
// Walsh–Hadamard transform with LFSR-derived permutations.  This is the
// deconvolution algorithm realized by the FPGA component of the paper's
// hybrid application: a scatter permutation, an in-place FWHT butterfly
// network, and a gather permutation — all integer-friendly and free of
// multiplications except the final scale.
//
// Derivation.  Let the m-sequence be s[t] = e·(Aᵗ·state₀) over GF(2)ⁿ, where
// A is the LFSR update matrix, state₀ the seed, and e the output-bit
// selector.  Then s[i+j] = uᵢ·vⱼ with uᵢ = (Aᵀ)ⁱe and vⱼ = Aʲ·state₀, so the
// simplex matrix S[i][j] = s[i+j] embeds into the natural-order Hadamard
// matrix H[2ⁿ]: (−1)^(uᵢ·vⱼ) = H[int(uᵢ)][int(vⱼ)].  Substituting into the
// closed-form inverse S⁻¹ = 2/(N+1)(2Sᵀ−J) collapses to
//
//	x[j] = −2/(N+1) · FWHT(Y)[int(vⱼ)],   Y[int(uᵢ)] = y[i], Y[0] = 0.
//
// For the physical convolution model y = s ⊛ x the column states are walked
// backwards: vⱼ = A^(N−j)·state₀.
package hadamard

import (
	"fmt"
	"math/bits"

	"repro/internal/butterfly"
	"repro/internal/prs"
)

// FHTDecoder is the fast-Hadamard-transform simplex decoder.  It is exact
// for the canonical m-sequence produced by prs.MSequence(order) (seed 1) and
// costs one scatter, one FWHT of size 2ⁿ, and one gather per frame.
//
// The decoder carries reusable scratch for its allocation-free entry
// points (DecodeTo, DecodeBatch, the tile steps), so it must not be shared
// between goroutines; create one per worker.
type FHTDecoder struct {
	order   int
	n       int   // sequence length 2^order − 1
	m       int   // transform size 2^order
	scatter []int // scatter[i] = int(u_i): position of y[i] in the FWHT input
	gather  []int // gather[j] = int(v_{-j}): FWHT output index for x[j]
	scale   float64
	work    []float64 // transform scratch, grown to m×lanes on demand
	lanes   int       // width of the tile BeginTile last started
}

// NewFHTDecoder constructs the decoder for the canonical m-sequence of the
// given order (as produced by prs.MSequence, i.e. LFSR seed 1).
func NewFHTDecoder(order int) (*FHTDecoder, error) {
	taps, err := prs.Taps(order)
	if err != nil {
		return nil, err
	}
	n := 1<<order - 1
	m := n + 1
	mask := uint32(m - 1)
	// Effective feedback mask of the right-shift Fibonacci register (see
	// prs.feedbackMask): bit i = recurrence coefficient c_i.
	fb := ((taps << 1) | 1) & mask

	// Column states v_j = A^j · state0 : the Fibonacci LFSR state orbit.
	states := make([]uint32, n)
	st := uint32(1) // prs.MSequence seed
	for j := 0; j < n; j++ {
		states[j] = st
		bit := popcount32(st&fb) & 1
		st >>= 1
		st |= bit << (order - 1)
	}

	// Row functionals u_i = (Aᵀ)^i · e with e selecting bit 0.  The
	// transpose of a Fibonacci update is a Galois-configuration step:
	// u' = (u << 1) XOR (taps if the top bit of u is set), masked to n bits.
	scatter := make([]int, n)
	u := uint32(1)
	top := uint32(1) << (order - 1)
	for i := 0; i < n; i++ {
		scatter[i] = int(u)
		feedback := u & top
		u = (u << 1) & mask
		if feedback != 0 {
			u ^= fb
		}
	}

	// Convolution model: x[j] reads the FWHT output at int(v_{(N−j) mod N}).
	gather := make([]int, n)
	for j := 0; j < n; j++ {
		gather[j] = int(states[(n-j)%n])
	}

	d := &FHTDecoder{
		order:   order,
		n:       n,
		m:       m,
		scatter: scatter,
		gather:  gather,
		scale:   -2.0 / float64(n+1),
	}
	if err := d.selfCheck(); err != nil {
		return nil, err
	}
	return d, nil
}

// selfCheck verifies the permutations are bijections onto 1..2ⁿ−1; a failure
// indicates an inconsistent tap table and would silently corrupt decodes.
func (d *FHTDecoder) selfCheck() error {
	for name, perm := range map[string][]int{"scatter": d.scatter, "gather": d.gather} {
		seen := make([]bool, d.m)
		for _, p := range perm {
			if p <= 0 || p >= d.m {
				return fmt.Errorf("hadamard: %s index %d out of range (order %d)", name, p, d.order)
			}
			if seen[p] {
				return fmt.Errorf("hadamard: %s index %d repeated (order %d)", name, p, d.order)
			}
			seen[p] = true
		}
	}
	return nil
}

// Order returns the m-sequence order the decoder was built for.
func (d *FHTDecoder) Order() int { return d.order }

// Len implements Decoder.
func (d *FHTDecoder) Len() int { return d.n }

// Decode implements Decoder.  It is a thin allocating wrapper over
// DecodeTo and shares the decoder's scratch.
func (d *FHTDecoder) Decode(y []float64) ([]float64, error) {
	x := make([]float64, d.n)
	if err := d.DecodeTo(x, y); err != nil {
		return nil, err
	}
	return x, nil
}

// scratchBuf returns the decoder's scratch grown to at least n elements.
func (d *FHTDecoder) scratchBuf(n int) []float64 {
	if cap(d.work) < n {
		d.work = make([]float64, n)
	}
	return d.work[:n]
}

// DecodeTo implements BatchDecoder: scatter, FWHT and scaled gather into
// the caller's dst, reusing per-decoder scratch so the steady state
// allocates nothing.  dst and y must both have length Len(); dst may be y
// itself, since the scatter reads all of y before the gather writes dst.
func (d *FHTDecoder) DecodeTo(dst, y []float64) error {
	if len(y) != d.n {
		return fmt.Errorf("hadamard: decode length %d, want %d", len(y), d.n)
	}
	if len(dst) != d.n {
		return fmt.Errorf("hadamard: decode output length %d, want %d", len(dst), d.n)
	}
	work := d.scratchBuf(d.m)
	// The scatter permutation is a bijection onto 1..m−1 (selfCheck), so
	// only slot 0 survives from the previous use and needs clearing.
	work[0] = 0
	for i, p := range d.scatter {
		work[p] = y[i]
	}
	// Length is a power of two by construction; FWHT cannot fail.
	if err := FWHT(work); err != nil {
		panic(err)
	}
	for j, g := range d.gather {
		dst[j] = work[g] * d.scale
	}
	return nil
}

// DecodeBatch decodes every lane of src into the matching lane of dst (both
// tiles Rows == Len() and equal Lanes; dst is fully overwritten) with the
// column-blocked kernel: one tile (BeginTile, LoadColumns, TransformTile,
// StoreColumns) whose source and destination matrices are the two column
// blocks.  Every lane's result is bit-identical to the scalar DecodeTo path
// (same butterfly order, same rounding).  The steady state allocates
// nothing.
func (d *FHTDecoder) DecodeBatch(dst, src *ColumnBlock) error {
	if err := checkBlockDims(d.n, dst, src); err != nil {
		return err
	}
	L := src.Lanes
	d.BeginTile(L)
	d.LoadColumns(src.Data, L, 0, 0, L)
	if err := d.TransformTile(); err != nil {
		return err
	}
	d.StoreColumns(dst.Data, L, 0, 0, L)
	return nil
}

// BeginTile starts a tile of lanes columns in the decoder's work area.  The
// tile steps decode columns of any row-major matrix — a frame's Data, a
// ColumnBlock — without staging them: BeginTile, LoadColumns until every
// lane in [0, lanes) is loaded, TransformTile, StoreColumns per lane
// range.  The steps do not check ranges; callers index matrices they
// validated.
func (d *FHTDecoder) BeginTile(lanes int) {
	d.lanes = lanes
	// As in DecodeTo, the scatter covers rows 1..m−1; only row 0 needs
	// clearing.
	clear(d.scratchBuf(d.m * lanes)[:lanes])
}

// LoadColumns copies columns [t0, t0+k) of the row-major matrix src (Len()
// rows, stride cells per row) into lanes [l0, l0+k) of the work area,
// applying the scatter permutation on the way: each source row segment
// lands in its transform-input row as one unit-stride copy.
func (d *FHTDecoder) LoadColumns(src []float64, stride, t0, l0, k int) {
	L, work := d.lanes, d.work
	for i, p := range d.scatter {
		copy(work[p*L+l0:p*L+l0+k], src[i*stride+t0:i*stride+t0+k])
	}
}

// TransformTile runs the blocked FWHT over the loaded tile in place.
func (d *FHTDecoder) TransformTile() error {
	return fwhtBlock(d.work[:d.m*d.lanes], d.m, d.lanes)
}

// fwhtBlock validates the tile geometry and runs the in-place FWHT of
// `lanes` independent length-`rows` transforms packed row-major in x
// (x[r*lanes+l] = element r of transform l) on the shared butterfly
// network.  The network applies exactly the butterfly sequence of FWHT,
// on either of its backends, so each lane's result is bit-identical to
// the scalar transform.
func fwhtBlock(x []float64, rows, lanes int) error {
	if rows <= 0 || rows&(rows-1) != 0 {
		return fmt.Errorf("hadamard: fwhtBlock rows %d is not a power of two", rows)
	}
	if lanes < 1 {
		return fmt.Errorf("hadamard: fwhtBlock needs >= 1 lane, got %d", lanes)
	}
	if len(x)/rows < lanes {
		return fmt.Errorf("hadamard: fwhtBlock tile %d too small for %d×%d", len(x), rows, lanes)
	}
	if lanes == 1 {
		// Degenerate tile: the scalar loop.  Geometry is already
		// validated, so FWHT cannot fail.
		return FWHT(x[:rows])
	}
	butterfly.Block(x, rows, lanes)
	return nil
}

// StoreColumns writes lanes [l0, l0+k) of the transformed tile, read
// through the gather permutation and scaled, into columns [t0, t0+k) of the
// row-major matrix dst (Len() rows, stride values per row).
func (d *FHTDecoder) StoreColumns(dst []float64, stride, t0, l0, k int) {
	L, work, scale := d.lanes, d.work, d.scale
	for j, g := range d.gather {
		w := work[g*L+l0 : g*L+l0+k]
		out := dst[j*stride+t0 : j*stride+t0+k]
		for l, v := range w {
			out[l] = v * scale
		}
	}
}

// Permutations exposes copies of the scatter and gather index tables.  The
// FPGA model uses them as its address-generation ROMs, which is exactly the
// "memory addressing logic" the paper's abstract refers to.
func (d *FHTDecoder) Permutations() (scatter, gather []int) {
	s := make([]int, d.n)
	g := make([]int, d.n)
	copy(s, d.scatter)
	copy(g, d.gather)
	return s, g
}

// Scale returns the final multiplicative constant −2/(N+1).
func (d *FHTDecoder) Scale() float64 { return d.scale }

func popcount32(v uint32) uint32 {
	return uint32(bits.OnesCount32(v))
}
