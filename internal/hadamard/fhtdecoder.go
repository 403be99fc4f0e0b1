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
	"math"
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
	rowSums []float64 // ReduceColumns: one lane sum per transform row

	// ReduceIntegralColumns' scratch, allocated on first use: the int32
	// and int64 work tiles and the int64 row sums.
	iwork    []int32
	iwork64  []int64
	iRowSums []int64
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
// allocates nothing.  dst and y must both have length Len().
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
	LoadColumns(d, src.Data, L, 0, 0, L)
	if err := d.TransformTile(); err != nil {
		return err
	}
	d.StoreColumns(dst.Data, L, 0, 0, L)
	return nil
}

// BeginTile starts a tile of lanes columns in the decoder's work area.  The
// tile steps decode columns of any row-major matrix — a frame's Data, a
// counts frame's, a ColumnBlock — without staging them: BeginTile,
// LoadColumns until every lane in [0, lanes) is loaded, TransformTile,
// StoreColumns or ReduceColumns per lane range.  The steps do not check
// ranges; callers index matrices they validated.
func (d *FHTDecoder) BeginTile(lanes int) {
	d.lanes = lanes
	// As in DecodeTo, the scatter covers rows 1..m−1; only row 0 needs
	// clearing.
	clear(d.scratchBuf(d.m * lanes)[:lanes])
}

// LoadColumns copies columns [t0, t0+k) of the row-major matrix src (Len()
// rows, stride cells per row; float cells or int32 counts) into lanes
// [l0, l0+k) of d's float work area, applying the scatter permutation on
// the way: each source row segment lands in its transform-input row as one
// unit-stride copy.
func LoadColumns[T float64 | int32](d *FHTDecoder, src []T, stride, t0, l0, k int) {
	L, work := d.lanes, d.work
	if f, ok := any(src).([]float64); ok {
		for i, p := range d.scatter {
			copy(work[p*L+l0:p*L+l0+k], f[i*stride+t0:i*stride+t0+k])
		}
		return
	}
	for i, p := range d.scatter {
		w := work[p*L+l0 : p*L+l0+k]
		for l, v := range src[i*stride+t0 : i*stride+t0+k] {
			w[l] = float64(v)
		}
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

// ReduceColumns is the reducing sibling of StoreColumns: it adds to sum[j]
// (Len() values) the scaled sum of lanes [l0, l0+k) of output row j, so a
// caller that only needs the decoded columns' row sums never stores them.
// Lanes are summed per transform row in natural row order — unit stride
// over the cache-hot tile, eight lanes per step as a balanced tree, an
// association that depends on k alone — and the m row sums are read once
// through the gather permutation.  The scale is a power of two, so scaling
// the sum rounds as scaling the cells would.  Allocates nothing once warm.
func (d *FHTDecoder) ReduceColumns(sum []float64, l0, k int) {
	if d.rowSums == nil { // only a reducing caller pays for them
		d.rowSums = make([]float64, d.m)
	}
	L, rs := d.lanes, d.rowSums
	for g := range rs {
		w := d.work[g*L+l0 : g*L+l0+k]
		var s float64
		for ; len(w) >= 8; w = w[8:] {
			a := (*[8]float64)(w)
			s += ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
		}
		for _, v := range w {
			s += v
		}
		rs[g] = s
	}
	sum = sum[:d.n]
	for j, g := range d.gather {
		sum[j] += rs[g] * d.scale
	}
}

// ReduceIntegralColumns is the integer tile step for a reducing caller:
// for columns [t0, t0+k) of the row-major counts matrix src (Len() rows,
// stride counts per row; see instrument.Counts) whose every |cell| is at
// most bound, it adds to sum[j] what BeginTile, LoadColumns, TransformTile
// and ReduceColumns(sum, 0, k) add.  The rows are copied through the
// scatter into an integer work tile and nothing is proved per tile: bound
// proves the whole matrix at once.  Every butterfly word of a column is a
// ±1-signed sum of a subset of its cells, so |word| <= L1 = Σ|cell| <=
// Len()·bound.  When that is below 2^31 the network runs on int32, eight
// lanes per instruction, else on int64; either way it cannot overflow, and
// each transform row's lanes are summed in int64.  While every word and
// row sum is also below 2^53 (16·Len()·bound < 2^53, which a 16-column
// tile of order 9 meets for any int32 count), the float tile computes the
// same integers, so float64(rowSum)·scale is the float step's addend bit
// for bit (a −0 word cannot reach a float row sum, which starts from +0).
// The vector row reduce wants k = butterfly.QuantizeLanes (16).
// Allocates nothing once warm.
func (d *FHTDecoder) ReduceIntegralColumns(sum []float64, src []int32, stride, t0, k int, bound int64) {
	if d.iRowSums == nil {
		d.iRowSums = make([]int64, d.m)
	}
	rs := d.iRowSums
	clear(rs)
	src = src[t0:]
	if int64(d.n)*bound <= math.MaxInt32 {
		d.iwork = grow(d.iwork, d.m*k)
		butterfly.CountsStep(rs, d.iwork, src, stride, d.scatter, d.m, k)
	} else {
		d.iwork64 = grow(d.iwork64, d.m*k)
		butterfly.CountsStep(rs, d.iwork64, src, stride, d.scatter, d.m, k)
	}
	sum = sum[:d.n]
	for j, g := range d.gather {
		sum[j] += float64(rs[g]) * d.scale
	}
}

// grow returns s with room for n elements, reallocated when short.
func grow[T int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s
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
