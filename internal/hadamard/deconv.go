// Package hadamard implements the encoding and deconvolution mathematics of
// Hadamard-transform ion mobility spectrometry.
//
// In an HT-IMS experiment the ion gate is driven by a binary pseudorandom
// sequence s of length N.  Ion packets injected at gate bin t arrive at the
// detector d bins later (d = drift time), so over one repeating cycle the
// detected waveform is the circular convolution of the gating sequence with
// the true arrival-time distribution x:
//
//	y[a] = Σ_t s[t] · x[(a−t) mod N] + noise.
//
// Recovering x from y is deconvolution.  Three decoders are provided:
//
//   - FHTDecoder: the exact simplex-matrix inverse evaluated through a fast
//     Walsh–Hadamard transform with LFSR-derived scatter/gather permutations
//     (O(N log N), integer-friendly — the algorithm implemented in the
//     paper's FPGA core).
//   - StandardDecoder: the same exact inverse evaluated through FFT circular
//     correlation, valid for any cyclic rotation of an m-sequence.
//   - WienerDecoder: regularized circulant inversion for arbitrary gating
//     waveforms, including oversampled and defect-modified PNNL sequences
//     whose simplex structure is intentionally broken.
//
// A WeightedDecoder models the historical sample-specific weighting-matrix
// correction that the PNNL modified-sequence scheme was designed to replace.
package hadamard

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/prs"
)

// Encode computes the multiplexed detector waveform for a true arrival
// distribution x gated by sequence s: the circular convolution s ⊛ x.
// len(x) must equal len(s).
func Encode(s prs.Sequence, x []float64) ([]float64, error) {
	if len(s) != len(x) {
		return nil, fmt.Errorf("hadamard: encode length mismatch: sequence %d, signal %d", len(s), len(x))
	}
	return CircularConvolve(s.Floats(), x)
}

// EncodeNaive is Encode by direct O(N^2) summation; reference and ablation
// baseline.
func EncodeNaive(s prs.Sequence, x []float64) ([]float64, error) {
	if len(s) != len(x) {
		return nil, fmt.Errorf("hadamard: encode length mismatch: sequence %d, signal %d", len(s), len(x))
	}
	n := len(s)
	y := make([]float64, n)
	for a := 0; a < n; a++ {
		var acc float64
		for t := 0; t < n; t++ {
			if s[t] != 0 {
				acc += x[(a-t+n)%n]
			}
		}
		y[a] = acc
	}
	return y, nil
}

// Decoder recovers an arrival-time distribution from a multiplexed waveform.
type Decoder interface {
	// Decode returns the deconvolved arrival distribution.  The input is
	// not modified.  Implementations return an error if len(y) does not
	// match the decoder's configured sequence length.
	Decode(y []float64) ([]float64, error)
	// Len returns the waveform length the decoder expects.
	Len() int
}

// StandardDecoder applies the exact simplex inverse
// S⁻¹ = 2/(N+1)·(2 Sᵀ − J) through FFT circular correlation.  It is exact
// for any cyclic rotation of a maximal-length sequence and degrades (becomes
// a biased estimator) for sequences that are not maximal-length.
// The decoder carries an FFT plan and scratch for its allocation-free
// entry point (DecodeTo), so it must not be shared between goroutines;
// create one per worker.
type StandardDecoder struct {
	seq   []float64
	n     int
	sumOK bool

	spec []complex128 // FFT of the gating sequence, precomputed
	plan *fftPlan
	cbuf []complex128 // per-decode complex staging
}

// NewStandardDecoder builds a decoder for gating sequence s.  The sequence
// is validated structurally; callers who want the exactness guarantee should
// pass a true m-sequence (see prs.Sequence.IsMaximalLength).
func NewStandardDecoder(s prs.Sequence) (*StandardDecoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seq := s.Floats()
	return &StandardDecoder{
		seq:  seq,
		n:    len(s),
		spec: FFT(realToComplex(seq)),
		plan: newFFTPlan(len(s)),
		cbuf: make([]complex128, len(s)),
	}, nil
}

// Len implements Decoder.
func (d *StandardDecoder) Len() int { return d.n }

// Decode implements Decoder.
//
// With the convolution model y = C·x, C[a][j] = s[(a−j) mod N], the exact
// inverse gives x = 2/(N+1)·(2 Cᵀ y − (Σy)·1), and (Cᵀ y)[j] is the circular
// correlation Σ_i s[i]·y[(i+j) mod N] evaluated via FFT.
func (d *StandardDecoder) Decode(y []float64) ([]float64, error) {
	x := make([]float64, d.n)
	if err := d.DecodeTo(x, y); err != nil {
		return nil, err
	}
	return x, nil
}

// DecodeTo implements BatchDecoder: the same FFT circular correlation as
// Decode evaluated through the decoder's cached FFT plan and complex
// staging buffer, so the steady state allocates nothing.  The result is
// bit-identical to Decode's.
func (d *StandardDecoder) DecodeTo(dst, y []float64) error {
	if len(y) != d.n {
		return fmt.Errorf("hadamard: decode length %d, want %d", len(y), d.n)
	}
	if len(dst) != d.n {
		return fmt.Errorf("hadamard: decode output length %d, want %d", len(dst), d.n)
	}
	buf := d.cbuf
	for i, v := range y {
		buf[i] = complex(v, 0)
	}
	d.plan.transform(buf, false)
	for i := range buf {
		buf[i] = cmplx.Conj(d.spec[i]) * buf[i]
	}
	d.plan.transform(buf, true)
	var sum float64
	for _, v := range y {
		sum += v
	}
	scale := 2 / float64(d.n+1)
	for j := range dst {
		dst[j] = scale * (2*real(buf[j]) - sum)
	}
	return nil
}

// DecodeNaive evaluates the same inverse by direct O(N^2) matrix arithmetic.
// Reference implementation and ablation baseline (BenchmarkAblationDirectVsFHT).
func (d *StandardDecoder) DecodeNaive(y []float64) ([]float64, error) {
	if len(y) != d.n {
		return nil, fmt.Errorf("hadamard: decode length %d, want %d", len(y), d.n)
	}
	n := d.n
	var sum float64
	for _, v := range y {
		sum += v
	}
	scale := 2 / float64(n+1)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		var corr float64
		for i := 0; i < n; i++ {
			corr += d.seq[i] * y[(i+j)%n]
		}
		x[j] = scale * (2*corr - sum)
	}
	return x, nil
}

// WienerDecoder inverts the circulant system y = s ⊛ x in the Fourier domain
// with Tikhonov regularization:
//
//	X(f) = conj(S(f))·Y(f) / (|S(f)|² + λ)
//
// It accepts arbitrary gating waveforms — in particular the oversampled and
// defect-modified PNNL sequences, whose Fourier spectra contain near-zero
// (oversampled) or small (modified) components that the exact simplex
// inverse cannot handle.  λ = 0 yields exact inversion when the spectrum has
// no zeros.
// The decoder carries an FFT plan and scratch for its allocation-free
// entry point (DecodeTo), so it must not be shared between goroutines;
// create one per worker.
type WienerDecoder struct {
	spec   []complex128 // FFT of the gating waveform
	n      int
	lambda float64

	plan *fftPlan
	cbuf []complex128 // per-decode complex staging
}

// NewWienerDecoder builds a regularized circulant decoder for gating
// sequence s with regularization λ ≥ 0.
func NewWienerDecoder(s prs.Sequence, lambda float64) (*WienerDecoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return NewWienerDecoderWaveform(s.Floats(), lambda)
}

// NewWienerDecoderWaveform builds the decoder for an arbitrary real
// modulation waveform — the instrument's actual per-bin injection weights
// rather than the ideal binary sequence.  Decoding against the true
// modulation removes the systematic artifacts that gate imperfections and
// trap-accumulation weighting otherwise imprint on the recovered
// distribution (the enhancement at the heart of the PNNL scheme).
func NewWienerDecoderWaveform(w []float64, lambda float64) (*WienerDecoder, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("hadamard: empty modulation waveform")
	}
	var sum float64
	for _, v := range w {
		if v < 0 {
			return nil, fmt.Errorf("hadamard: negative modulation weight %g", v)
		}
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("hadamard: all-zero modulation waveform")
	}
	if lambda < 0 {
		return nil, fmt.Errorf("hadamard: negative regularization %g", lambda)
	}
	return &WienerDecoder{
		spec:   FFT(realToComplex(w)),
		n:      len(w),
		lambda: lambda,
		plan:   newFFTPlan(len(w)),
		cbuf:   make([]complex128, len(w)),
	}, nil
}

// Len implements Decoder.
func (d *WienerDecoder) Len() int { return d.n }

// Decode implements Decoder.  It is a thin allocating wrapper over
// DecodeTo and shares the decoder's scratch.
func (d *WienerDecoder) Decode(y []float64) ([]float64, error) {
	x := make([]float64, d.n)
	if err := d.DecodeTo(x, y); err != nil {
		return nil, err
	}
	return x, nil
}

// DecodeTo implements BatchDecoder: the regularized spectral division of
// Decode evaluated through the decoder's cached FFT plan and complex
// staging buffer — the forward transform, the per-bin division and the
// inverse transform all reuse per-decoder scratch, eliminating the three
// complex slices the allocating path built per call.  The result is
// bit-identical to Decode's.
func (d *WienerDecoder) DecodeTo(dst, y []float64) error {
	if len(y) != d.n {
		return fmt.Errorf("hadamard: decode length %d, want %d", len(y), d.n)
	}
	if len(dst) != d.n {
		return fmt.Errorf("hadamard: decode output length %d, want %d", len(dst), d.n)
	}
	buf := d.cbuf
	for i, v := range y {
		buf[i] = complex(v, 0)
	}
	d.plan.transform(buf, false)
	for f := range buf {
		s := d.spec[f]
		denom := real(s)*real(s) + imag(s)*imag(s) + d.lambda
		buf[f] = cmplx.Conj(s) * buf[f] / complex(denom, 0)
	}
	d.plan.transform(buf, true)
	for i, v := range buf {
		dst[i] = real(v)
	}
	return nil
}

// MinModulation returns the smallest Fourier magnitude of the gating
// waveform (excluding DC).  It measures the conditioning of the circulant
// system: 0 means non-invertible (plain oversampled sequences), and larger
// is better.  The defect modification exists precisely to lift this value.
func (d *WienerDecoder) MinModulation() float64 {
	min := math.Inf(1)
	for f := 1; f < d.n; f++ {
		m := cmplx.Abs(d.spec[f])
		if m < min {
			min = m
		}
	}
	if d.n <= 1 {
		return 0
	}
	return min
}

// ConditionNumber returns max|S(f)| / min|S(f)| over non-DC bins, +Inf if
// the spectrum has a zero.
func (d *WienerDecoder) ConditionNumber() float64 {
	min, max := math.Inf(1), 0.0
	for f := 1; f < d.n; f++ {
		m := cmplx.Abs(d.spec[f])
		if m < min {
			min = m
		}
		if m > max {
			max = m
		}
	}
	if min == 0 {
		return math.Inf(1)
	}
	return max / min
}

// WeightedDecoder wraps a base decoder with the sample-specific per-bin
// weighting-matrix correction used before the modified-sequence scheme: a
// calibration run with a known analyte distribution produces multiplicative
// weights that compensate systematic gate non-ideality.  Its weakness —
// faithfully reproduced here — is that the weights are only valid for
// arrival distributions resembling the calibrant.
type WeightedDecoder struct {
	base    Decoder
	weights []float64
}

// NewWeightedDecoder wraps base with initially unit weights.
func NewWeightedDecoder(base Decoder) *WeightedDecoder {
	w := make([]float64, base.Len())
	for i := range w {
		w[i] = 1
	}
	return &WeightedDecoder{base: base, weights: w}
}

// Calibrate derives weights from a calibration pair: a known true
// distribution xTrue and the observed multiplexed waveform yObs.  Bins where
// the base decoder output is ≤ floor (relative to the max) keep weight 1 to
// avoid amplifying noise.
func (w *WeightedDecoder) Calibrate(xTrue, yObs []float64, floor float64) error {
	if len(xTrue) != w.base.Len() || len(yObs) != w.base.Len() {
		return fmt.Errorf("hadamard: calibrate length mismatch")
	}
	dec, err := w.base.Decode(yObs)
	if err != nil {
		return err
	}
	peak := 0.0
	for _, v := range dec {
		if v > peak {
			peak = v
		}
	}
	thresh := peak * floor
	for i := range w.weights {
		if dec[i] > thresh && dec[i] != 0 {
			w.weights[i] = xTrue[i] / dec[i]
		} else {
			w.weights[i] = 1
		}
	}
	return nil
}

// Weights returns a copy of the current calibration weights.
func (w *WeightedDecoder) Weights() []float64 {
	out := make([]float64, len(w.weights))
	copy(out, w.weights)
	return out
}

// Len implements Decoder.
func (w *WeightedDecoder) Len() int { return w.base.Len() }

// Decode implements Decoder.
func (w *WeightedDecoder) Decode(y []float64) ([]float64, error) {
	x, err := w.base.Decode(y)
	if err != nil {
		return nil, err
	}
	for i := range x {
		x[i] *= w.weights[i]
	}
	return x, nil
}

// ReconstructionError returns the root-mean-square difference between a
// decoded distribution and the ground truth, normalized by the RMS of the
// truth (so 0 is perfect and 1 means errors as large as the signal).
func ReconstructionError(got, want []float64) (float64, error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("hadamard: reconstruction error length mismatch %d vs %d", len(got), len(want))
	}
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}
