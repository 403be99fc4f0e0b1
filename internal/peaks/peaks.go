// Package peaks post-processes deconvolved frames: baseline estimation,
// Savitzky–Golay smoothing, noise estimation, peak picking with centroiding,
// two-dimensional (drift time × m/z) feature finding, and peptide
// identification with decoy-based false-discovery-rate estimation.
package peaks

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Baseline estimates a slowly varying baseline as a running lower percentile
// over a window of the given half-width.  percentile is in (0, 1), e.g. 0.2.
func Baseline(x []float64, halfWindow int, percentile float64) ([]float64, error) {
	if halfWindow < 1 {
		return nil, fmt.Errorf("peaks: half window %d must be >= 1", halfWindow)
	}
	if percentile <= 0 || percentile >= 1 {
		return nil, fmt.Errorf("peaks: percentile %g must be in (0,1)", percentile)
	}
	n := len(x)
	out := make([]float64, n)
	buf := make([]float64, 0, 2*halfWindow+1)
	for i := 0; i < n; i++ {
		lo, hi := i-halfWindow, i+halfWindow
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		buf = append(buf[:0], x[lo:hi+1]...)
		sort.Float64s(buf)
		idx := int(percentile * float64(len(buf)-1))
		out[i] = buf[idx]
	}
	return out, nil
}

// Subtract returns x − b clipped at zero.
func Subtract(x, b []float64) ([]float64, error) {
	if len(x) != len(b) {
		return nil, fmt.Errorf("peaks: subtract length mismatch %d vs %d", len(x), len(b))
	}
	out := make([]float64, len(x))
	for i := range x {
		v := x[i] - b[i]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out, nil
}

// SavitzkyGolay returns the smoothing coefficients for a window of
// 2·halfWindow+1 points and the given polynomial degree, computed by
// solving the least-squares normal equations.  Convolving a signal with the
// coefficients evaluates the fitted polynomial at the window centre.
func SavitzkyGolay(halfWindow, degree int) ([]float64, error) {
	if halfWindow < 1 {
		return nil, fmt.Errorf("peaks: half window %d must be >= 1", halfWindow)
	}
	w := 2*halfWindow + 1
	if degree < 0 || degree >= w {
		return nil, fmt.Errorf("peaks: degree %d must be in [0, %d)", degree, w)
	}
	// Build the Vandermonde normal matrix A^T A (size (d+1)^2) and solve
	// A^T A c = A^T e_center per output coefficient.  Equivalently, the
	// smoothing kernel is row 0 of (A^T A)^-1 A^T.
	d := degree + 1
	ata := make([][]float64, d)
	for i := range ata {
		ata[i] = make([]float64, d)
	}
	for t := -halfWindow; t <= halfWindow; t++ {
		pow := make([]float64, d)
		pow[0] = 1
		for p := 1; p < d; p++ {
			pow[p] = pow[p-1] * float64(t)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				ata[i][j] += pow[i] * pow[j]
			}
		}
	}
	inv, err := invertMatrix(ata)
	if err != nil {
		return nil, fmt.Errorf("peaks: singular Savitzky-Golay system: %w", err)
	}
	coeff := make([]float64, w)
	for k := -halfWindow; k <= halfWindow; k++ {
		pow := 1.0
		var c float64
		for j := 0; j < d; j++ {
			c += inv[0][j] * pow
			pow *= float64(k)
		}
		coeff[k+halfWindow] = c
	}
	return coeff, nil
}

// invertMatrix inverts a small dense symmetric matrix by Gauss-Jordan with
// partial pivoting.
func invertMatrix(a [][]float64) ([][]float64, error) {
	n := len(a)
	aug := make([][]float64, n)
	for i := range aug {
		aug[i] = make([]float64, 2*n)
		copy(aug[i], a[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[piv][col]) {
				piv = r
			}
		}
		if math.Abs(aug[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("pivot %d vanishes", col)
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		p := aug[col][col]
		for j := range aug[col] {
			aug[col][j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for j := range aug[r] {
				aug[r][j] -= f * aug[col][j]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = aug[i][n:]
	}
	return inv, nil
}

// Smooth convolves x with the kernel, reflecting at the edges.
func Smooth(x, kernel []float64) ([]float64, error) {
	if len(kernel) == 0 || len(kernel)%2 == 0 {
		return nil, fmt.Errorf("peaks: kernel length %d must be odd", len(kernel))
	}
	h := len(kernel) / 2
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for k := -h; k <= h; k++ {
			j := i + k
			if j < 0 {
				j = -j
			}
			if j >= n {
				j = 2*(n-1) - j
			}
			if j < 0 {
				j = 0
			}
			acc += x[j] * kernel[k+h]
		}
		out[i] = acc
	}
	return out, nil
}

// NoiseMAD estimates the noise standard deviation of a signal as
// 1.4826 × the median absolute deviation from the median — robust against
// the sparse peaks sitting on top of the noise.  Both medians are the order
// statistic n/2 of sort.Float64s's order (NaNs first), found by selection
// rather than by sorting.
func NoiseMAD(x []float64) float64 {
	return noiseMAD(x, nil)
}

// noiseMAD is NoiseMAD working in tmp when it holds len(x) words, in a
// fresh buffer otherwise.
func noiseMAD(x, tmp []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	if len(tmp) < n {
		tmp = make([]float64, n)
	}
	tmp = tmp[:n]
	copy(tmp, x)
	med := selectKth(tmp, n/2)
	for i, v := range x {
		tmp[i] = math.Abs(v - med)
	}
	return 1.4826 * selectKth(tmp, n/2)
}

// selectKth returns the element sort.Float64s would leave at x[k], reordering
// x: NaNs are partitioned to the front first (a Hoare scan against a NaN
// pivot never stops), then a middle-pivot quickselect narrows the rest.  A
// range that has not converged after 2·log2(n) partitions — an adversarial
// profile, which a hostile Raw frame can produce — is sorted, so the cost
// stays O(n log n).
func selectKth(x []float64, k int) float64 {
	nan := 0
	for i, v := range x {
		if v != v {
			x[i], x[nan] = x[nan], x[i]
			nan++
		}
	}
	if k < nan {
		return x[k]
	}
	lo, hi := nan, len(x)-1
	for budget := 2 * bits.Len(uint(len(x))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(x[lo : hi+1])
			break
		}
		p := x[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < p {
				i++
			}
			for x[j] > p {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// x[lo..j] <= p <= x[i..hi], and anything between j and i equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return x[k]
		}
	}
	return x[k]
}

// Peak is one detected peak in a 1-D signal.
type Peak struct {
	Index    int     // bin of the apex
	Centroid float64 // sub-bin apex position (parabolic interpolation)
	Height   float64 // apex height above baseline
	Area     float64 // integrated intensity between the flanking minima
	SNR      float64 // height over the MAD noise estimate
	LeftBin  int     // left integration bound
	RightBin int     // right integration bound
}

// Detect finds local maxima with SNR ≥ minSNR in the signal.  Peak bounds
// extend to the flanking local minima; the centroid refines the apex by
// three-point parabolic interpolation.  To suppress noise ripples riding on
// the shoulders of real peaks, an apex must also be prominent: it must rise
// at least 3× the noise above the higher of its two flanking minima.
func Detect(x []float64, minSNR float64) ([]Peak, error) {
	return DetectWith(nil, x, minSNR, nil)
}

// DetectWith is Detect appending to dst, with caller-owned scratch for the
// noise estimate: when scratch holds len(x) words they are overwritten
// instead of a buffer being allocated per call, and when dst has room for
// the peaks none is allocated for them, so a caller that keeps both across
// signals detects without allocating.
func DetectWith(dst []Peak, x []float64, minSNR float64, scratch []float64) ([]Peak, error) {
	if minSNR <= 0 {
		return nil, fmt.Errorf("peaks: min SNR %g must be positive", minSNR)
	}
	n := len(x)
	if n < 3 {
		return dst, nil
	}
	noise := noiseMAD(x, scratch)
	if noise <= 0 {
		noise = 1e-12
	}
	out := dst
	for i := 1; i < n-1; i++ {
		if !(x[i] > x[i-1] && x[i] >= x[i+1]) {
			continue
		}
		snr := x[i] / noise
		if snr < minSNR {
			continue
		}
		// Bounds: walk downhill to local minima.
		l := i
		for l > 0 && x[l-1] < x[l] {
			l--
		}
		r := i
		for r < n-1 && x[r+1] < x[r] {
			r++
		}
		valley := x[l]
		if x[r] > valley {
			valley = x[r]
		}
		if x[i]-valley < 3*noise {
			continue // shoulder ripple, not a distinct peak
		}
		var area float64
		for j := l; j <= r; j++ {
			area += x[j]
		}
		out = append(out, Peak{
			Index:    i,
			Centroid: parabolicApex(x, i),
			Height:   x[i],
			Area:     area,
			SNR:      snr,
			LeftBin:  l,
			RightBin: r,
		})
	}
	return out, nil
}

// parabolicApex refines an apex position with a 3-point parabola fit.
func parabolicApex(x []float64, i int) float64 {
	if i <= 0 || i >= len(x)-1 {
		return float64(i)
	}
	a, b, c := x[i-1], x[i], x[i+1]
	den := a - 2*b + c
	if den == 0 {
		return float64(i)
	}
	d := 0.5 * (a - c) / den
	if d > 0.5 {
		d = 0.5
	}
	if d < -0.5 {
		d = -0.5
	}
	return float64(i) + d
}
