//go:build amd64 && !purego

package fpga

import (
	"unsafe"

	"repro/internal/butterfly"
)

// useAVX2 selects the vector quantize pass wherever the butterfly network
// runs its AVX2 pass: the same CPUID probe, made once by that package.
// Only tests write it afterwards.
var useAVX2 = butterfly.Backend() == "avx2"

// vectorLanes is the tile width quantize16 handles: four YMM groups.
const vectorLanes = 16

// quantize16 is pass 1 over a full tile as a proof attempt: for each of
// `rows` source rows (src advancing by stride values) it scales the 16
// words by scale, stores them as int64 at work row scatter[i], and
// accumulates each lane's L1 = Σ|v·scale| in float64.  It reports whether
// every scaled word was an integer with |r| ≤ hi and every lane's L1 ≤ hi
// — then the stored words are exactly what the Go loop stores, nothing
// saturated, and the plain network may run.  hi must be below 2^51 and
// rows at least 1.  It gives up after the first row holding a word it
// cannot prove; on false the work rows hold nothing usable.
//
//go:noescape
func quantize16(work *int64, src *float64, stride int, scatter *int, rows int, scale, hi float64) bool

// quantizeVector runs quantize16 over columns [t0, t0+lanes) of src when
// the machine, the tile and the format allow it, and reports whether it
// ran and proved the tile.  The float64 L1 decides what the Go loop's
// integer L1 decides: its partial sums are exact below 2^53 and, being
// sums of non-negative terms, never fall back once above hi.
func (c *FHTCore) quantizeVector(work []int64, src []float64, stride, t0, lanes int) bool {
	if !useAVX2 || lanes != vectorLanes || c.Format.Width() > 51 {
		return false
	}
	return quantize16(unsafe.SliceData(work), &src[t0], stride, unsafe.SliceData(c.scatter),
		len(c.scatter), c.Format.scale(), float64(c.Format.Max()))
}
