//go:build amd64 && !purego

package butterfly

import "unsafe"

// useAVX2 selects the assembly pass: the CPU has AVX2 and the OS saves
// YMM state.  Probed once, here; only tests write it afterwards.
var useAVX2 = haveAVX2()

// haveAVX2 reports CPUID's AVX, OSXSAVE and AVX2 bits and XCR0's SSE and
// AVX state bits.
func haveAVX2() bool

// pass8Float64 and pass8Int64 run pass8 over x[0:n] four lanes per
// instruction.  hl must be a positive multiple of 4 and n a multiple of
// 8*hl.  Loads and stores are unaligned.
//
//go:noescape
func pass8Float64(x *float64, n, hl int)

//go:noescape
func pass8Int64(x *int64, n, hl int)

// pass8Vector runs the fused pass in assembly when it can — the group
// stride a multiple of the four-element vector — and reports whether it
// did.
func pass8Vector[T float64 | int64](x []T, hl int) bool {
	if !useAVX2 || hl%4 != 0 {
		return false
	}
	switch x := any(x).(type) {
	case []float64:
		pass8Float64(unsafe.SliceData(x), len(x), hl)
	case []int64:
		pass8Int64(unsafe.SliceData(x), len(x), hl)
	}
	return true
}
