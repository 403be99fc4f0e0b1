//go:build amd64 && !purego

package butterfly

import "unsafe"

// useAVX2 selects the assembly kernels: the CPU has AVX2 and the OS saves
// YMM state.  Probed once, here; only tests write it afterwards.
var useAVX2 = haveAVX2()

// haveAVX2 reports CPUID's AVX, OSXSAVE and AVX2 bits and XCR0's SSE and
// AVX state bits.
func haveAVX2() bool

// pass8Float64, pass8Int64 and pass8Int32 run pass8 over x[0:n] one YMM
// of lanes per instruction.  hl must be a positive multiple of the lanes
// per YMM (4, 4, 8) and n a multiple of 8*hl.  Loads and stores are
// unaligned.
//
//go:noescape
func pass8Float64(x *float64, n, hl int)

//go:noescape
func pass8Int64(x *int64, n, hl int)

//go:noescape
func pass8Int32(x *int32, n, hl int)

// quantize16 is Quantize16's kernel (tilestep_amd64.s) over `rows` source
// rows, src advancing by stride words, with the scale folded into magic =
// 1.5·2^52/scale and bound = hi/scale; scatter addresses at or above
// limit, the work rows there are, fail the proof.
//
//go:noescape
func quantize16(work *int32, src *float64, stride int, scatter *int, rows, limit int, magic, bound float64) bool

// rowSums16 adds the row sums of a rows × 16 int32 tile to acc[:rows];
// rows is a positive multiple of 4.
//
//go:noescape
func rowSums16(acc *int64, x *int32, rows int)

// pass8Vector runs the fused pass in assembly when it can — the group
// stride a multiple of one YMM of elements — and reports whether it did.
func pass8Vector[T elem](x []T, hl int) bool {
	var zero T
	if !useAVX2 || hl%(32/int(unsafe.Sizeof(zero))) != 0 {
		return false
	}
	switch x := any(x).(type) {
	case []float64:
		pass8Float64(unsafe.SliceData(x), len(x), hl)
	case []int64:
		pass8Int64(unsafe.SliceData(x), len(x), hl)
	case []int32:
		pass8Int32(unsafe.SliceData(x), len(x), hl)
	}
	return true
}

// quantizeVector runs quantize16 where the machine has it; the caller
// has checked the source tile and that scale is a power of two, so the
// divisions are exact.
func quantizeVector(work []int32, src []float64, stride int, scatter []int, scale, hi float64) bool {
	return useAVX2 && quantize16(unsafe.SliceData(work), unsafe.SliceData(src), stride,
		unsafe.SliceData(scatter), len(scatter), len(work)/QuantizeLanes, 0x1.8p52/scale, hi/scale)
}

// rowSumsVector runs rowSums16 on a 16-lane int32 tile of a positive
// multiple of 4 rows and reports whether it did.
func rowSumsVector[T int32 | int64](acc []int64, x []T, rows, lanes int) bool {
	x32, ok := any(x).([]int32)
	if !useAVX2 || !ok || lanes != QuantizeLanes || rows < 4 || rows%4 != 0 {
		return false
	}
	rowSums16(unsafe.SliceData(acc), unsafe.SliceData(x32), rows)
	return true
}
