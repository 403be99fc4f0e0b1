//go:build linux

package butterfly_test

import (
	"math"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/butterfly"
)

// TestBlockStaysInsideTile places tiles flush against an inaccessible
// page — the tile's last element is the last word of mapped memory — so a
// pass that read or wrote even one vector past rows*lanes would fault
// rather than pass silently.  Lane counts cover the assembly (multiples
// of 4, of 8 for int32) and the Go pass, and a tile start that is not
// vector-aligned.  The integer tile step's other kernels get the same
// treatment: Quantize16 with its last source row and its last work row
// flush against the page, AddRowSums with the tile's last row there.
func TestBlockStaysInsideTile(t *testing.T) {
	page := syscall.Getpagesize()
	const tilePages = 24 // the largest tile below, 1024×12 words
	mem, err := syscall.Mmap(-1, 0, (tilePages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[tilePages*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	words := unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), tilePages*page/8)
	eachBackend(t, func() {
		for _, g := range []struct{ rows, lanes int }{{512, 16}, {512, 17}, {64, 4}, {8, 4}, {8, 1}, {1024, 12}, {16, 33}} {
			n := g.rows * g.lanes
			ints := words[len(words)-n:]
			for i := range ints {
				ints[i] = int64(i)
			}
			heap := append([]int64(nil), ints...)
			butterfly.Block(ints, g.rows, g.lanes)
			butterfly.Block(heap, g.rows, g.lanes)
			for i := range heap {
				if ints[i] != heap[i] {
					t.Fatalf("%s rows %d lanes %d: word %d is %d against the page, %d on the heap", butterfly.Backend(), g.rows, g.lanes, i, ints[i], heap[i])
				}
			}
			floats := unsafe.Slice((*float64)(unsafe.Pointer(&ints[0])), n)
			for i := range floats {
				floats[i] = float64(i % 11)
			}
			butterfly.Block(floats, g.rows, g.lanes)
			all32 := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), tilePages*page/4)
			i32 := all32[len(all32)-n:]
			for i := range i32 {
				i32[i] = int32(i * 7)
			}
			heap32 := append([]int32(nil), i32...)
			butterfly.Block(i32, g.rows, g.lanes)
			butterfly.Block(heap32, g.rows, g.lanes)
			for i := range heap32 {
				if i32[i] != heap32[i] {
					t.Fatalf("%s int32 rows %d lanes %d: word %d is %d against the page, %d on the heap", butterfly.Backend(), g.rows, g.lanes, i, i32[i], heap32[i])
				}
			}
			acc := make([]int64, g.rows)
			butterfly.AddRowSums(acc, i32, g.rows, g.lanes)
		}
		// Quantize16: a 512-row, 16-column tile of a 24-column matrix whose
		// last source word, then whose last work word, ends mapped memory.
		const rows, stride, lanes = 512, 24, butterfly.QuantizeLanes
		scatter := make([]int, rows)
		for i := range scatter {
			scatter[i] = rows - 1 - i // the first source row fills the last work row
		}
		src := words[len(words)-((rows-1)*stride+lanes):]
		floats := unsafe.Slice((*float64)(unsafe.Pointer(&src[0])), len(src))
		for i := range floats {
			floats[i] = float64(i % 5)
		}
		work := make([]int32, rows*lanes)
		if proved := butterfly.Quantize16(work, floats, stride, scatter, 1, math.MaxInt32); proved != (butterfly.Backend() == "avx2") {
			t.Fatalf("%s: integral tile against the page proved %v", butterfly.Backend(), proved)
		}
		all32 := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), tilePages*page/4)
		heapSrc := make([]float64, len(floats))
		copy(heapSrc, floats)
		butterfly.Quantize16(all32[len(all32)-rows*lanes:], heapSrc, stride, scatter, 1, math.MaxInt32)
	})
}
