//go:build linux

package butterfly_test

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/butterfly"
)

// TestBlockStaysInsideTile places tiles flush against an inaccessible
// page — the tile's last element is the last word of mapped memory — so a
// pass that read or wrote even one vector past rows*lanes would fault
// rather than pass silently.  Lane counts cover the assembly (multiples
// of 4) and the Go pass, and a tile start that is not vector-aligned.
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
		}
	})
}
