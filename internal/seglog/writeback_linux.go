//go:build linux && (amd64 || arm64)

package seglog

import (
	"os"
	"runtime"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages and return without waiting for it to finish.
const syncFileRangeWrite = 2

// Writeback asks the kernel to start writing f's bytes [off, off+n) back
// to storage and returns without waiting: sync_file_range with
// SYNC_FILE_RANGE_WRITE.  It is a hint, not a sync — it promises nothing
// about durability and its failure changes nothing, so it reports none —
// but it spreads a segment's writeback over the time the segment is
// written, leaving the fsync that seals the segment little to wait for.
// On targets without the call (anything but linux on amd64 or arm64) it
// does nothing.
func Writeback(f *os.File, off, n int64) {
	syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, f.Fd(), uintptr(off), uintptr(n), syncFileRangeWrite, 0, 0)
	runtime.KeepAlive(f)
}
