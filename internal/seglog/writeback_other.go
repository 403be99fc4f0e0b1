//go:build !(linux && (amd64 || arm64))

package seglog

import "os"

// Writeback does nothing here.  sync_file_range is Linux's, and on 32-bit
// Linux its 64-bit offsets take register pairs in an order that differs
// by architecture; the hint is not worth that.  See the linux
// amd64/arm64 version.
func Writeback(f *os.File, off, n int64) {}
