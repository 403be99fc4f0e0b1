//go:build !amd64 || purego

package butterfly

// useAVX2 is false where the assembly is compiled out; a variable so the
// tests that flip it build everywhere.
var useAVX2 = false

// pass8Vector has no vector pass to run.
func pass8Vector[T float64 | int64]([]T, int) bool { return false }
