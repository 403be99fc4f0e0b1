//go:build !amd64 || purego

package butterfly

// useAVX2 is false where the assembly is compiled out; a variable so the
// tests that flip it build everywhere.
var useAVX2 = false

// pass8Vector has no vector pass to run.
func pass8Vector[T elem]([]T, int) bool { return false }

// quantizeVector has no kernel: nothing is proved.
func quantizeVector([]int32, []float64, int, []int, float64, float64) bool { return false }

// rowSumsVector has no kernel: the Go loop reduces.
func rowSumsVector[T int32 | int64]([]int64, []T, int, int) bool { return false }
