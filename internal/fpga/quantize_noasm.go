//go:build !amd64 || purego

package fpga

// useAVX2 is false where the assembly is compiled out; a variable so the
// tests that flip it build everywhere.
var useAVX2 = false

// quantizeVector has no vector pass to run: the Go loop quantizes.
func (c *FHTCore) quantizeVector([]int64, []float64, int, int, int) bool { return false }
