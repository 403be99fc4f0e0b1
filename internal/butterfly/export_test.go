package butterfly

// SetAVX2 switches the assembly pass on or off for the equivalence tests
// and benchmarks, returning the previous setting.  Switching it on is
// only valid where the init-time probe had it on.
func SetAVX2(on bool) (prev bool) {
	prev, useAVX2 = useAVX2, on
	return prev
}
