package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestDiffGatesAllocationsNotTime runs the gate over a two-ledger
// fixture: a run 40 % slower in ns/op passes with the delta printed —
// its 28 → 29 allocs/op is inside the truncated mean's resolution and
// its B/op below one allocation per op (a set-up allocation divided by
// b.N) is not judged — while one extra allocation on a six-allocation
// path, a first allocation on a zero-allocation path, and the same
// allocations made 8 % larger all fail.
func TestDiffGatesAllocationsNotTime(t *testing.T) {
	base, machines, err := readLedger("testdata/base.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := machines["after"].Backend; got != "avx2" {
		t.Errorf("baseline fwht_backend %q, want avx2", got)
	}
	fresh, _, err := readLedger("testdata/fresh.json")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(".")
	for _, c := range []struct {
		label string
		pass  bool
		says  []string
	}{
		{"slower", true, []string{"+40.0%: not gated", "BenchmarkNew", "no baseline", "2 benchmarks allocate no more"}},
		{"extra_alloc", false, []string{"6 ->    7 allocs/op", "MORE ALLOCS"}},
		{"first_alloc", false, []string{"0 ->    1 allocs/op", "MORE ALLOCS"}},
		{"fatter", false, []string{"MORE BYTES"}},
	} {
		var out strings.Builder
		if got := diffRuns(&out, base["after"], fresh[c.label], re, 5, "testdata/base.json[after]"); got != c.pass {
			t.Errorf("%s: gate passed = %v, want %v\n%s", c.label, got, c.pass, out.String())
		}
		for _, want := range c.says {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", c.label, want, out.String())
			}
		}
	}
	var out strings.Builder
	if diffRuns(&out, base["after"], fresh["slower"], regexp.MustCompile("NoSuchBenchmark"), 5, "base") {
		t.Errorf("a diff that compared nothing passed:\n%s", out.String())
	}
}

// TestMachineNote reads the machine, including the butterfly backend,
// off benchmark output lines.
func TestMachineNote(t *testing.T) {
	var m Machine
	for _, line := range []string{
		"fwht_backend: avx2", "goos: linux", "goarch: amd64", "cpu: fixture",
		"BenchmarkButterflyBlock/float64/avx2-2   2000   3371 ns/op   21.88 GFLOP/s   210.6 ns/col",
	} {
		m.note(line)
	}
	if want := (Machine{GOOS: "linux", GOARCH: "amd64", CPU: "fixture", GOMAXPROCS: 2, Backend: "avx2"}); m != want {
		t.Errorf("machine %+v, want %+v", m, want)
	}
	name, r, ok := parseLine("BenchmarkButterflyBlock/float64/avx2-2   2000   3371 ns/op   21.88 GFLOP/s   210.6 ns/col")
	if !ok || name != "BenchmarkButterflyBlock/float64/avx2" || r.NsPerOp != 3371 || r.Metrics["ns/col"] != 210.6 {
		t.Errorf("parsed %q %+v ok=%v", name, r, ok)
	}
}
