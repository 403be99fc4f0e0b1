package main

import "testing"

// TestCheckCatalogueBothWays: the gate fails for a family code registers
// and the catalogue lacks, and for a family the catalogue's tables list
// that no scanned package registers; label suffixes, several names in one
// cell, pattern rows and tables of other things are read correctly.
func TestCheckCatalogueBothWays(t *testing.T) {
	const doc = "intro mentioning `prose_only_total` outside any table\n" +
		"\n" +
		"| Flag | Effect |\n" +
		"|---|---|\n" +
		"| `-not-a-metric` | tables that do not list metrics are ignored |\n" +
		"\n" +
		"| Metric | Kind | Labels | Meaning |\n" +
		"|---|---|---|---|\n" +
		"| `a_total` | counter | `code` | first-column names only: `not_a_family` |\n" +
		"| `b_in_total` / `b_out_total` | counter | | two families in one cell |\n" +
		"| `build_info{version,commit}` | gauge | | labels are not part of the name |\n" +
		"| `go_*` | gauge | | a pattern, not a family |\n"
	registered := func(names ...string) map[string][]string {
		m := map[string][]string{}
		for _, n := range names {
			m[n] = []string{"x.go:1"}
		}
		return m
	}
	for _, tc := range []struct {
		name           string
		families       map[string][]string
		missing, stale int
	}{
		{"in step", registered("a_total", "b_in_total", "b_out_total", "build_info", "prose_only_total"), 0, 0},
		{"code registers a family the catalogue lacks", registered("a_total", "b_in_total", "b_out_total", "build_info", "c_ns"), 1, 0},
		{"catalogue lists families nothing registers", registered("a_total", "b_in_total"), 0, 2},
	} {
		if missing, stale := checkCatalogue("doc.md", doc, tc.families); missing != tc.missing || stale != tc.stale {
			t.Errorf("%s: missing %d stale %d, want %d and %d", tc.name, missing, stale, tc.missing, tc.stale)
		}
	}
}
