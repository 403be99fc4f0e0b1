package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// printRun prints every metric a run measured, by name, with its unit.
func printRun(w io.Writer, res *runResult, fp fingerprint) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", res.Workload, mode)
	fmt.Fprintf(w, "machine: %s\n", fp)
	fmt.Fprintf(w, "requests: attempted=%d ok=%d shed=%d mismatched=%d errored=%d; open-phase latency samples=%d\n",
		res.Attempted, res.OK, res.Shed, res.Mismatched, res.Errored, res.OpenSamples)
	section := func(title string, defs []metricDef) {
		first := true
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			if first {
				fmt.Fprintf(w, "%s:\n", title)
				first = false
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
	section("end-to-end", endToEnd)
	section("per-layer", perLayer)
	if len(res.LayerShares) > 0 {
		fmt.Fprintf(w, "serial ladder, median self time as a share of the request (%.1f us):\n", res.Metrics["acqserver.roundtrip_us_p50"])
		names := make([]string, 0, len(res.LayerShares))
		for n := range res.LayerShares {
			names = append(names, n)
		}
		sort.Strings(names)
		w0, _ := findWorkload(res.Workload)
		on := map[string]bool{}
		for _, n := range onPath(w0) {
			on[n] = true
		}
		for _, n := range names {
			where := "breakdown or off path"
			if on[n] {
				where = "on path"
			}
			fmt.Fprintf(w, "  %-40s %7.2f %%  (%s)\n", n, 100*res.LayerShares[n], where)
		}
		fmt.Fprintf(w, "  %-40s %7.2f %%  (request - on-path layer calls)\n", "acqserver.unattributed", 100*res.Metrics["acqserver.unattributed_share"])
		fmt.Fprintf(w, "  %-40s %7.2f %%  (registries on vs off, closed-phase CPU per frame)\n", "telemetry.metrics_overhead", 100*res.Metrics["telemetry.metrics_overhead_share"])
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "trace: %s\n", res.TraceFile)
	}
}

// valuesOf collects one metric's value from every untraced run of a
// workload.
func valuesOf(runs []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// reportRepeat prints each end-to-end metric's spread across the sets and,
// with check, fails when one exceeds its bound.
func reportRepeat(w io.Writer, spec *benchSpec, file *resultFile, check bool) error {
	bounds := spec.bounds()
	var over []string
	fmt.Fprintf(w, "\nrepeatability across sets (spread = IQR/median from four sets up, range/median below):\n")
	fmt.Fprintf(w, "%-20s %-20s %5s %14s %9s %7s\n", "workload", "metric", "sets", "median", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			v := valuesOf(file.Runs, wl.Name, d.Name)
			if len(v) < 2 {
				continue
			}
			sp, bound := spread(v), bounds[d.Name].Bound
			mark := ""
			if sp > bound {
				mark = "  EXCEEDS"
				over = append(over, wl.Name+"/"+d.Name)
			}
			fmt.Fprintf(w, "%-20s %-20s %5d %14.4f %8.2f%% %6.1f%%%s\n", wl.Name, d.Name, len(v), median(v), 100*sp, 100*bound, mark)
		}
	}
	if check && len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound on %d pairings: %v", len(over), over)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// median and quartiles and the ratio B/A with its base.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if err := a.Fingerprint.sameMachine(b.Fingerprint); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", pathA, pathB, err)
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s with %s: run lengths differ (%g s vs %g s)", pathA, pathB, a.Seconds, b.Seconds)
	}
	bounds := spec.bounds()
	fmt.Printf("A = %s (%s)\nB = %s (%s)\n", pathA, a.Fingerprint.GitCommit, pathB, b.Fingerprint.GitCommit)
	fmt.Printf("%-20s %-20s %34s %34s %22s %7s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B/A (base A)", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a.Runs, wl.Name, d.Name), valuesOf(b.Runs, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			bound := bounds[d.Name].Bound
			fmt.Printf("%-20s %-20s %34s %34s %22s %6.1f%%  %s\n", wl.Name, d.Name,
				describe(va), describe(vb),
				fmt.Sprintf("%.4f (of %.4g %s)", mb/ma, ma, d.Unit), 100*bound,
				verdict(d.Better, va, vb, bound))
		}
	}
	return nil
}

func describe(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(v), q1, q3, len(v))
}

// verdict applies the guide's rule: a pairing whose run-to-run spread is
// wider than the bound is unresolved unless every run of one side beats
// every run of the other; otherwise B regressed when its median is worse
// than A's by more than the bound.
func verdict(better string, a, b []float64, bound float64) string {
	worse := func(x, y float64) bool { // x worse than y
		if better == "higher" {
			return x < y
		}
		return x > y
	}
	worstA, bestA := slices.Min(a), slices.Max(a)
	worstB, bestB := slices.Min(b), slices.Max(b)
	if better == "lower" {
		worstA, bestA = bestA, worstA
		worstB, bestB = bestB, worstB
	}
	if max(spread(a), spread(b)) > bound {
		switch {
		case worse(bestB, worstA):
			return "worse (every run)"
		case worse(bestA, worstB):
			return "better (every run)"
		}
		return "unresolved (spread exceeds the bound)"
	}
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "REGRESSION"
	case change < 0:
		return "better"
	}
	return "within bound"
}
