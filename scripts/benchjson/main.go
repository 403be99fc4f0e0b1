// benchjson converts `go test -bench` text output (on stdin) into a
// labelled JSON document so benchmark runs can be diffed across commits:
//
//	go test -run XXX -bench Micro -benchmem . | \
//	    go run ./scripts/benchjson -label after -out BENCH_PR4.json
//
// The output file maps label → benchmark name → parsed results (ns/op,
// B/op, allocs/op and any custom ReportMetric values).  An existing file
// is merged, so "before" and "after" runs accumulate into one document.
// The reserved top-level key "machine" maps each label to the machine that
// recorded it (goos, goarch, CPU model, GOMAXPROCS, butterfly backend —
// all read from the benchmark output itself, accumulated over the runs
// merged into the label), because a ledger's ns/op only mean something
// against a rerun on comparable hardware.
//
// With -diff BASELINE.json the tool becomes a regression gate instead of
// a ledger writer: the fresh run on stdin (taken with -benchmem) is
// compared benchmark-by-benchmark against the named label (-diff-label,
// default "after") of the baseline ledger, and the exit status is nonzero
// if any benchmark matching -match allocates more — neither allocs/op nor
// B/op may rise by more than -max-regress percent:
//
//	go test -run XXX -bench 'MicroFrameDeconvolve' -benchmem . | \
//	    go run ./scripts/benchjson -diff BENCH_PR4.json \
//	        -match 'MicroFrameDeconvolve|FHTDecodeBatch' -max-regress 5
//
// The allocation figures repeat from run to run to within their
// resolution (go test prints the truncated mean, so a benchmark that fans
// out to goroutines reads 27 or 28 from one binary; a zero stays zero);
// ns/op on a shared box does not (the same binary swings by tens of
// percent), so its delta is printed beside the verdict as information and
// never fails the gate.
// Benchmarks present on only one side are reported but never fail the
// gate either, so adding or retiring a benchmark does not break the diff.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line in parsed form.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Machine identifies the hardware and scheduler width a label was
// recorded on, and the butterfly backend (butterfly.Backend(): "avx2" or
// "go") the decode benchmarks ran on.
type Machine struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Backend    string `json:"fwht_backend,omitempty"`
}

// machineKey is the ledger's reserved top-level key: label → Machine.
const machineKey = "machine"

// note records what a `go test -bench` line says about the machine: the
// goos/goarch/cpu header lines, the fwht_backend line that
// BenchmarkButterflyBlock prints, and the -N GOMAXPROCS suffix of a
// benchmark name (absent when N is 1).
func (m *Machine) note(line string) {
	for prefix, dst := range map[string]*string{"goos: ": &m.GOOS, "goarch: ": &m.GOARCH, "cpu: ": &m.CPU, "fwht_backend: ": &m.Backend} {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			*dst = strings.TrimSpace(v)
		}
	}
	if strings.HasPrefix(line, "Benchmark") {
		m.GOMAXPROCS = 1
		if f := strings.Fields(line); len(f) > 0 {
			if i := strings.LastIndex(f[0], "-"); i >= 0 {
				if n, err := strconv.Atoi(f[0][i+1:]); err == nil {
					m.GOMAXPROCS = n
				}
			}
		}
	}
}

// readLedger loads a ledger file: the runs by label, and the machines by
// label from the reserved key (absent in ledgers older than it).
func readLedger(path string) (map[string]map[string]Result, map[string]Machine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	raw := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, err
	}
	runs, machines := map[string]map[string]Result{}, map[string]Machine{}
	for key, v := range raw {
		if key == machineKey {
			err = json.Unmarshal(v, &machines)
		} else {
			run := map[string]Result{}
			err = json.Unmarshal(v, &run)
			runs[key] = run
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", key, err)
		}
	}
	return runs, machines, nil
}

// parseLine parses one `BenchmarkName-N  iters  value unit  ...` line,
// reporting ok=false for non-benchmark lines.
func parseLine(line string) (name string, r Result, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, false
	}
	name = strings.SplitN(fields[0], "-", 2)[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	r = Result{Iterations: iters}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return name, r, true
}

// runDiff loads the baseline ledger's chosen label and gates the fresh
// results against it (see diffRuns).
func runDiff(fresh map[string]Result, here Machine, baselinePath, baselineLabel, match string, maxRegressPct float64) bool {
	doc, machines, err := readLedger(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", baselinePath, err)
		return false
	}
	if there, ok := machines[baselineLabel]; ok {
		if here.Backend == "" { // this run printed no fwht_backend line
			there.Backend = ""
		}
		if there != here {
			fmt.Printf("benchjson: note: baseline recorded on %+v, this run on %+v\n", there, here)
		}
	}
	base := doc[baselineLabel]
	if base == nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s has no label %q\n", baselinePath, baselineLabel)
		return false
	}
	re, err := regexp.Compile(match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -match: %v\n", err)
		return false
	}
	return diffRuns(os.Stdout, base, fresh, re, maxRegressPct, fmt.Sprintf("%s[%s]", baselinePath, baselineLabel))
}

// diffRuns is the gate: for every fresh benchmark matching re that the
// baseline also has, neither allocs/op nor B/op may rise by more than
// maxRegressPct percent (so any allocation where the baseline has none
// fails).  B/op is only gated where the fresh run allocates at least once
// per op — below that it is a one-time set-up allocation divided by b.N,
// which moves with the iteration count.  The ns/op delta is printed and
// never judged.  It reports whether the gate passed; a diff with nothing
// to compare fails.
func diffRuns(w io.Writer, base, fresh map[string]Result, re *regexp.Regexp, maxRegressPct float64, baseName string) bool {
	var names []string
	for name := range fresh {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(w, "benchjson: no fresh benchmarks match %q\n", re)
		return false
	}
	pass, compared, tol := true, 0, 1+maxRegressPct/100
	for _, name := range names {
		f := fresh[name]
		b, inBase := base[name]
		if !inBase {
			fmt.Fprintf(w, "benchjson: %-40s %12.0f ns/op  (no baseline, skipped)\n", name, f.NsPerOp)
			continue
		}
		if f.AllocsOp == nil || f.BytesPerOp == nil || b.AllocsOp == nil || b.BytesPerOp == nil {
			fmt.Fprintf(w, "benchjson: %-40s no allocation figures on both sides (run with -benchmem), skipped\n", name)
			continue
		}
		compared++
		verdict := "ok"
		switch {
		case *f.AllocsOp > *b.AllocsOp*tol:
			verdict = "MORE ALLOCS"
		case *f.AllocsOp >= 1 && *f.BytesPerOp > *b.BytesPerOp*tol:
			verdict = "MORE BYTES"
		}
		pass = pass && verdict == "ok"
		fmt.Fprintf(w, "benchjson: %-40s %4.0f -> %4.0f allocs/op  %9.0f -> %9.0f B/op  %s  (ns/op %.0f -> %.0f, %+.1f%%: not gated)\n",
			name, *b.AllocsOp, *f.AllocsOp, *b.BytesPerOp, *f.BytesPerOp, verdict,
			b.NsPerOp, f.NsPerOp, 100*(f.NsPerOp-b.NsPerOp)/b.NsPerOp)
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchjson: nothing to compare against %s\n", baseName)
		return false
	}
	if pass {
		fmt.Fprintf(w, "benchjson: %d benchmarks allocate no more than %s (allocs/op and B/op within %.1f%%)\n",
			compared, baseName, maxRegressPct)
	}
	return pass
}

func main() {
	label := flag.String("label", "run", "label for this benchmark run (e.g. before, after)")
	out := flag.String("out", "", "JSON file to merge results into (default stdout only)")
	diff := flag.String("diff", "", "diff mode: compare the fresh run against this baseline ledger and exit nonzero on regression")
	diffLabel := flag.String("diff-label", "after", "baseline label to diff against")
	match := flag.String("match", ".", "regexp selecting which benchmarks the diff gate applies to")
	maxRegress := flag.Float64("max-regress", 5, "fail the diff if allocs/op or B/op rose by more than this percent (ns/op is reported, not gated)")
	flag.Parse()

	doc, machines := map[string]map[string]Result{}, map[string]Machine{}
	if *out != "" {
		if _, err := os.Stat(*out); err == nil {
			if doc, machines, err = readLedger(*out); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: existing %s is not mergeable: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	if doc[*label] == nil {
		doc[*label] = map[string]Result{}
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	here := machines[*label] // a label merged from several runs keeps what each said
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the text through so the run stays readable
		here.note(line)
		if name, r, ok := parseLine(line); ok {
			doc[*label][name] = r
			n++
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if n == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	if *diff != "" {
		if !runDiff(doc[*label], here, *diff, *diffLabel, *match, *maxRegress) {
			os.Exit(1)
		}
		return
	}

	machines[*label] = here
	file := map[string]any{machineKey: machines}
	for l, run := range doc {
		file[l] = run
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: merged %d benchmarks into %s under label %q\n", n, *out, *label)
}
