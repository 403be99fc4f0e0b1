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
// recorded it (goos, goarch, CPU model, GOMAXPROCS — all read from the
// benchmark output itself), because a ledger's ns/op only mean something
// against a rerun on comparable hardware.
//
// With -diff BASELINE.json the tool becomes a regression gate instead of
// a ledger writer: the fresh run on stdin is compared benchmark-by-
// benchmark against the named label (-diff-label, default "after") of the
// baseline ledger, and the exit status is nonzero if any benchmark
// matching -match regressed by more than -max-regress percent in ns/op:
//
//	go test -run XXX -bench 'MicroFrameDeconvolve' -benchmem . | \
//	    go run ./scripts/benchjson -diff BENCH_PR4.json \
//	        -match 'MicroFrameDeconvolve|FHTDecodeBatch' -max-regress 5
//
// Benchmarks present on only one side are reported but never fail the
// gate, so adding or retiring a benchmark does not break the diff.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
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
// recorded on.
type Machine struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// machineKey is the ledger's reserved top-level key: label → Machine.
const machineKey = "machine"

// note records what a `go test -bench` line says about the machine: the
// goos/goarch/cpu header lines, and the -N GOMAXPROCS suffix of a
// benchmark name (absent when N is 1).
func (m *Machine) note(line string) {
	for prefix, dst := range map[string]*string{"goos: ": &m.GOOS, "goarch: ": &m.GOARCH, "cpu: ": &m.CPU} {
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

// runDiff compares the fresh results against the baseline ledger's
// chosen label and returns false if any matched benchmark regressed in
// ns/op beyond the tolerance.
func runDiff(fresh map[string]Result, here Machine, baselinePath, baselineLabel, match string, maxRegressPct float64) bool {
	doc, machines, err := readLedger(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", baselinePath, err)
		return false
	}
	if there, ok := machines[baselineLabel]; ok && there != here {
		fmt.Printf("benchjson: note: baseline recorded on %+v, this run on %+v\n", there, here)
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

	var names []string
	for name := range fresh {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no fresh benchmarks match %q\n", match)
		return false
	}
	pass, compared := true, 0
	for _, name := range names {
		b, inBase := base[name]
		if !inBase {
			fmt.Printf("benchjson: %-40s %12.0f ns/op  (no baseline, skipped)\n", name, fresh[name].NsPerOp)
			continue
		}
		compared++
		deltaPct := 100 * (fresh[name].NsPerOp - b.NsPerOp) / b.NsPerOp
		verdict := "ok"
		if deltaPct > maxRegressPct {
			verdict = "REGRESSED"
			pass = false
		}
		fmt.Printf("benchjson: %-40s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, b.NsPerOp, fresh[name].NsPerOp, deltaPct, verdict)
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: nothing to compare against %s[%s]\n", baselinePath, baselineLabel)
		return false
	}
	if pass {
		fmt.Printf("benchjson: %d benchmarks within %.1f%% of %s[%s]\n",
			compared, maxRegressPct, baselinePath, baselineLabel)
	}
	return pass
}

func main() {
	label := flag.String("label", "run", "label for this benchmark run (e.g. before, after)")
	out := flag.String("out", "", "JSON file to merge results into (default stdout only)")
	diff := flag.String("diff", "", "diff mode: compare the fresh run against this baseline ledger and exit nonzero on regression")
	diffLabel := flag.String("diff-label", "after", "baseline label to diff against")
	match := flag.String("match", ".", "regexp selecting which benchmarks the diff gate applies to")
	maxRegress := flag.Float64("max-regress", 5, "fail the diff if ns/op regressed by more than this percent")
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
	var here Machine
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
