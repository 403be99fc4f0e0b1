// Command bench is the repository's ingest-to-ack benchmark: it starts
// acqserver, gateway and framelog in-process on loopback listeners, drives
// them through the wire protocol with a closed-loop and an open-loop load
// generator, checks every response against a reference it computed
// itself, and prints every metric by name with its unit.  See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	walDir   string
	specPath string
	result   string
	smoke    bool
	repeat   int
	check    bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all (each workload runs in its own process)")
	flag.Int64Var(&o.seed, "seed", 2007, "seed of the frame pool and the open-phase schedule")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of the spec)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, spans, registries on")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for traces and result files")
	flag.StringVar(&o.walDir, "waldir", "", "directory WAL workloads create their logs under (default: -out)")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark's contract: names, units, bounds")
	flag.StringVar(&o.result, "result", "", "also write this run's full record to the file")
	flag.BoolVar(&o.smoke, "smoke", false, "shortest run of every phase, all workloads in this process")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many full sets, alternating workload order")
	flag.BoolVar(&o.check, "check", false, "with -repeat: fail if an end-to-end metric's spread across sets exceeds its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.walDir == "" {
		o.walDir = o.outDir
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return errors.New("usage: -compare A.json B.json")
		}
		return compareFiles(spec, args[0], args[1])
	case o.smoke:
		return runSmoke(o)
	case o.workload != "all" && o.repeat <= 1:
		return runOne(o)
	}
	return runSets(o, spec)
}

func (o options) runConfig() runConfig {
	cfg := fullConfig(o.seconds, o.trace != 0)
	if o.smoke {
		cfg = smokeConfig(o.trace != 0)
	}
	cfg.seed, cfg.outDir, cfg.walBase = o.seed, o.outDir, o.walDir
	return cfg
}

// runOne runs one workload in this process and ends with the result line
// the driver reads.
func runOne(o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o.runConfig())
	if err != nil {
		return err
	}
	printRun(os.Stdout, res, takeFingerprint(o.seed, o.walDir))
	if o.result != "" {
		if err := writeJSON(o.result, res); err != nil {
			return err
		}
	}
	fmt.Println(resultLine(res))
	if res.failed() != 0 {
		return fmt.Errorf("%s: %d of %d requests failed (%d shed, %d mismatched the reference, %d errored)", w.Name, res.failed(), res.Attempted, res.Shed, res.Mismatched, res.Errored)
	}
	return nil
}

// resultLine is the driver's contract: one JSON object, end-to-end metrics
// on an untraced run and per-layer metrics on a traced one.
func resultLine(res *runResult) string {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed() == 0, res.Attempted, res.failed(), map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func runSmoke(o options) error {
	for _, w := range workloads {
		if o.workload != "all" && o.workload != w.Name {
			continue
		}
		res, err := runWorkload(w, o.runConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		printRun(os.Stdout, res, takeFingerprint(o.seed, o.walDir))
		if res.failed() != 0 {
			return fmt.Errorf("%s: %d of %d requests failed", w.Name, res.failed(), res.Attempted)
		}
	}
	return nil
}

// resultFile is what -workload all and -repeat leave behind and what
// -compare reads.
type resultFile struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Seconds     float64      `json:"seconds"`
	Runs        []*runResult `json:"runs"`
}

// runSets runs every selected workload in a process of its own, o.repeat
// times over, reversing the order on every other set.
func runSets(o options, spec *benchSpec) error {
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(o.walDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Fingerprint: takeFingerprint(o.seed, o.walDir), Seconds: o.seconds}
	for set := 0; set < max(o.repeat, 1); set++ {
		for i := range selected {
			w := selected[i]
			if set%2 == 1 {
				w = selected[len(selected)-1-i]
			}
			tmp := filepath.Join(o.outDir, fmt.Sprintf("run-%d-%s.json", set, w.Name))
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-out", o.outDir, "-waldir", o.walDir,
				"-spec", o.specPath, "-result", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set %d, %s: %w", set, w.Name, err)
			}
			var res runResult
			if err := readJSON(tmp, &res); err != nil {
				return err
			}
			_ = os.Remove(tmp)
			file.Runs = append(file.Runs, &res)
		}
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := writeJSON(path, file); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", path)
	if o.repeat > 1 {
		return reportRepeat(os.Stdout, spec, &file, o.check)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
