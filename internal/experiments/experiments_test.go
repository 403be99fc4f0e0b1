package experiments

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// runQuick executes an experiment in quick mode with a fixed seed.
func runQuick(t *testing.T, run Runner) *Table {
	t.Helper()
	tab, err := run(1234, true)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
		t.Fatalf("table %q incomplete: %+v", tab.ID, tab)
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("table %s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
		}
	}
	return tab
}

// cell parses a numeric cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not numeric: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "T", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 1e9)
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "2.500") {
		t.Errorf("formatted table missing content:\n%s", out)
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "a,b\n") {
		t.Errorf("CSV header wrong: %q", buf.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2.5:     "2.500",
		123.456: "123.5",
		1e9:     "1e+09",
		1e-6:    "1e-06",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestAllRegistry(t *testing.T) {
	reg := All()
	if len(reg) < 14 {
		t.Fatalf("registry has %d experiments", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("%s has nil runner", e.ID)
		}
	}
}

// TestE1Shape: the trapped multiplexed mode must beat signal averaging at
// every order, and the gain must grow with sequence order.
func TestE1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E1MultiplexingGain)
	prevGain := 0.0
	for r := range tab.Rows {
		trapGain := cell(t, tab, r, 6)
		if trapGain <= 1 {
			t.Errorf("row %d: trap gain %g should exceed 1", r, trapGain)
		}
		if trapGain < prevGain*0.7 {
			t.Errorf("row %d: trap gain %g fell sharply from %g (should grow with order)", r, trapGain, prevGain)
		}
		prevGain = trapGain
		theory := cell(t, tab, r, 7)
		if theory <= 1 {
			t.Errorf("row %d: theory %g", r, theory)
		}
	}
}

// TestE2Shape: the enhanced decode must beat the naive decode.
func TestE2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E2DeconvolutionFidelity)
	for r := range tab.Rows {
		improvement := cell(t, tab, r, 3)
		if improvement <= 1 {
			t.Errorf("row %d: enhancement improvement %g should exceed 1", r, improvement)
		}
	}
}

// TestE3Shape: the FPGA offload must beat a single CPU thread and keep up
// with the instrument in real time.
func TestE3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	tab := runQuick(t, E3FPGAvsCPU)
	for r := range tab.Rows {
		if margin := cell(t, tab, r, 8); margin < 1 {
			t.Errorf("row %d: real-time margin %g below 1", r, margin)
		}
	}
}

// TestE4Shape asserts only what is deterministic about the scaling table:
// one row per power-of-two worker count up to GOMAXPROCS, a baseline
// speed-up of exactly 1, positive rates, and a busy fraction that is a
// fraction.  Whether more workers are faster is a measurement — one
// repetition on a machine shared with thirty other test binaries says
// nothing about it — and belongs to BenchmarkE4CPUScaling and the ledger.
func TestE4Shape(t *testing.T) {
	tab := runQuick(t, E4CPUScaling)
	workers := 1
	for r := range tab.Rows {
		if got := cell(t, tab, r, 0); got != float64(workers) {
			t.Errorf("row %d: %g workers, want %d", r, got, workers)
		}
		if rate, speedup := cell(t, tab, r, 1), cell(t, tab, r, 2); rate <= 0 || speedup <= 0 {
			t.Errorf("row %d: rate %g, speedup %g: want both positive", r, rate, speedup)
		}
		if busy := cell(t, tab, r, 4); busy <= 0 || busy > 1.05 {
			t.Errorf("row %d: busy fraction %g outside (0, 1.05]", r, busy)
		}
		workers *= 2
	}
	if procs := runtime.GOMAXPROCS(0); workers <= procs || workers > 2*procs {
		t.Errorf("%d rows do not cover the powers of two up to GOMAXPROCS %d", len(tab.Rows), procs)
	}
	if cell(t, tab, 0, 2) != 1 {
		t.Error("speedup baseline should be 1")
	}
}

// TestE5Shape: accumulation reduces the stream and the reduction grows
// with depth.
func TestE5Shape(t *testing.T) {
	tab := runQuick(t, E5DataPath)
	prev := 0.0
	for r := range tab.Rows {
		red := cell(t, tab, r, 3)
		if red < prev {
			t.Errorf("row %d: reduction %g decreased", r, red)
		}
		prev = red
	}
}

// TestE6Shape: SA << MP < trap utilization ordering at every order.
func TestE6Shape(t *testing.T) {
	tab := runQuick(t, E6IonUtilization)
	for r := range tab.Rows {
		sa, mp, tr := cell(t, tab, r, 2), cell(t, tab, r, 3), cell(t, tab, r, 4)
		if !(sa < mp && mp < tr && tr <= 1) {
			t.Errorf("row %d: utilization ordering broken: %g %g %g", r, sa, mp, tr)
		}
	}
}

// TestE7Shape: the trapped multiplexed platform must detect at least as
// many spiked peptides as signal averaging, and strictly more at the low
// end.
func TestE7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E7DynamicRange)
	if len(tab.Rows) != 20 {
		t.Fatalf("spike panel rows %d, want 20", len(tab.Rows))
	}
	var sa, tr int
	for r := range tab.Rows {
		if tab.Rows[r][4] == "true" {
			sa++
		}
		if tab.Rows[r][5] == "true" {
			tr++
		}
	}
	if tr <= sa {
		t.Errorf("trap detected %d, SA detected %d: expected trap to win", tr, sa)
	}
	if tr < 6 {
		t.Errorf("trap detected only %d/20", tr)
	}
}

// TestE9Shape: a sensible number of unique BSA peptides at low FDR.
func TestE9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E9PeptideIDs)
	vals := map[string]string{}
	for _, row := range tab.Rows {
		vals[row[0]] = row[1]
	}
	unique, err := strconv.Atoi(vals["unique peptides identified"])
	if err != nil {
		t.Fatal(err)
	}
	if unique < 10 {
		t.Errorf("unique peptides %d, want >= 10", unique)
	}
	fdr, err := strconv.ParseFloat(vals["FDR"], 64)
	if err != nil {
		t.Fatal(err)
	}
	if fdr > 0.1 {
		t.Errorf("FDR %g, want <= 0.1", fdr)
	}
}

// TestE10Shape: error shrinks monotonically with wider formats (among the
// saturate rows) and the widest format is near float precision.
func TestE10Shape(t *testing.T) {
	tab := runQuick(t, E10FixedPoint)
	var prev float64 = -1
	for r := range tab.Rows {
		if tab.Rows[r][1] != "saturate" {
			continue
		}
		e := cell(t, tab, r, 2)
		if prev >= 0 && e > prev*1.5 {
			t.Errorf("row %d: error %g grew vs %g with a wider format", r, e, prev)
		}
		prev = e
	}
	lastErr := cell(t, tab, len(tab.Rows)-1, 2)
	if lastErr > 1e-3 {
		t.Errorf("widest format error %g too large", lastErr)
	}
}

// TestE11Shape: resolving power decreases monotonically with packet charge
// and the degradation onset sits above 1e3 charges.
func TestE11Shape(t *testing.T) {
	tab := runQuick(t, E11SpaceCharge)
	prev := 1e18
	for r := range tab.Rows {
		rp := cell(t, tab, r, 3)
		if rp > prev {
			t.Errorf("row %d: resolving power %g increased with charge", r, rp)
		}
		prev = rp
	}
	first := cell(t, tab, 0, 4)
	last := cell(t, tab, len(tab.Rows)-1, 4)
	if first < 0.9 {
		t.Errorf("at 1e3 charges resolution fraction %g should be near 1", first)
	}
	if last > 0.8 {
		t.Errorf("at 1e7 charges resolution fraction %g should be degraded", last)
	}
}

// TestE12Shape: AGC keeps packets near target through the apex while the
// fixed fill saturates the trap.
func TestE12Shape(t *testing.T) {
	tab := runQuick(t, E12AGC)
	var apexRow int
	maxRate := 0.0
	for r := range tab.Rows {
		rate := cell(t, tab, r, 1)
		if rate > maxRate {
			maxRate = rate
			apexRow = r
		}
	}
	agcRatio := cell(t, tab, apexRow, 3)
	if agcRatio > 3 {
		t.Errorf("AGC packet/target %g at apex, want near 1", agcRatio)
	}
	fixedFill := cell(t, tab, apexRow, 4)
	if fixedFill < 0.9 {
		t.Errorf("fixed fill should saturate at apex, got %g of capacity", fixedFill)
	}
	if losses := cell(t, tab, apexRow, 5); losses <= 0 {
		t.Error("fixed fill should lose charge at apex")
	}
}

// TestE8Shape: the modified-PRS scheme must beat the naive decode in
// reconstruction error.
func TestE8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E8ModifiedPRS)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	naiveErr := cell(t, tab, 0, 2)
	modErr := cell(t, tab, 2, 2)
	if modErr >= naiveErr {
		t.Errorf("modified PRS error %g should beat naive %g", modErr, naiveErr)
	}
	// The modified sequence doubles the gating bin rate (oversample 2 at
	// half bin width): pulses per ms should be at least that of the plain
	// scheme.
	if cell(t, tab, 2, 1) < cell(t, tab, 0, 1) {
		t.Error("modified PRS should not reduce gate pulse rate")
	}
}

// TestAblations: both ablation tables must demonstrate their design choice.
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	a1 := runQuick(t, AblationDirectVsFHT)
	for r := range a1.Rows {
		if sp := cell(t, a1, r, 4); sp <= 1 {
			t.Errorf("A1 row %d: FHT speedup %g should exceed 1", r, sp)
		}
	}
	a2 := runQuick(t, AblationAccumulatePlacement)
	lastRow := a2.Rows[len(a2.Rows)-1]
	if lastRow[2] == "true" {
		t.Error("A2: raw streaming should become infeasible at the highest rate")
	}
	if lastRow[4] != "true" {
		t.Error("A2: accumulated streaming should remain feasible")
	}
}

func TestTheoreticalGain(t *testing.T) {
	// (N+1)/(2 sqrt N) for N=255 is ~8.
	g := theoreticalGain(255)
	if g < 7.9 || g > 8.1 {
		t.Errorf("theoretical gain %g, want ~8", g)
	}
}

func TestTopFeatures(t *testing.T) {
	rows := topFeatures(nil, 5)
	if len(rows) != 0 {
		t.Error("no features should give no rows")
	}
}

// TestE13Shape: ADC must preserve the 100x ratio far better than TDC in the
// regime between the two saturation points.
func TestE13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E13DetectionDynamicRange)
	// First quick row: 1e7 charges/s — ADC linear, TDC saturated.
	adc := cell(t, tab, 0, 1)
	tdc := cell(t, tab, 0, 2)
	if adc < 10*tdc {
		t.Errorf("ADC ratio %g should dwarf TDC ratio %g at moderate flux", adc, tdc)
	}
	if tdc > 10 {
		t.Errorf("TDC ratio %g should be heavily compressed", tdc)
	}
}

// TestE14Shape: identifications accumulate across the gradient.
func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E14LCGradient)
	prev := -1.0
	for r := range tab.Rows {
		cum := cell(t, tab, r, 5)
		if cum < prev {
			t.Errorf("cumulative identifications decreased at segment %d", r)
		}
		prev = cum
	}
	if prev < 3 {
		t.Errorf("cumulative unique peptides %g, want >= 3", prev)
	}
}

// TestE15Shape: the saturated pipeline is bounded by the deconvolve core
// and slower arrivals stretch cycles/col accordingly.
func TestE15Shape(t *testing.T) {
	tab := runQuick(t, E15StreamingDynamics)
	sat := cell(t, tab, 0, 1)
	slow := cell(t, tab, len(tab.Rows)-1, 1)
	if slow <= sat {
		t.Error("slower arrivals should increase cycles per column")
	}
	if tab.Rows[0][3] != "deconvolve" {
		t.Errorf("saturated bottleneck %q, want deconvolve", tab.Rows[0][3])
	}
}

// TestE16Shape: most peptides gain fragment evidence, decoy matches stay
// rare.
func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E16MultiplexedCID)
	var identified, decoys, queried int
	for r := range tab.Rows {
		if tab.Rows[r][6] == "true" {
			identified++
		}
		decoys += int(cell(t, tab, r, 5))
		queried += int(cell(t, tab, r, 3))
	}
	if identified < len(tab.Rows)/2 {
		t.Errorf("identified %d of %d peptides", identified, len(tab.Rows))
	}
	if decoys*10 > queried {
		t.Errorf("decoy matches %d of %d queried fragments — too many", decoys, queried)
	}
}

// TestE17Shape: delta < raw < csv.
func TestE17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E17FrameFormat)
	sizes := map[string]float64{}
	for r := range tab.Rows {
		sizes[tab.Rows[r][0]] = cell(t, tab, r, 1)
	}
	// Delta must be the smallest encoding (raw-vs-CSV ordering depends on
	// frame sparsity and is not asserted).
	if !(sizes["delta varint"] < sizes["raw float64"] && sizes["delta varint"] < sizes["csv"]) {
		t.Errorf("delta not smallest: %v", sizes)
	}
	if sizes["delta varint"]*3 > sizes["raw float64"] {
		t.Errorf("delta compression too weak: %v", sizes)
	}
}

// TestE18Shape: aggregate rate is nondecreasing, efficiency 1 at one node,
// and the host link limits the largest configurations.
func TestE18Shape(t *testing.T) {
	tab := runQuick(t, E18ClusterScaling)
	if cell(t, tab, 0, 4) < 0.99 {
		t.Error("single-node efficiency should be 1")
	}
	prev := 0.0
	for r := range tab.Rows {
		agg := cell(t, tab, r, 2)
		if agg < prev {
			t.Errorf("aggregate decreased at row %d", r)
		}
		prev = agg
	}
	if tab.Rows[len(tab.Rows)-1][5] != "host-link" {
		t.Error("largest configuration should be host-link limited")
	}
}

// TestE19Shape: calibrants recover within the fit residual, unknowns within
// ~1 %.
func TestE19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E19CCSCalibration)
	for r := range tab.Rows {
		errPct := cell(t, tab, r, 5)
		limit := 1.5
		if tab.Rows[r][1] == "calibrant" {
			limit = 0.5
		}
		if errPct > limit {
			t.Errorf("%s (%s): CCS error %g%% exceeds %g%%", tab.Rows[r][0], tab.Rows[r][1], errPct, limit)
		}
	}
}

// TestE20Shape: measured isotope ratios within 15 % of theory.
func TestE20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiment")
	}
	tab := runQuick(t, E20IsotopeFidelity)
	for r := range tab.Rows {
		if dev := cell(t, tab, r, 4); dev > 15 {
			t.Errorf("%s: isotope ratio deviation %g%% exceeds 15%%", tab.Rows[r][0], dev)
		}
	}
	// Theory ratio grows with mass.
	if len(tab.Rows) >= 2 {
		if cell(t, tab, len(tab.Rows)-1, 2) <= cell(t, tab, 0, 2) {
			t.Error("theoretical M+1/M should grow with mass")
		}
	}
}
