// Command imstop is a live terminal ops console for the imsd daemon: it
// polls /metrics.json and /readyz on the daemon's metrics address and
// renders queue occupancy per shard, stage latency quantiles (cumulative
// and rolling 60 s window), traffic and shed rates, Go runtime state, and
// the SLO health verdict — a top(1) for the acquisition pipeline, stdlib
// only.
//
// Usage:
//
//	imstop [-url http://HOST:PORT] [-interval D] [-once] [-fleet]
//	       [-history FAMILY] [-quantile F] [-since T] [-until T]
//	       [-step D] [-match k=v,...] [-res raw|1m|10m]
//
// In live mode the screen redraws every -interval using ANSI clear; rates
// (req/s, shed/s, MiB/s) are deltas between consecutive polls.  With
// -once a single snapshot is printed without clearing the screen — usable
// from scripts — and rate columns show totals instead.
//
// With -fleet the URL must point at an imsgw metrics address: imstop
// polls the gateway's /metrics/fleet rollup (the gw_fleet_* gauges, one
// set per backend) and renders the whole cluster as one line per backend
// — up/down, health verdict, sessions, frame and shed rates, queue depth
// and worst p99 — a one-screen answer to "how is the fleet doing".
//
// With -history FAMILY the daemon must run with -history: imstop queries
// /metrics/history for the family over the -since..-until range (server
// resolution picked by -res or retention) and renders one unicode
// sparkline per matched series, with min/avg/max/last beside it —
// "what did p99 do over the last hour" in one command.  For histogram
// families -quantile picks the evaluated quantile (0 renders the mean);
// -match restricts by labels (comma-separated k=v pairs); -step sets the
// bucket width.  History mode prints once and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/tsdb"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "imstop: "+format+"\n", args...)
	os.Exit(1)
}

// poll is one scrape of the daemon: the decoded metrics snapshot, the
// readiness report (nil when /readyz was unreachable), and when it was
// taken.
type poll struct {
	when  time.Time
	snap  telemetry.Snapshot
	ready *health.ReadyReport
}

// byKey indexes a snapshot by family name and one distinguishing label
// value, so lookups read like metric("acq_queue_depth", "shard", "3").
type byKey map[string]telemetry.Metric

func index(s telemetry.Snapshot) byKey {
	m := byKey{}
	for _, met := range s.Metrics {
		key := met.Name
		labels := make([]string, 0, len(met.Labels))
		for k, v := range met.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		if len(labels) > 0 {
			key += "{" + strings.Join(labels, ",") + "}"
		}
		m[key] = met
	}
	return m
}

// value reads a counter/gauge by composed key, 0 when absent.
func (m byKey) value(key string) float64 {
	met, ok := m[key]
	if !ok || met.Value == nil {
		return 0
	}
	return *met.Value
}

func main() {
	url := flag.String("url", "http://127.0.0.1:9090", "imsd (or, with -fleet, imsgw) metrics server base URL")
	interval := flag.Duration("interval", 2*time.Second, "refresh period in live mode")
	once := flag.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	fleet := flag.Bool("fleet", false, "render the gateway's /metrics/fleet rollup: one line per backend")
	historyFam := flag.String("history", "", "render sparklines for this family from /metrics/history and exit")
	histQuantile := flag.Float64("quantile", 0.99, "quantile evaluated for histogram families in -history mode (0 = mean)")
	histSince := flag.String("since", "-30m", "-history range start (RFC3339, unix seconds, or -duration)")
	histUntil := flag.String("until", "", "-history range end (default now)")
	histStep := flag.Duration("step", 0, "-history bucket width (0 = auto)")
	histMatch := flag.String("match", "", "-history label filter: comma-separated k=v pairs")
	histRes := flag.String("res", "", "-history resolution: raw, 1m or 10m (default auto by range)")
	flag.Parse()
	base := strings.TrimRight(*url, "/")

	if *historyFam != "" {
		if err := renderHistory(os.Stdout, base, historyParams{
			family:   *historyFam,
			quantile: *histQuantile,
			since:    *histSince,
			until:    *histUntil,
			step:     *histStep,
			match:    *histMatch,
			res:      *histRes,
		}); err != nil {
			fail("%v", err)
		}
		return
	}

	scrapeFn, renderFn := scrape, render
	if *fleet {
		scrapeFn, renderFn = scrapeFleet, renderFleet
	}

	cur, err := scrapeFn(base)
	if err != nil {
		fail("%v", err)
	}
	if *once {
		renderFn(os.Stdout, base, nil, cur)
		return
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	var prev *poll
	for {
		var sb strings.Builder
		sb.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		renderFn(&sb, base, prev, cur)
		fmt.Print(sb.String())
		select {
		case <-sigc:
			fmt.Println()
			return
		case <-tick.C:
		}
		prev = cur
		next, err := scrapeFn(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nimstop: %v (retrying)\n", err)
			prev = nil
			continue
		}
		cur = next
	}
}

// historyParams carries the -history mode query knobs.
type historyParams struct {
	family   string
	quantile float64
	since    string
	until    string
	step     time.Duration
	match    string
	res      string
}

// sparkRunes are the eight block-height glyphs a sparkline is built from.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as one rune per point, scaled to the series'
// own min..max (a flat series renders mid-height).
func sparkline(values []float64) string {
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := len(sparkRunes) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// renderHistory queries /metrics/history and prints one sparkline per
// matched series.
func renderHistory(w io.Writer, base string, p historyParams) error {
	q := neturl.Values{}
	q.Set("family", p.family)
	q.Set("since", p.since)
	if p.until != "" {
		q.Set("until", p.until)
	}
	if p.step > 0 {
		q.Set("step", p.step.String())
	}
	if p.quantile > 0 {
		q.Set("quantile", fmt.Sprintf("%g", p.quantile))
	}
	if p.res != "" {
		q.Set("res", p.res)
	}
	for _, m := range strings.Split(p.match, ",") {
		if m = strings.TrimSpace(m); m != "" {
			q.Add("match", m)
		}
	}
	body, _, err := get(base + "/metrics/history?" + q.Encode())
	if err != nil {
		return err
	}
	var res tsdb.QueryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decode %s/metrics/history: %w", base, err)
	}
	eval := "value"
	if res.Kind == "histogram" {
		eval = "mean"
		if res.Quantile > 0 {
			eval = fmt.Sprintf("p%g", res.Quantile*100)
		}
	} else if res.Kind == "counter" {
		eval = "increase/step"
	}
	fmt.Fprintf(w, "history — %s — %s (%s, step %gs, %s)\n",
		base, res.Family, res.Resolution, res.StepS, eval)
	if len(res.Series) == 0 {
		fmt.Fprintln(w, "  (no stored points in range — is the daemon running with -history?)")
		return nil
	}
	isNs := strings.HasSuffix(res.Family, "_ns")
	fv := func(v float64) string {
		if isNs {
			return fmtNs(v)
		}
		return fmt.Sprintf("%.4g", v)
	}
	for _, sr := range res.Series {
		labels := make([]string, 0, len(sr.Labels))
		for k, v := range sr.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		name := "{" + strings.Join(labels, ",") + "}"
		if len(labels) == 0 {
			name = "(no labels)"
		}
		if len(sr.Points) == 0 {
			fmt.Fprintf(w, "  %-32s (no points)\n", name)
			continue
		}
		values := make([]float64, len(sr.Points))
		lo, hi, sum := sr.Points[0].Value, sr.Points[0].Value, 0.0
		for i, pt := range sr.Points {
			values[i] = pt.Value
			if pt.Value < lo {
				lo = pt.Value
			}
			if pt.Value > hi {
				hi = pt.Value
			}
			sum += pt.Value
		}
		first := time.Unix(sr.Points[0].T, 0).Format("15:04:05")
		last := time.Unix(sr.Points[len(sr.Points)-1].T, 0).Format("15:04:05")
		fmt.Fprintf(w, "  %-32s %s\n", name, sparkline(values))
		fmt.Fprintf(w, "  %-32s min %s  avg %s  max %s  last %s  (%d pts, %s–%s)\n",
			"", fv(lo), fv(sum/float64(len(values))), fv(hi),
			fv(values[len(values)-1]), len(values), first, last)
	}
	return nil
}

// scrapeFleet fetches and decodes one poll of the gateway's fleet rollup.
func scrapeFleet(base string) (*poll, error) {
	p := &poll{when: time.Now()}
	body, _, err := get(base + "/metrics/fleet?format=json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &p.snap); err != nil {
		return nil, fmt.Errorf("decode %s/metrics/fleet: %w", base, err)
	}
	return p, nil
}

// fleetRow is one backend's distilled gw_fleet_* gauges.
type fleetRow struct {
	backend  string
	up       bool
	health   float64
	sessions float64
	frames   float64
	shed     float64
	depth    float64
	p99Ns    float64
}

// fleetRows groups a fleet snapshot by backend label, sorted by address.
func fleetRows(snap telemetry.Snapshot) []fleetRow {
	byBackend := map[string]*fleetRow{}
	for _, met := range snap.Metrics {
		b := met.Labels["backend"]
		if b == "" || met.Value == nil {
			continue
		}
		row := byBackend[b]
		if row == nil {
			row = &fleetRow{backend: b}
			byBackend[b] = row
		}
		v := *met.Value
		switch met.Name {
		case "gw_fleet_up":
			row.up = v > 0
		case "gw_fleet_health_status":
			row.health = v
		case "gw_fleet_sessions":
			row.sessions = v
		case "gw_fleet_frames_total":
			row.frames = v
		case "gw_fleet_shed_total":
			row.shed = v
		case "gw_fleet_queue_depth":
			row.depth = v
		case "gw_fleet_process_p99_ns":
			row.p99Ns = v
		}
	}
	rows := make([]fleetRow, 0, len(byBackend))
	for _, row := range byBackend {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].backend < rows[j].backend })
	return rows
}

// renderFleet writes the cluster view: one line per backend from the
// gateway's rollup, with frame/shed rates when prev is available.
func renderFleet(w io.Writer, base string, prev, cur *poll) {
	rows := fleetRows(cur.snap)
	fmt.Fprintf(w, "imstop fleet — %s — %s\n", base, cur.when.Format("15:04:05"))
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no backends in rollup — is -url an imsgw metrics address with @READYZ_URL backends?)")
		return
	}
	var prevRows map[string]fleetRow
	var dt float64
	if prev != nil {
		prevRows = map[string]fleetRow{}
		for _, row := range fleetRows(prev.snap) {
			prevRows[row.backend] = row
		}
		dt = cur.when.Sub(prev.when).Seconds()
	}
	fmt.Fprintf(w, "  %-22s %-10s %8s %12s %12s %6s %9s\n",
		"backend", "health", "sessions", "frames", "shed", "queue", "p99")
	var up int
	var sessions, frames, shed float64
	for _, row := range rows {
		if !row.up {
			fmt.Fprintf(w, "  %-22s %-10s\n", row.backend, "DOWN")
			continue
		}
		up++
		sessions += row.sessions
		frames += row.frames
		shed += row.shed
		framesCol := fmt.Sprintf("%.0f", row.frames)
		shedCol := fmt.Sprintf("%.0f", row.shed)
		if p, ok := prevRows[row.backend]; ok && p.up && dt > 0 {
			framesCol = fmt.Sprintf("%.1f/s", (row.frames-p.frames)/dt)
			shedCol = fmt.Sprintf("%.1f/s", (row.shed-p.shed)/dt)
		}
		fmt.Fprintf(w, "  %-22s %-10s %8.0f %12s %12s %6.0f %9s\n",
			row.backend, statusName(row.health), row.sessions,
			framesCol, shedCol, row.depth, fmtNs(row.p99Ns))
	}
	fmt.Fprintf(w, "fleet:      %d/%d backends up, %.0f sessions, %.0f frames, %.0f shed\n",
		up, len(rows), sessions, frames, shed)
}

// scrape fetches and decodes one poll from the daemon.
func scrape(base string) (*poll, error) {
	p := &poll{when: time.Now()}
	body, _, err := get(base + "/metrics.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &p.snap); err != nil {
		return nil, fmt.Errorf("decode %s/metrics.json: %w", base, err)
	}
	// Readiness is optional decoration: a daemon without the endpoint (or
	// one answering 503 while draining) still renders.
	if body, _, err := get(base + "/readyz"); err == nil {
		var rep health.ReadyReport
		if json.Unmarshal(body, &rep) == nil {
			p.ready = &rep
		}
	}
	return p, nil
}

// get performs one bounded GET, returning the body for 200 and 503 alike
// (/readyz carries its report on both).
func get(url string) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, resp.StatusCode, fmt.Errorf("%s: status %s", url, resp.Status)
	}
	return body, resp.StatusCode, nil
}

// render writes the full console frame.  prev enables rate columns; nil
// (first frame, -once, or after a failed poll) falls back to totals.
func render(w io.Writer, base string, prev, cur *poll) {
	m := index(cur.snap)
	fmt.Fprintf(w, "imstop — %s — %s\n", base, cur.when.Format("15:04:05"))
	renderHealth(w, cur, m)
	renderRuntime(w, m)
	renderShards(w, cur.snap)
	renderTraffic(w, prev, cur, m)
	renderLatency(w, cur.snap)
}

// renderHealth prints the readiness verdict and per-SLO burn rates.
func renderHealth(w io.Writer, cur *poll, m byKey) {
	if cur.ready == nil {
		fmt.Fprintf(w, "health:     (no /readyz — overall %s)\n", statusName(m.value("health_status")))
		return
	}
	rep := cur.ready
	verdict := "READY"
	if !rep.Ready {
		verdict = "NOT READY (" + rep.Reason + ")"
	}
	fmt.Fprintf(w, "health:     %s — overall %s\n", verdict, strings.ToUpper(rep.Health.Status.String()))
	for _, s := range rep.Health.SLOs {
		fmt.Fprintf(w, "  slo %-14s %-9s burn fast %6.2f  slow %6.2f  %s\n",
			s.Name, strings.ToUpper(s.Status.String()), s.BurnFast, s.BurnSlow, s.Reason)
	}
}

// statusName maps a health_status gauge value to its name.
func statusName(v float64) string {
	return strings.ToUpper(health.Status(int(v)).String())
}

// renderRuntime prints the process/runtime line from the go_* gauges.
func renderRuntime(w io.Writer, m byKey) {
	fmt.Fprintf(w, "runtime:    up %s  goroutines %.0f  heap %s  gc %.0f cycles (%.2f%% cpu)\n",
		fmtDuration(m.value("process_uptime_seconds")),
		m.value("go_goroutines"),
		fmtBytes(m.value("go_heap_alloc_bytes")),
		m.value("go_gc_cycles_total"),
		100*m.value("go_gc_cpu_fraction"))
}

// renderShards draws one occupancy bar per acq_queue_depth instance.
func renderShards(w io.Writer, snap telemetry.Snapshot) {
	type sh struct {
		id    string
		depth float64
	}
	var shards []sh
	for _, met := range snap.Metrics {
		if met.Name == "acq_queue_depth" && met.Value != nil {
			shards = append(shards, sh{met.Labels["shard"], *met.Value})
		}
	}
	if len(shards) == 0 {
		return
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].id < shards[j].id })
	max := 1.0
	for _, s := range shards {
		if s.depth > max {
			max = s.depth
		}
	}
	fmt.Fprintf(w, "queues:\n")
	for _, s := range shards {
		width := int(s.depth / max * 24)
		fmt.Fprintf(w, "  shard %-3s %3.0f %s\n", s.id, s.depth, strings.Repeat("█", width))
	}
}

// trafficRow is one rate line: a label and the summed counter keys behind it.
type trafficRow struct {
	label string
	keys  []string
}

// renderTraffic prints request/shed/byte rates (deltas against prev, or
// totals when prev is nil).
func renderTraffic(w io.Writer, prev, cur *poll, m byKey) {
	rows := []trafficRow{
		{"frames ok", []string{`acq_responses_total{code=OK}`}},
		{"shed", []string{
			`acq_shed_total{reason=queue_full}`,
			`acq_shed_total{reason=draining}`,
			`acq_shed_total{reason=degraded}`,
		}},
		{"errors", []string{`acq_responses_total{code=INTERNAL}`}},
		{"bytes in", []string{`acq_bytes_in_total`}},
		{"bytes out", []string{`acq_bytes_out_total`}},
	}
	var pm byKey
	var dt float64
	if prev != nil {
		pm = index(prev.snap)
		dt = cur.when.Sub(prev.when).Seconds()
	}
	fmt.Fprintf(w, "traffic:    sessions %0.f active / %.0f total\n",
		m.value("acq_sessions_active"), m.value(`acq_sessions_total`))
	for _, row := range rows {
		var total, prevTotal float64
		for _, k := range row.keys {
			total += m.value(k)
			if pm != nil {
				prevTotal += pm.value(k)
			}
		}
		isBytes := strings.HasPrefix(row.label, "bytes")
		if pm != nil && dt > 0 {
			rate := (total - prevTotal) / dt
			if isBytes {
				fmt.Fprintf(w, "  %-10s %10s/s  (%s total)\n", row.label, fmtBytes(rate), fmtBytes(total))
			} else {
				fmt.Fprintf(w, "  %-10s %10.1f/s  (%.0f total)\n", row.label, rate, total)
			}
		} else if isBytes {
			fmt.Fprintf(w, "  %-10s %10s total\n", row.label, fmtBytes(total))
		} else {
			fmt.Fprintf(w, "  %-10s %10.0f total\n", row.label, total)
		}
	}
}

// stageRows are acq_stage_ns's stages in a frame's order, the remainder
// (what no stage names) before the round trip it completes.
var stageRows = []string{"read", "wal", "queue", "compute", "reply", "write", "remainder", "roundtrip"}

// renderLatency prints the stage budget: a row per acq_stage_ns instance,
// stage by stage, with cumulative and rolling-window quantiles and the
// stage's share of its path's mean round trip (the shares of every row but
// the round trip sum to 100 %).
func renderLatency(w io.Writer, snap telemetry.Snapshot) {
	roundtrip := map[string]float64{} // summed round trips, per path
	for _, met := range snap.Metrics {
		if met.Name == "acq_stage_ns" && met.Labels["stage"] == "roundtrip" {
			roundtrip[met.Labels["path"]] = met.Sum
		}
	}
	var printed bool
	for _, stage := range stageRows {
		for _, met := range snap.Metrics {
			if met.Name != "acq_stage_ns" || met.Labels["stage"] != stage || met.Count == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(w, "latency:    %-22s %27s %31s %7s\n", "", "cumulative p50/p95/p99", "last 60s p50/p95/p99 (n)", "share")
				printed = true
			}
			cum := fmt.Sprintf("%s %s %s", fmtNs(met.P50), fmtNs(met.P95), fmtNs(met.P99))
			win := "—"
			if met.WCount > 0 {
				win = fmt.Sprintf("%s %s %s (%d)", fmtNs(met.WP50), fmtNs(met.WP95), fmtNs(met.WP99), met.WCount)
			}
			share := "—"
			if rt := roundtrip[met.Labels["path"]]; rt > 0 {
				share = fmt.Sprintf("%.1f%%", 100*met.Sum/rt)
			}
			fmt.Fprintf(w, "  %-22s %29s %31s %7s\n", stage+"/"+met.Labels["path"], cum, win, share)
		}
	}
}

// fmtNs renders a nanosecond quantity with an adaptive unit.
func fmtNs(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// fmtBytes renders a byte quantity with an adaptive binary unit.
func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// fmtDuration renders whole seconds as h/m/s.
func fmtDuration(s float64) string {
	return (time.Duration(s) * time.Second).String()
}
