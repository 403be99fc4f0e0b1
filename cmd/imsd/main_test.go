package main

// The daemon end to end, in process: run is driven with an injected signal
// channel and its log is read back for the ports it bound, so no test here
// sleeps or waits out a clock.  What is time-driven in production — the
// health evaluator, the history sampler — is ticked by the tests through
// Evaluator.Tick and Sampler.SampleOnce.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/buildinfo"
	"repro/internal/daemon"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
)

// logTap is run's stdout: it keeps the log and wakes whoever waits on a
// line.
type logTap struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	grew chan struct{} // closed by the next write
}

func (l *logTap) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	close(l.grew)
	l.grew = make(chan struct{})
	return len(p), nil
}

func (l *logTap) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// imsd is one in-process daemon.
type imsd struct {
	log      *logTap
	sigc     chan os.Signal
	done     chan error
	drained  bool
	addr     string // IMSP
	url      string // -metrics, e.g. http://127.0.0.1:PORT
	deadline <-chan time.Time
}

// startImsd runs the daemon on loopback ports of its own choosing and
// returns once it is listening.
func startImsd(t *testing.T, args ...string) *imsd {
	t.Helper()
	d := &imsd{
		log:      &logTap{grew: make(chan struct{})},
		sigc:     make(chan os.Signal, 1),
		done:     make(chan error, 1),
		deadline: time.After(time.Minute), // a hung daemon fails instead of hanging the suite
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, args...)
	go func() { d.done <- run(args, d.sigc, d.log, io.Discard) }()
	t.Cleanup(func() {
		if !d.drained {
			d.sigc <- syscall.SIGTERM
			<-d.done
		}
	})
	d.url = d.await(t, `imsd metrics server up" url=(http://[^ ]+)/metrics`)
	d.addr = d.await(t, `imsd listening on ([^" ]+)`)
	return d
}

// await returns the first group of re's first match in the log, waiting
// for the line to be written.
func (d *imsd) await(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for {
		d.log.mu.Lock()
		m := rx.FindStringSubmatch(d.log.buf.String())
		grew := d.log.grew
		d.log.mu.Unlock()
		if m != nil {
			return m[1]
		}
		select {
		case <-grew:
		case err := <-d.done:
			d.drained = true
			t.Fatalf("run returned %v before logging %q:\n%s", err, re, d.log)
		case <-d.deadline:
			t.Fatalf("no %q in the log:\n%s", re, d.log)
		}
	}
}

// drain signals the daemon and asserts a clean drain: run returns nil and
// says so in the log.
func (d *imsd) drain(t *testing.T) {
	t.Helper()
	d.sigc <- syscall.SIGTERM
	d.drained = true
	if err := <-d.done; err != nil {
		t.Fatalf("run: %v\n%s", err, d.log)
	}
	if !strings.Contains(d.log.String(), "imsd drained cleanly") {
		t.Fatalf("no clean drain in the log:\n%s", d.log)
	}
}

// get fetches url, returning the status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// metric reads one series' value from the daemon's /metrics text, 0 when
// the series is absent.
func (d *imsd) metric(t *testing.T, series string) float64 {
	t.Helper()
	_, body := get(t, d.url+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return 0
}

// testFrame is a small order-5 frame with three hot drift rows.
func testFrame() *instrument.Frame {
	f := instrument.NewFrame(31, 16)
	for i := range f.Data {
		f.Data[i] = float64(i % 7)
	}
	for _, row := range []int{3, 11, 20} {
		for c := 0; c < f.TOFBins; c++ {
			f.Set(row, c, 250)
		}
	}
	return f
}

// TestFlagNames pins imsd's command line: a flag added or removed shows up
// here as a reviewed diff.
func TestFlagNames(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, nil, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	want := []string{
		"addr", "coalesce-window", "depth", "drain-grace", "drain-timeout",
		"events-dump", "framelog", "framelog-fsync", "history", "max-tof",
		"metrics", "order", "pprof", "profile-dir", "shards", "slo-latency",
		"trace", "workers",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("imsd flags:\n got %v\nwant %v", got, want)
	}
	if err := run([]string{"-trace-ring", "8"}, nil, io.Discard, io.Discard); err == nil {
		t.Error("a removed flag was accepted")
	}
}

// TestServeTraceAndDrain is the daemon's life from the outside: live and
// ready while serving, both compute paths answer, build_info carries the
// version stamped into buildinfo, and a signal drains it cleanly and
// leaves a Perfetto trace with a well-formed span for every stage a frame
// passes through.
func TestServeTraceAndDrain(t *testing.T) {
	defer func(v string) { buildinfo.Version = v }(buildinfo.Version)
	buildinfo.Version = "imsd-test"
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	d := startImsd(t, "-order", "5", "-max-tof", "64", "-trace", tracePath)

	if code, _ := get(t, d.url+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: %d, want 200", code)
	}
	code, body := get(t, d.url+"/readyz")
	var ready health.ReadyReport
	if err := json.Unmarshal(body, &ready); err != nil || code != http.StatusOK || !ready.Ready {
		t.Errorf("/readyz: %d %s (%v), want 200 ready", code, body, err)
	}

	c, err := acqserver.Dial(d.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range []acqserver.Path{acqserver.PathHybrid, acqserver.PathCPU} {
		resp, err := c.Do(context.Background(), testFrame(), frameio.Delta, acqserver.FrameOptions{Path: path, TraceID: uint64(0xC0 + i)})
		if err != nil || resp.Code != acqserver.CodeOK || resp.Result == nil {
			t.Fatalf("%v frame: %v / %+v", path, err, resp)
		}
	}
	c.Close()

	_, body = get(t, d.url+"/metrics.json")
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	stamped := false
	for _, m := range snap.Metrics {
		if m.Name == "build_info" {
			stamped = m.Labels["version"] == "imsd-test" && m.Labels["go_version"] != "" && m.Value != nil && *m.Value == 1
		}
	}
	if !stamped {
		t.Error("build_info does not carry the stamped version")
	}

	d.drain(t)
	checkTrace(t, tracePath, "frame", "socket_read", "queue_wait", "worker",
		"hybrid_offload", "fpga_capture", "fpga_accumulate", "xd1_dma_in", "fpga_fht",
		"xd1_dma_out", "cpu_decode", "write_response")
}

// checkTrace asserts a Perfetto trace-event file parses, holds only
// complete ("X") and metadata ("M") events, every complete event has a
// name, non-negative ts and dur and a trace_id arg, and each of spans
// appears.
func checkTrace(t *testing.T, path string, spans ...string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	seen := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M":
		case ev.Ph != "X":
			t.Errorf("event %d: phase %q", i, ev.Ph)
		case ev.Name == "" || ev.Ts < 0 || ev.Dur < 0 || ev.Args["trace_id"] == nil:
			t.Errorf("event %d is malformed: %+v", i, ev)
		default:
			seen[ev.Name] = true
		}
	}
	for _, s := range spans {
		if !seen[s] {
			t.Errorf("%s has no %q span (has %v)", path, s, seen)
		}
	}
}

// TestImpossibleSLODumpsFlightRecorder serves frames against a 1 ns
// latency SLO: the next evaluation turns health DEGRADED or worse, and the
// transition leaves a black-box dump holding the frames' wide events.
func TestImpossibleSLODumpsFlightRecorder(t *testing.T) {
	dumps := t.TempDir()
	reg := telemetry.NewRegistry()
	flight := flightrec.New(flightrec.Config{DumpDir: dumps, Metrics: reg})
	eval := buildEvaluator(reg, time.Nanosecond, flight, slog.New(slog.NewTextHandler(io.Discard, nil)))
	start := time.Now()
	eval.Tick(start) // the windows' baseline

	cfg := acqserver.DefaultConfig()
	cfg.Order, cfg.MaxTOFBins, cfg.Metrics, cfg.FlightRecorder = 5, 64, reg, flight
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	c, err := acqserver.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 24; i++ { // past the evaluator's 20-event floor
		if resp, err := c.Do(context.Background(), testFrame(), frameio.Raw, acqserver.FrameOptions{Path: acqserver.PathCPU}); err != nil || resp.Code != acqserver.CodeOK {
			t.Fatalf("frame %d: %v / %+v", i, err, resp)
		}
	}

	if rep := eval.Tick(start.Add(telemetry.WindowSlotDuration)); rep.Status < health.Degraded {
		t.Fatalf("health after 24 frames over a 1 ns SLO: %+v, want degraded or worse", rep)
	}
	paths, _ := filepath.Glob(filepath.Join(dumps, "flightrec-*.json"))
	if len(paths) != 1 {
		t.Fatalf("%d black-box dumps, want 1", len(paths))
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason string            `json:"reason"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if (dump.Reason != "degraded" && dump.Reason != "unhealthy") || len(dump.Events) == 0 {
		t.Errorf("dump reason %q with %d events, want degraded or unhealthy with the frames", dump.Reason, len(dump.Events))
	}
}

// TestLatencySpikeFlipsAnomalySLO feeds the history sampler a steady frame
// latency until the detector has warmed up, then a 64x spike: two spiked
// samples make the frame_latency_p99 episode active and the next
// evaluation DEGRADED.
func TestLatencySpikeFlipsAnomalySLO(t *testing.T) {
	d, err := daemon.Start("imsd", &daemon.Flags{HistoryDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	eval := buildEvaluator(d.Registry, time.Hour, d.Flight, d.Log)
	watchAnomalies(d, eval)
	hist := d.Registry.Histogram("acq_stage_ns", "", telemetry.L("path", "cpu"), telemetry.L("stage", "compute"))
	now := time.Now()
	sample := func(latencyNs float64) {
		for i := 0; i < 10; i++ {
			hist.Observe(latencyNs)
		}
		now = now.Add(5 * time.Second)
		d.Sampler.SampleOnce(now)
	}
	active := func() bool {
		for _, m := range d.Registry.Snapshot().Metrics {
			if m.Name == "anomaly_active" && m.Labels["target"] == "frame_latency_p99" {
				return m.Value != nil && *m.Value == 1
			}
		}
		t.Fatal("no anomaly_active{target=frame_latency_p99}")
		return false
	}
	for i := 0; i < 20; i++ {
		sample(100e3)
	}
	if active() {
		t.Fatal("a steady latency is anomalous")
	}
	sample(6.4e6)
	sample(6.4e6)
	if !active() {
		t.Fatal("a 64x latency spike did not flip anomaly_active")
	}
	rep := eval.Tick(now)
	for _, s := range rep.SLOs {
		if s.Name == "anomaly_frame_latency_p99" && s.Status != health.Degraded {
			t.Errorf("anomaly SLO %+v, want degraded", s)
		}
	}
	if rep.Status < health.Degraded {
		t.Errorf("health %v during the spike, want degraded", rep.Status)
	}
}

// TestRecoveryReplaysPendingFrames restarts on the frame log of a daemon
// that died mid-burst — records on disk, none completion-marked, the log
// never closed: the daemon reports the pending set, re-processes all of
// it, drains cleanly, and leaves nothing pending and every CRC intact.
func TestRecoveryReplaysPendingFrames(t *testing.T) {
	dir := t.TempDir()
	wcfg := framelog.DefaultConfig(dir)
	wcfg.Fsync = framelog.FsyncAlways
	crashed, err := framelog.Open(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	payload.Write([]byte{byte(acqserver.PathCPU), 0, 0, 0, 0}) // options: path, no deadline
	if err := frameio.Write(&payload, testFrame(), nil, frameio.Delta); err != nil {
		t.Fatal(err)
	}
	if opts, _, err := acqserver.SplitFramePayload(payload.Bytes()); err != nil || opts.Path != acqserver.PathCPU {
		t.Fatalf("payload options %+v: %v", opts, err)
	}
	const pending = 6
	for i := 0; i < pending; i++ {
		if _, err := crashed.Append(uint64(i+1), payload.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	d := startImsd(t, "-order", "5", "-max-tof", "64", "-framelog", dir, "-framelog-fsync", "always")
	if got := d.await(t, `framelog recovered".* pending=(\d+)`); got != fmt.Sprint(pending) {
		t.Fatalf("recovered pending=%s, want %d", got, pending)
	}
	for d.metric(t, `acq_recovered_frames_total{outcome="ok"}`) != pending {
		select {
		case <-d.deadline:
			t.Fatalf("recovered %v of %d frames", d.metric(t, `acq_recovered_frames_total{outcome="ok"}`), pending)
		default:
		}
	}
	if n := d.metric(t, `acq_recovered_frames_total{outcome="error"}`); n != 0 {
		t.Errorf("%v recovered records rejected", n)
	}
	d.drain(t)

	wal, err := framelog.Open(framelog.DefaultConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if info := wal.RecoveryInfo(); info.Records != pending || info.Pending != 0 {
		t.Errorf("after the recovered run drained: %+v, want %d records, none pending", info, pending)
	}
}
