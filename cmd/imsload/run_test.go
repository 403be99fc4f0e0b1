package main

// imsload end to end, in process, against daemons built from the same
// parts as imsd and imsgw.  A run ends when the test cancels its context —
// after the servers have answered as many frames as the test needs — so
// no test here sleeps or waits out a clock.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/daemon"
	"repro/internal/framelog"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// backend is one imsd-shaped daemon: an order-5 acqserver under the daemon
// chassis, its metrics mux on a test HTTP server.
type backend struct {
	d       *daemon.Daemon
	addr    string // IMSP
	url     string // metrics base
	sigc    chan os.Signal
	done    chan error
	drained bool
}

// startBackend starts a backend with f's observability surfaces and, when
// wal is non-nil, that frame log.
func startBackend(t *testing.T, f daemon.Flags, wal *framelog.Log) *backend {
	t.Helper()
	f.DrainTimeout = 10 * time.Second
	d, err := daemon.Start("imsd", &f, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := acqserver.DefaultConfig()
	cfg.Order, cfg.MaxTOFBins = 5, 64
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.FrameLog = d.Registry, d.Log, d.Flight, wal
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &backend{d: d, sigc: make(chan os.Signal, 1), done: make(chan error, 1)}
	go func() { b.done <- d.Run("127.0.0.1:0", srv, nil, nil, b.sigc) }()
	t.Cleanup(func() {
		if !b.drained {
			b.drain(t)
		}
	})
	for srv.Addr() == nil { // Run routes /readyz before it listens
		runtime.Gosched()
	}
	ts := httptest.NewServer(d.Mux)
	t.Cleanup(ts.Close)
	b.addr, b.url = srv.Addr().String(), ts.URL
	return b
}

// drain signals the backend and asserts a clean drain.
func (b *backend) drain(t *testing.T) {
	t.Helper()
	b.drained = true
	b.sigc <- syscall.SIGTERM
	if err := <-b.done; err != nil {
		t.Errorf("backend drain: %v", err)
	}
}

// answered is how many frames the backend has accepted: each is answered,
// and a run that stops issuing frames still waits for the answers to those
// in flight.
func (b *backend) answered() (n int64) {
	for _, path := range []string{"hybrid", "cpu"} {
		n += b.d.Registry.Counter("acq_frames_total", "", telemetry.L("path", path)).Value()
	}
	return n
}

// load is one imsload run in the background.
type load struct {
	stop context.CancelFunc
	done chan error
}

// startLoad runs imsload with args until stop.
func startLoad(args ...string) *load {
	ctx, stop := context.WithCancel(context.Background())
	l := &load{stop: stop, done: make(chan error, 1)}
	go func() { l.done <- run(ctx, append([]string{"-duration", "1h"}, args...), io.Discard) }()
	return l
}

// await returns once cond holds, with the run still going.
func (l *load) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute) // a stalled run fails instead of hanging the suite
	for !cond() {
		select {
		case err := <-l.done:
			t.Fatalf("imsload returned %v before %s", err, what)
		default:
		}
		if time.Now().After(deadline) {
			l.stop()
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// until stops the run once cond holds and returns run's error.
func (l *load) until(t *testing.T, what string, cond func() bool) error {
	t.Helper()
	l.await(t, what, cond)
	l.stop()
	return <-l.done
}

// readReport decodes a -json report.
func readReport(t *testing.T, path string) report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestBurstReport drives 16 clients, gated on -wait-ready and traced, at
// one daemon: the run ends with no transport or protocol error, and the
// report carries throughput, shed rate, latency quantiles, the server's
// span-stage breakdown, its readiness verdict and the slowest requests by
// trace id; the client trace holds a span per request.
func TestBurstReport(t *testing.T) {
	dir := t.TempDir()
	b := startBackend(t, daemon.Flags{}, nil)
	jsonPath, tracePath := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.json")
	l := startLoad("-addr", b.addr, "-clients", "16", "-tof", "16",
		"-wait-ready", b.url+"/readyz", "-json", jsonPath, "-trace", tracePath)
	if err := l.until(t, "64 frames answered", func() bool { return b.answered() >= 64 }); err != nil {
		t.Fatalf("imsload: %v", err)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"throughput_rps"`, `"shed_rate"`, `"latency_ns"`, `"server"`, `"queue_wait_ns_total"`, `"server_health"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report lacks %s", key)
		}
	}
	rep := readReport(t, jsonPath)
	if rep.Requests < 64 || rep.OK != rep.Requests || rep.Server.Frames != int64(rep.OK) || rep.ThroughputRPS <= 0 {
		t.Errorf("report: %d requests, %d ok, %d server frames, %.0f/s", rep.Requests, rep.OK, rep.Server.Frames, rep.ThroughputRPS)
	}
	if len(rep.Slowest) == 0 {
		t.Error("report lacks slowest_requests")
	}
	for _, s := range rep.Slowest {
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(s.TraceID) {
			t.Errorf("slowest request %+v carries no trace id", s)
		}
	}

	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	requests := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "client_request" && ev.Args["trace_id"] != nil {
			requests++
		}
	}
	if requests == 0 {
		t.Error("client trace holds no client_request span")
	}
}

// TestServerHistoryInReport runs against a daemon keeping metric history:
// with -metrics given, the report gains the server's own view of the run
// from /metrics/history.
func TestServerHistoryInReport(t *testing.T) {
	dir := t.TempDir()
	b := startBackend(t, daemon.Flags{HistoryDir: filepath.Join(dir, "history")}, nil)
	b.d.Sampler.SampleOnce(time.Now()) // the baseline the run's latencies diff against
	jsonPath := filepath.Join(dir, "report.json")
	l := startLoad("-addr", b.addr, "-clients", "2", "-tof", "16", "-path", "cpu",
		"-metrics", b.url+"/metrics.json", "-json", jsonPath)
	if err := l.until(t, "a sample of the run", func() bool {
		return b.answered() >= 16 && b.d.Sampler.SampleOnce(time.Now()) > 0
	}); err != nil {
		t.Fatalf("imsload: %v", err)
	}
	rep := readReport(t, jsonPath)
	if sh := rep.ServerHistory; sh == nil || sh.ProcessP99Ns == nil || len(sh.ProcessP99Ns.Series) == 0 {
		t.Errorf("report's server_history: %+v, want the compute stage's p99 series", sh)
	}
	// The budget block: every stage, the shares of all but the round trip
	// summing to 1, the CPU path's compute taking time.
	var shares float64
	for _, st := range budgetStages {
		if _, ok := rep.Budget[st]; !ok {
			t.Errorf("report's budget lacks stage %q: %+v", st, rep.Budget)
		}
		if st != "roundtrip" {
			shares += rep.Budget[st].Share
		}
	}
	if math.Abs(shares-1) > 1e-9 || rep.Budget["compute"].P50Ns <= 0 {
		t.Errorf("report's budget: shares sum to %v, compute p50 %v: %+v", shares, rep.Budget["compute"].P50Ns, rep.Budget)
	}
}

// TestReplayMatchesLiveDigest captures a live run into a frame log that
// fsyncs every append, then replays the capture through a fresh daemon:
// the capture holds exactly the acknowledged frames, and the replayed
// responses are bit-identical to the live ones.
func TestReplayMatchesLiveDigest(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	wcfg := framelog.DefaultConfig(walDir)
	wcfg.Fsync = framelog.FsyncAlways
	wal, err := framelog.Open(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	live := startBackend(t, daemon.Flags{}, wal)
	livePath := filepath.Join(dir, "live.json")
	l := startLoad("-addr", live.addr, "-clients", "4", "-tof", "16", "-json", livePath)
	if err := l.until(t, "40 frames answered", func() bool { return live.answered() >= 40 }); err != nil {
		t.Fatalf("live run: %v", err)
	}
	live.drain(t)
	liveRep := readReport(t, livePath)
	if liveRep.OK == 0 || liveRep.Shed != 0 || liveRep.OKNotDurable != 0 {
		t.Fatalf("live run: %d ok, %d shed, %d not durable; want every frame acknowledged durably", liveRep.OK, liveRep.Shed, liveRep.OKNotDurable)
	}
	segs, err := framelog.ListSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var records uint64
	for _, s := range segs {
		records += s.Records
	}
	if records != uint64(liveRep.OK) {
		t.Fatalf("capture holds %d records, %d frames were acknowledged", records, liveRep.OK)
	}

	fresh := startBackend(t, daemon.Flags{}, nil)
	replayPath := filepath.Join(dir, "replay.json")
	if err := run(context.Background(), []string{"-addr", fresh.addr, "-replay", walDir, "-replay-rate", "0", "-json", replayPath}, io.Discard); err != nil {
		t.Fatalf("replay: %v", err)
	}
	replayRep := readReport(t, replayPath)
	if replayRep.Replay == nil || replayRep.Replay.Records != int64(liveRep.OK) {
		t.Errorf("replay block %+v, want all %d records", replayRep.Replay, liveRep.OK)
	}
	if replayRep.OK != liveRep.OK || replayRep.ResponseDigest != liveRep.ResponseDigest {
		t.Errorf("replay answered %d ok with digest %s; live %d ok with digest %s",
			replayRep.OK, replayRep.ResponseDigest, liveRep.OK, liveRep.ResponseDigest)
	}
}

// TestClusterBurstSurvivesBackendDrain drives 16 clients through a gateway
// over three ready backends and drains one of them mid-burst: it drains
// cleanly, the run ends with no transport or protocol error and a shed
// rate inside the 5 % loss bound, and frames were served by at least two
// backends.
func TestClusterBurstSurvivesBackendDrain(t *testing.T) {
	var fleet []gateway.BackendConfig
	var bs []*backend
	for i := 0; i < 3; i++ {
		b := startBackend(t, daemon.Flags{}, nil)
		resp, err := http.Get(b.url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %d /readyz: %s", i, resp.Status)
		}
		bs = append(bs, b)
		fleet = append(fleet, gateway.BackendConfig{Addr: b.addr, HealthURL: b.url + "/readyz"})
	}
	cfg := gateway.DefaultConfig()
	cfg.Backends = fleet
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)
	defer gw.Shutdown(context.Background())

	answered := func(bs ...*backend) (n int64) {
		for _, b := range bs {
			n += b.answered()
		}
		return n
	}
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	l := startLoad("-addr", ln.Addr().String(), "-topology", "cluster", "-clients", "16", "-tof", "16", "-json", jsonPath)
	l.await(t, "48 frames answered", func() bool { return answered(bs...) >= 48 })
	bs[1].drain(t)
	survivors := answered(bs[0], bs[2])
	if err := l.until(t, "32 more frames on the survivors", func() bool { return answered(bs[0], bs[2]) >= survivors+32 }); err != nil {
		t.Fatalf("imsload: %v", err)
	}

	rep := readReport(t, jsonPath)
	if rep.Requests == 0 || rep.Topology != "cluster" {
		t.Fatalf("report: %d requests, topology %q", rep.Requests, rep.Topology)
	}
	if rep.ShedRate > 0.05 {
		t.Errorf("shed rate %.3f (%d/%d) exceeds the 5%% loss bound", rep.ShedRate, rep.Shed, rep.Requests)
	}
	if len(rep.Backends) < 2 {
		t.Errorf("frames served by %d backends (%v), want at least 2", len(rep.Backends), rep.Backends)
	}
}
