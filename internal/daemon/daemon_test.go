package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
	"repro/internal/instrument"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/tsdb"
)

// get serves one GET straight from a handler: the tests poll the chassis's
// muxes, not its sockets.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// readyz polls /readyz on the -metrics mux and decodes the verdict.
func readyz(t *testing.T, d *Daemon) (int, health.ReadyReport) {
	t.Helper()
	rec := get(d.Mux, "/readyz")
	var rep health.ReadyReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("/readyz body: %v", err)
	}
	return rec.Code, rep
}

// await spins until cond holds (the conditions are set by goroutines that
// are already running; nothing here waits out a clock).
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// counted is an acqserver that counts its Shutdown calls.
type counted struct {
	*acqserver.Server
	shutdowns atomic.Int32
}

func (c *counted) Shutdown(ctx context.Context) error {
	c.shutdowns.Add(1)
	return c.Server.Shutdown(ctx)
}

// TestDrainChoreography runs an acqserver under the chassis on loopback and
// walks the whole life cycle on an injected signal, holding the drain grace
// open to look at the daemon inside it: /readyz already 503 "draining",
// /healthz still 200, the listener still accepting and Shutdown not yet
// called; then one Shutdown, the trace file, the final history sample and a
// nil return.
func TestDrainChoreography(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		DrainTimeout: 10 * time.Second,
		DrainGrace:   time.Hour, // the test's clock below, not this, ends it
		MetricsAddr:  "127.0.0.1:0",
		TracePath:    filepath.Join(dir, "trace.json"),
		HistoryDir:   filepath.Join(dir, "history"),
	}
	d, err := Start("testd", f, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// A sampler that never ticks on its own, so any stored sample is the
	// drain's final one.
	d.Sampler = tsdb.NewSampler(d.Registry, d.History, time.Hour)
	inGrace, endGrace := make(chan struct{}), make(chan time.Time)
	d.after = func(time.Duration) <-chan time.Time { close(inGrace); return endGrace }

	cfg := acqserver.DefaultConfig()
	cfg.Order, cfg.Shards, cfg.WorkersPerShard = 5, 1, 1
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder, cfg.Trace = d.Registry, d.Log, d.Flight, d.Tracer
	inner, err := acqserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := &counted{Server: inner}
	sigc := make(chan os.Signal, 1)
	done := make(chan error, 1)
	started := time.Now()
	go func() { done <- d.Run("127.0.0.1:0", srv, nil, nil, sigc) }()
	await(t, "the server to listen", func() bool { return srv.Addr() != nil })
	addr := srv.Addr().String()

	if code, rep := readyz(t, d); code != http.StatusOK || !rep.Ready {
		t.Fatalf("/readyz before the signal: %d %+v, want 200 ready", code, rep)
	}
	c, err := acqserver.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := instrument.NewFrame(31, 4)
	if resp, err := c.Do(context.Background(), frame, frameio.Raw, acqserver.FrameOptions{Path: acqserver.PathCPU}); err != nil || resp.Code != acqserver.CodeOK {
		t.Fatalf("frame before the signal: %v / %+v", err, resp)
	}

	sigc <- syscall.SIGTERM
	<-inGrace
	if code, rep := readyz(t, d); code != http.StatusServiceUnavailable || rep.Ready || rep.Reason != "draining" {
		t.Errorf("/readyz during the grace: %d %+v, want 503 draining", code, rep)
	}
	if rec := get(d.Mux, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz during the grace: %d, want 200", rec.Code)
	}
	if srv.shutdowns.Load() != 0 || srv.Draining() {
		t.Error("Shutdown began before the grace ended")
	}
	late, err := acqserver.Dial(addr, 2*time.Second) // a full HELLO handshake
	if err != nil {
		t.Fatalf("the listener stopped accepting during the grace: %v", err)
	}
	if resp, err := late.Do(context.Background(), frame, frameio.Raw, acqserver.FrameOptions{Path: acqserver.PathCPU}); err != nil || resp.Code != acqserver.CodeOK {
		t.Errorf("frame during the grace: %v / %+v, want OK", err, resp)
	}
	late.Close()

	close(endGrace)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := srv.shutdowns.Load(); n != 1 {
		t.Errorf("Shutdown called %d times, want 1", n)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if b, err := os.ReadFile(f.TracePath); err != nil {
		t.Errorf("trace file: %v", err)
	} else if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file holds %d events (%v), want the two frames' spans", len(doc.TraceEvents), err)
	}
	// The sampler never ticked on its own, and a gauge is stored from its
	// first sample on: what the history holds is the drain's final sample.
	res, err := d.History.Query(tsdb.QueryOptions{Family: "acq_sessions_active", Since: started.Add(-time.Minute)})
	if err != nil || len(res.Series) != 1 || len(res.Series[0].Points) != 1 || res.Series[0].Points[0].Value != 0 {
		t.Errorf("history of acq_sessions_active after the drain: %+v (%v), want one sample of 0", res, err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("the listener still accepts after the drain")
	}
}

// stuck is a server whose drain never completes on its own.
type stuck struct{ closed chan struct{} }

func (s *stuck) Serve(ln net.Listener) error { <-s.closed; _ = ln.Close(); return net.ErrClosed }
func (s *stuck) Draining() bool              { return false }
func (s *stuck) Shutdown(ctx context.Context) error {
	<-ctx.Done()
	close(s.closed)
	return ctx.Err()
}

// TestDrainTimeoutIsAnError: a drain that outlives -drain-timeout makes Run
// return the context's error, so main exits non-zero.
func TestDrainTimeoutIsAnError(t *testing.T) {
	d, err := Start("testd", &Flags{DrainTimeout: time.Millisecond}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	sigc <- syscall.SIGINT
	err = d.Run("127.0.0.1:0", &stuck{closed: make(chan struct{})}, nil, nil, sigc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want the drain's deadline error", err)
	}
}

// TestHTTPBindFailureIsAnError: an -metrics or -pprof address that cannot
// be bound fails Start (the parent logged it and served frames with no
// /readyz), and what Start had bound before failing is released.
func TestHTTPBindFailureIsAnError(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if _, err := Start("testd", &Flags{MetricsAddr: taken.Addr().String()}, io.Discard); err == nil {
		t.Error("Start bound -metrics on a taken port")
	}
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	free.Close()
	if _, err := Start("testd", &Flags{MetricsAddr: free.Addr().String(), PprofAddr: taken.Addr().String()}, io.Discard); err == nil {
		t.Fatal("Start bound -pprof on a taken port")
	}
	await(t, "the -metrics port to be released", func() bool {
		ln, err := net.Listen("tcp", free.Addr().String())
		if err == nil {
			ln.Close()
		}
		return err == nil
	})
}

// TestMetricsAndPprofServeSeparateMuxes: the -pprof server holds
// /debug/pprof/ and nothing else, the -metrics server its own mux, neither
// falls back on http.DefaultServeMux, and both bound header reads.
func TestMetricsAndPprofServeSeparateMuxes(t *testing.T) {
	d, err := Start("testd", &Flags{MetricsAddr: "127.0.0.1:0", PprofAddr: "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.https) != 2 {
		t.Fatalf("%d HTTP servers, want 2", len(d.https))
	}
	for _, srv := range d.https {
		if srv.Handler == nil || srv.Handler == http.Handler(http.DefaultServeMux) {
			t.Error("an HTTP server rides on http.DefaultServeMux")
		}
		if srv.ReadHeaderTimeout <= 0 {
			t.Error("an HTTP server has no ReadHeaderTimeout")
		}
	}
	metrics, pprof := d.https[0].Handler, d.https[1].Handler
	if metrics != http.Handler(d.Mux) {
		t.Fatal("the -metrics server does not serve Daemon.Mux")
	}
	for _, path := range []string{"/metrics", "/metrics.json", "/metrics/history", "/debug/traces", "/debug/events", "/healthz"} {
		if _, pattern := d.Mux.Handler(httptest.NewRequest(http.MethodGet, path, nil)); pattern != path {
			t.Errorf("-metrics has no route for %s", path)
		}
		if code := get(pprof, path).Code; code != http.StatusNotFound {
			t.Errorf("-pprof %s: %d, want 404", path, code)
		}
		if _, pattern := http.DefaultServeMux.Handler(httptest.NewRequest(http.MethodGet, path, nil)); pattern != "" {
			t.Errorf("http.DefaultServeMux serves %s", path)
		}
	}
	for _, h := range []http.Handler{metrics, pprof} {
		if code := get(h, "/debug/pprof/cmdline").Code; code != http.StatusOK {
			t.Errorf("/debug/pprof/cmdline: %d, want 200 on both ports", code)
		}
	}
}
