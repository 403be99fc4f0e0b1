package main

// The gateway end to end, in process, over two imsd-shaped backends: run
// is driven with an injected signal channel and its log is read back for
// the ports it bound, so no test here sleeps or waits out a clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/buildinfo"
	"repro/internal/daemon"
	"repro/internal/frameio"
	"repro/internal/instrument"
	"repro/internal/telemetry"
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

// proc is one in-process daemon, its run fed an injected signal channel.
type proc struct {
	sigc    chan os.Signal
	done    chan error
	drained bool
	addr    string // IMSP
	url     string // metrics base, e.g. http://127.0.0.1:PORT
}

// drain signals the daemon and asserts run returns nil.
func (p *proc) drain(t *testing.T) {
	t.Helper()
	p.sigc <- syscall.SIGTERM
	p.drained = true
	if err := <-p.done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func newProc(t *testing.T) *proc {
	p := &proc{sigc: make(chan os.Signal, 1), done: make(chan error, 1)}
	t.Cleanup(func() {
		if !p.drained {
			p.sigc <- syscall.SIGTERM
			<-p.done
		}
	})
	return p
}

// startBackend runs an order-5 acqserver under the daemon chassis, as imsd
// does, with its metrics mux on a test HTTP server.
func startBackend(t *testing.T) *proc {
	t.Helper()
	d, err := daemon.Start("imsd", &daemon.Flags{DrainTimeout: 10 * time.Second}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := acqserver.DefaultConfig()
	cfg.Order, cfg.MaxTOFBins = 5, 64
	cfg.Metrics, cfg.Logger, cfg.FlightRecorder = d.Registry, d.Log, d.Flight
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := newProc(t)
	go func() { p.done <- d.Run("127.0.0.1:0", srv, nil, nil, p.sigc) }()
	for srv.Addr() == nil { // Run routes /readyz before it listens
		runtime.Gosched()
	}
	ts := httptest.NewServer(d.Mux)
	t.Cleanup(ts.Close)
	p.addr, p.url = srv.Addr().String(), ts.URL
	return p
}

// startImsgw runs the gateway on loopback ports of its own choosing and
// returns once it is listening, with its log.
func startImsgw(t *testing.T, args ...string) (*proc, *logTap) {
	t.Helper()
	p, log := newProc(t), &logTap{grew: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, args...)
	go func() { p.done <- run(args, p.sigc, log, io.Discard) }()
	deadline := time.After(time.Minute) // a hung gateway fails instead of hanging the suite
	await := func(re string) string {
		rx := regexp.MustCompile(re)
		for {
			log.mu.Lock()
			m := rx.FindStringSubmatch(log.buf.String())
			grew := log.grew
			log.mu.Unlock()
			if m != nil {
				return m[1]
			}
			select {
			case <-grew:
			case err := <-p.done:
				p.drained = true
				t.Fatalf("run returned %v before logging %q:\n%s", err, re, log)
			case <-deadline:
				t.Fatalf("no %q in the log:\n%s", re, log)
			}
		}
	}
	p.url = await(`imsgw metrics server up" url=(http://[^ ]+)/metrics`)
	p.addr = await(`imsgw listening on ([^" ]+)`)
	return p, log
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

// snapshot decodes a JSON metrics document.
func snapshot(t *testing.T, url string) telemetry.Snapshot {
	t.Helper()
	_, body := get(t, url)
	var snap telemetry.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return snap
}

// TestFlagNames pins imsgw's command line: a flag added or removed shows
// up here as a reviewed diff.
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
		"addr", "backends", "drain-grace", "drain-timeout", "events-dump",
		"history", "metrics", "pprof", "profile-dir", "trace",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("imsgw flags:\n got %v\nwant %v", got, want)
	}
	if err := run([]string{"-backends", "127.0.0.1:1", "-probe-interval", "1s"}, nil, io.Discard, io.Discard); err == nil {
		t.Error("a removed flag was accepted")
	}
}

// TestFrontFleetAndDrain is the gateway's life over a two-backend fleet:
// live and ready, frames routed with a trailer naming their backend,
// build_info carrying the stamped version, both backends up on the fleet
// rollup; then one backend drains cleanly while the gateway stays ready
// and keeps answering on the other, and a signal drains the gateway
// cleanly.
func TestFrontFleetAndDrain(t *testing.T) {
	defer func(v string) { buildinfo.Version = v }(buildinfo.Version)
	buildinfo.Version = "imsgw-test"
	b1, b2 := startBackend(t), startBackend(t)
	gw, log := startImsgw(t, "-backends", b1.addr+"@"+b1.url+"/readyz,"+b2.addr+"@"+b2.url+"/readyz")

	ready := func(when string) {
		t.Helper()
		if code, _ := get(t, gw.url+"/healthz"); code != http.StatusOK {
			t.Errorf("/healthz %s: %d, want 200", when, code)
		}
		code, body := get(t, gw.url+"/readyz")
		var rep health.ReadyReport
		if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || !rep.Ready {
			t.Errorf("/readyz %s: %d %s (%v), want 200 ready", when, code, body, err)
		}
	}
	frame := instrument.NewFrame(31, 16)
	for i := range frame.Data {
		frame.Data[i] = float64(i%5 + 1)
	}
	// Each new session hashes anew; eight of them are frames the fleet
	// answers whichever backend the ring picks.
	frames := func(when string) {
		t.Helper()
		for i := 0; i < 8; i++ {
			c, err := acqserver.Dial(gw.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Do(context.Background(), frame, frameio.Delta, acqserver.FrameOptions{Path: acqserver.PathCPU})
			c.Close()
			if err != nil || resp.Code != acqserver.CodeOK || resp.Result.Backend == 0 {
				t.Fatalf("frame %d %s: %v / %+v", i, when, err, resp)
			}
		}
	}

	ready("over two backends")
	frames("over two backends")
	stamped := false
	for _, m := range snapshot(t, gw.url+"/metrics.json").Metrics {
		if m.Name == "build_info" {
			stamped = m.Labels["version"] == "imsgw-test" && m.Value != nil && *m.Value == 1
		}
	}
	if !stamped {
		t.Error("build_info does not carry the stamped version")
	}
	up := 0
	for _, m := range snapshot(t, gw.url+"/metrics/fleet?format=json").Metrics {
		if m.Name == "gw_fleet_up" && m.Value != nil && *m.Value == 1 {
			up++
		}
	}
	if up != 2 {
		t.Errorf("fleet rollup: %d backends up, want 2", up)
	}

	b1.drain(t)
	ready("with one backend drained")
	frames("with one backend drained")

	gw.drain(t)
	if !strings.Contains(log.String(), "imsgw drained cleanly") {
		t.Errorf("no clean drain in the log:\n%s", log)
	}
}
