package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/daemon"
	"repro/internal/frameio"
	"repro/internal/instrument"
)

// TestOnceRendersLiveDaemon renders one console frame, as -once does,
// against a live daemon that has served frames: the health verdict, a bar
// per shard queue and the stage latencies are all on it.
func TestOnceRendersLiveDaemon(t *testing.T) {
	d, err := daemon.Start("imsd", &daemon.Flags{DrainTimeout: 10 * time.Second}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	cfg := acqserver.DefaultConfig()
	cfg.Order, cfg.MaxTOFBins, cfg.Metrics = 5, 64, d.Registry
	srv, err := acqserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sigc, done := make(chan os.Signal, 1), make(chan error, 1)
	go func() { done <- d.Run("127.0.0.1:0", srv, nil, nil, sigc) }()
	defer func() {
		sigc <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	for srv.Addr() == nil { // Run routes /readyz before it listens
		runtime.Gosched()
	}
	ts := httptest.NewServer(d.Mux)
	defer ts.Close()

	c, err := acqserver.Dial(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	frame := instrument.NewFrame(31, 16)
	for i := 0; i < 4; i++ {
		if resp, err := c.Do(context.Background(), frame, frameio.Raw, acqserver.FrameOptions{Path: acqserver.PathCPU}); err != nil || resp.Code != acqserver.CodeOK {
			t.Fatalf("frame %d: %v / %+v", i, err, resp)
		}
	}
	c.Close()

	cur, err := scrape(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render(&out, ts.URL, nil, cur)
	for _, want := range []string{"health:     READY", "  shard 0", "latency:", "compute/cpu", "remainder/cpu", "roundtrip/cpu"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("console lacks %q:\n%s", want, out.String())
		}
	}
}
