package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/acqserver"
	"repro/internal/framelog"
	"repro/internal/gateway"
	"repro/internal/telemetry"
)

const (
	dialTimeout     = 5 * time.Second
	shutdownTimeout = 30 * time.Second
	// Coalescing on the fleet backends (workload table in the README).
	coalesceWindow = 2 * time.Millisecond
	coalesceFill   = 8
	// The live WAL: sealed 64 MiB segments kept, and the fsync period of
	// its "interval" policy.
	walRetainSegments = 2
	walFsyncInterval  = time.Second
)

// connections is C, the load generator's connection count: min(nproc, 4),
// and at least one per fleet backend.
func connections(w workload) int {
	c := runtime.NumCPU()
	if c > 4 {
		c = 4
	}
	if w.Gateway && c < 2 {
		c = 2
	}
	return c
}

// topology is the program under test: in-process servers on loopback
// listeners, driven only through the wire protocol.
type topology struct {
	w       workload
	servers []*acqserver.Server
	gw      *gateway.Gateway
	wal     *framelog.Log
	walDir  string
	serveWG sync.WaitGroup

	addr     string   // where the load generator dials
	backends []string // acqserver addresses
	clients  []*acqserver.Client
	direct   *acqserver.Client // fleet only: straight to backend 1
}

// logConfig is framelog's default configuration (fsync interval, 50 ms)
// with its logger silenced: a nil Logger means slog.Default, which prints.
func logConfig(dir string) framelog.Config {
	c := framelog.DefaultConfig(dir)
	c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	return c
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startTopology builds and starts the workload's servers.  walBase is the
// directory a WAL workload creates its log under; reg is nil on untraced
// runs (Config.Metrics, Trace, Logger and FlightRecorder all stay nil).
func startTopology(w workload, walBase string, reg *telemetry.Registry) (_ *topology, err error) {
	t := &topology{w: w}
	defer func() {
		if err != nil {
			_ = t.Close()
		}
	}()
	nServers := 1
	if w.Gateway {
		nServers = 2
	}
	for i := 0; i < nServers; i++ {
		cfg := acqserver.DefaultConfig()
		cfg.Metrics = reg
		if w.Gateway {
			cfg.CoalesceWindow = coalesceWindow
			cfg.CoalesceFillTarget = coalesceFill
		}
		if w.WAL {
			if t.walDir, err = os.MkdirTemp(walBase, "wal-"); err != nil {
				return nil, err
			}
			lc := logConfig(t.walDir)
			lc.Metrics = reg
			// Retention on, as a daemon would run it: without it the log
			// grows by ~1 GB of page cache per run, and on a virtual
			// machine the cost of touching that much fresh memory swung
			// closed-loop throughput by 15 % between identical runs.
			lc.RetainSegments = walRetainSegments
			lc.JanitorInterval = time.Second
			// At the default 50 ms the appender spends 6-8 % of the open
			// phase inside fsync, and 30 % when a shared disk has a slow
			// minute: a duty cycle that sits right at the 90th percentile,
			// so p90 flipped between 5 and 13 ms from run to run.  The same
			// bytes synced once a second keep p90 clear of it either way.
			lc.FsyncInterval = walFsyncInterval
			if t.wal, err = framelog.Open(lc); err != nil {
				return nil, err
			}
			cfg.FrameLog = t.wal
		}
		srv, err := acqserver.NewServer(cfg)
		if err != nil {
			return nil, err
		}
		ln, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, srv)
		t.backends = append(t.backends, ln.Addr().String())
		t.serve(func() error { return srv.Serve(ln) })
	}
	t.addr = t.backends[0]
	if w.Gateway {
		gc := gateway.DefaultConfig()
		gc.Metrics = reg
		for _, a := range t.backends {
			gc.Backends = append(gc.Backends, gateway.BackendConfig{Addr: a})
		}
		if t.gw, err = gateway.New(gc); err != nil {
			return nil, err
		}
		ln, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		t.addr = ln.Addr().String()
		t.serve(func() error { return t.gw.Serve(ln) })
		if t.direct, err = acqserver.Dial(t.backends[0], dialTimeout); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// serve runs one accept loop; Close waits for it to return.
func (t *topology) serve(run func() error) {
	t.serveWG.Add(1)
	go func() {
		defer t.serveWG.Done()
		_ = run() // always net.ErrClosed after Shutdown
	}()
}

// connect dials the generator's C connections.  Through a gateway the
// serving backend is a hash of the session id and the backend's ephemeral
// address, so connections are dialed until every backend serves an equal
// share of them: the placement, and with it the run, is the same each time.
func (t *topology) connect(probe *poolFrame) error {
	c := connections(t.w)
	if !t.w.Gateway {
		for i := 0; i < c; i++ {
			cl, err := acqserver.Dial(t.addr, dialTimeout)
			if err != nil {
				return err
			}
			t.clients = append(t.clients, cl)
		}
		return nil
	}
	perBackend := make([]int, len(t.backends))
	want := (c + len(t.backends) - 1) / len(t.backends)
	for tries := 0; len(t.clients) < c; tries++ {
		if tries == 64*c {
			return fmt.Errorf("bench: could not place %d sessions evenly over %d backends", c, len(t.backends))
		}
		cl, err := acqserver.Dial(t.addr, dialTimeout)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		resp, err := cl.DoPayload(ctx, probe.payload, 0)
		cancel()
		if probe.check(resp, err) != outcomeOK {
			_ = cl.Close()
			return fmt.Errorf("bench: placement probe failed: %v %v", resp, err)
		}
		b := int(resp.Result.Backend) - 1
		if b < 0 || b >= len(perBackend) || perBackend[b] >= want {
			_ = cl.Close()
			continue
		}
		perBackend[b]++
		t.clients = append(t.clients, cl)
	}
	return nil
}

// Close shuts every client, gateway, server and log down and waits for
// their goroutines; the WAL directory is removed.
func (t *topology) Close() error {
	var errs []error
	for _, cl := range t.clients {
		_ = cl.Close()
	}
	if t.direct != nil {
		_ = t.direct.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if t.gw != nil {
		errs = append(errs, t.gw.Shutdown(ctx))
	}
	for _, srv := range t.servers {
		errs = append(errs, srv.Shutdown(ctx)) // seals and closes the frame log
	}
	t.serveWG.Wait()
	if t.wal != nil && len(t.servers) == 0 {
		errs = append(errs, t.wal.Close())
	}
	if t.walDir != "" {
		errs = append(errs, os.RemoveAll(t.walDir))
	}
	return errors.Join(errs...)
}
