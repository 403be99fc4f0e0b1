package acqserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// testConfig returns a small, fast configuration: order 5 (31 drift bins),
// short timeouts, and a live registry so tests can assert on counters.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Order = 5
	cfg.MaxTOFBins = 64
	cfg.ReadIdleTimeout = 2 * time.Second
	cfg.WriteTimeout = 2 * time.Second
	cfg.Metrics = telemetry.NewRegistry()
	return cfg
}

// startServer builds the daemon, serves it on a loopback listener, and
// registers a drain-on-cleanup.  It returns the server and its address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// testFrame builds a deterministic order-5 frame.
func testFrame(tofBins int) *instrument.Frame {
	f := instrument.NewFrame(31, tofBins)
	for i := range f.Data {
		f.Data[i] = float64(i%17) + 1
	}
	return f
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// rawDial opens a bare TCP connection for protocol-level tests.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// rawHello performs the handshake by hand.
func rawHello(t *testing.T, conn net.Conn) ServerInfo {
	t.Helper()
	if err := WriteMessage(conn, MsgHello, 0, []byte{ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	h, payload := rawRead(t, conn)
	if h.Type != MsgHelloOK {
		t.Fatalf("handshake answered %v, want HELLO_OK", h.Type)
	}
	info, err := DecodeServerInfo(payload)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// rawRead reads one message off the connection.
func rawRead(t *testing.T, conn net.Conn) (Header, []byte) {
	t.Helper()
	h, err := ReadHeader(conn)
	if err != nil {
		t.Fatalf("read header: %v", err)
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	return h, payload
}

// framePayload encodes the FRAME message payload (options + raw frame bytes).
func framePayload(t *testing.T, f *instrument.Frame, opts FrameOptions) []byte {
	return encodedPayload(t, f, frameio.Raw, opts)
}

func TestServeBothPaths(t *testing.T) {
	s, addr := startServer(t, testConfig())
	c := dialClient(t, addr)
	if c.Info().Order != 5 || c.Info().Shards != 4 {
		t.Fatalf("handshake info %+v", c.Info())
	}
	f := testFrame(8)
	for _, path := range []Path{PathHybrid, PathCPU} {
		resp, err := c.Do(context.Background(), f, frameio.Delta, FrameOptions{Path: path})
		if err != nil {
			t.Fatalf("%v: %v", path, err)
		}
		if resp.Code != CodeOK || resp.Result == nil {
			t.Fatalf("%v: got %v %q", path, resp.Code, resp.Message)
		}
		if int(resp.Result.Shard) >= len(s.shards) {
			t.Errorf("%v: shard %d out of range", path, resp.Result.Shard)
		}
		if resp.Result.ProcessNs == 0 {
			t.Errorf("%v: zero process time", path)
		}
	}
	// The session counts a frame after handing it to its shard, so a fast
	// worker's RESULT can reach the client before the count does.
	waitFor(t, "both frames counted", func() bool {
		return s.m.framesByPath[PathHybrid].Value()+s.m.framesByPath[PathCPU].Value() == 2
	})
	if got := s.m.protocolErrs.Value(); got != 0 {
		t.Errorf("protocol errors = %d, want 0", got)
	}
}

// TestManyConcurrentClients is the acceptance shape of the load generator:
// at least 16 concurrent clients, every request answered, zero protocol
// errors and zero sheds at this depth.
func TestManyConcurrentClients(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 32
	s, addr := startServer(t, cfg)

	const clients, perClient = 16, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			f := testFrame(4 + i%4)
			for j := 0; j < perClient; j++ {
				path := PathHybrid
				if (i+j)%2 == 1 {
					path = PathCPU
				}
				resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: path})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", i, j, err)
					return
				}
				if resp.Code != CodeOK {
					errs <- fmt.Errorf("client %d req %d: %v %q", i, j, resp.Code, resp.Message)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.m.responses[CodeOK].Value(); got != clients*(perClient+1) { // +1 HELLO_OK each
		t.Errorf("OK responses = %d, want %d", got, clients*(perClient+1))
	}
	if s.m.protocolErrs.Value() != 0 ||
		s.m.shedByReason["queue_full"].Value() != 0 ||
		s.m.shedByReason["draining"].Value() != 0 {
		t.Error("expected a clean run with no protocol errors or sheds")
	}
	waitFor(t, "sessions to close", func() bool { return s.m.sessionsActive.Value() == 0 })
	if got := s.m.sessionsTotal.Value(); got != clients {
		t.Errorf("sessions total = %d, want %d", got, clients)
	}
}

// TestQueueFullSheds pins one worker on a blocked compute hook, fills the
// depth-1 queue, and expects further frames to be shed with
// RESOURCE_EXHAUSTED — not to hang.
func TestQueueFullSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.QueueDepth, cfg.WorkersPerShard = 1, 1, 1
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg.processHook = func(*task) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{}, nil
	}
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	f := testFrame(4)

	responses := make(chan *Response, 4)
	do := func() {
		resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathHybrid})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}

	go do() // occupies the worker
	<-started
	go do() // sits in the queue
	waitFor(t, "second frame to be queued", func() bool {
		return s.m.framesByPath[PathHybrid].Value() == 2
	})
	go do() // shed
	go do() // shed
	waitFor(t, "two frames to be shed", func() bool {
		return s.m.shedByReason["queue_full"].Value() == 2
	})
	close(release)

	counts := map[Code]int{}
	for i := 0; i < 4; i++ {
		counts[(<-responses).Code]++
	}
	if counts[CodeOK] != 2 || counts[CodeResourceExhausted] != 2 {
		t.Fatalf("response codes %v, want 2 OK + 2 RESOURCE_EXHAUSTED", counts)
	}
}

// TestGracefulDrainCompletesInFlight starts a drain while frames are
// queued behind a blocked worker: every accepted frame must still be
// answered, new frames are rejected UNAVAILABLE, and Shutdown returns nil.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.QueueDepth, cfg.WorkersPerShard = 1, 8, 1
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg.processHook = func(*task) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{Saturations: 7}, nil
	}
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	f := testFrame(4)

	responses := make(chan *Response, 4)
	do := func() {
		resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathCPU})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}
	for i := 0; i < 3; i++ {
		go do()
	}
	<-started
	waitFor(t, "three frames accepted", func() bool {
		return s.m.framesByPath[PathCPU].Value() == 3
	})

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownErr <- s.Shutdown(ctx) }()
	waitFor(t, "drain to begin", func() bool { return s.draining.Load() })

	go do() // arrives mid-drain: must be rejected, not accepted
	// Wait for the rejection itself, not for the shed counter: the counter
	// moves before the read loop queues the response, and releasing the
	// workers in that window lets Shutdown flush and close the session
	// first, so the late caller sees a closed connection instead.  The
	// three accepted frames are still parked in the hook, so the first
	// response to arrive can only be the late one.
	if late := <-responses; late.Code != CodeUnavailable {
		t.Fatalf("late frame answered %v, want UNAVAILABLE", late.Code)
	}
	if got := s.m.shedByReason["draining"].Value(); got != 1 {
		t.Fatalf("draining sheds %d, want 1", got)
	}
	close(release)

	for i := 0; i < 3; i++ {
		if resp := <-responses; resp.Code != CodeOK {
			t.Fatalf("in-flight frame answered %v, want OK", resp.Code)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	// The daemon is gone: new connections must fail.
	if _, err := Dial(addr, 500*time.Millisecond); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

// TestDrainTimeoutForceClosesSessions: when the drain context expires while
// a worker is still busy, Shutdown force-closes the live sessions and
// returns the context's error instead of waiting.
func TestDrainTimeoutForceClosesSessions(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard = 1, 1
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg.processHook = func(*task) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{}, nil
	}
	s, addr := startServer(t, cfg)
	defer close(release) // lets the worker go once the verdict is in
	c := dialClient(t, addr)
	go c.Do(context.Background(), testFrame(4), frameio.Raw, FrameOptions{Path: PathCPU}) // fails: its session is force-closed
	<-started

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(expired) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Shutdown returned %v, want the context's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung force-closing a live session")
	}
	waitFor(t, "the session to be torn down", func() bool {
		s.sessMu.Lock()
		defer s.sessMu.Unlock()
		return len(s.sessions) == 0
	})
}

// TestClientDisconnectMidFrame drops the connection halfway through a
// FRAME payload; the daemon must shrug it off and keep serving others.
func TestClientDisconnectMidFrame(t *testing.T) {
	s, addr := startServer(t, testConfig())

	full := framePayload(t, testFrame(8), FrameOptions{Path: PathHybrid})

	// Variant 1: header declares a full frame, connection dies before any
	// payload arrives.
	conn := rawDial(t, addr)
	rawHello(t, conn)
	hdr := AppendHeader(nil, Header{Type: MsgFrame, ReqID: 1, PayloadLen: uint32(len(full))})
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// Variant 2: connection dies halfway through the frame payload.
	conn2 := rawDial(t, addr)
	rawHello(t, conn2)
	hdr = AppendHeader(nil, Header{Type: MsgFrame, ReqID: 2, PayloadLen: uint32(len(full))})
	if _, err := conn2.Write(append(hdr, full[:len(full)/2]...)); err != nil {
		t.Fatal(err)
	}
	_ = conn2.Close()

	waitFor(t, "broken sessions to be torn down", func() bool {
		return s.m.sessionsActive.Value() == 0
	})
	// The daemon still serves a healthy client.
	c := dialClient(t, addr)
	resp, err := c.Do(context.Background(), testFrame(8), frameio.Raw, FrameOptions{Path: PathHybrid})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("healthy client after disconnects: %v / %+v", err, resp)
	}
	if got := s.m.panics["session"].Value() + s.m.panics["worker"].Value(); got != 0 {
		t.Errorf("recovered %d panics, want 0", got)
	}
}

// TestSlowReaderWriteTimeout runs a session over net.Pipe (zero buffering)
// and never reads the response: the write timeout must tear the session
// down rather than wedge a worker forever.
func TestSlowReaderWriteTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.WriteTimeout = 150 * time.Millisecond
	cfg.SessionBuffer = 1
	cfg.processHook = func(*task) (*Result, error) { return &Result{}, nil }
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	local, remote := net.Pipe()
	t.Cleanup(func() { _ = local.Close() })
	s.startSession(remote)
	_ = local.SetDeadline(time.Now().Add(5 * time.Second))
	rawHello(t, local)
	payload := framePayload(t, testFrame(4), FrameOptions{Path: PathHybrid})
	if err := WriteMessage(local, MsgFrame, 1, payload); err != nil {
		t.Fatal(err)
	}
	// Never read the RESULT.  The server's write blocks on the pipe, hits
	// the 150ms deadline, and tears the session down.
	waitFor(t, "slow session to be torn down", func() bool {
		return s.m.sessionsActive.Value() == 0
	})
	if _, err := local.Read(make([]byte, 1)); err == nil {
		t.Error("connection still alive after write timeout")
	}
}

// TestWorkerPanicIsolation: a panicking compute path answers INTERNAL and
// the daemon keeps serving on the same connection.
func TestWorkerPanicIsolation(t *testing.T) {
	cfg := testConfig()
	var first atomic.Bool
	first.Store(true)
	cfg.processHook = func(*task) (*Result, error) {
		if first.CompareAndSwap(true, false) {
			panic("synthetic compute failure")
		}
		return &Result{}, nil
	}
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	f := testFrame(4)

	resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeInternal {
		t.Fatalf("panicking request answered %v %q, want INTERNAL", resp.Code, resp.Message)
	}
	resp, err = c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathHybrid})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("request after panic: %v / %+v", err, resp)
	}
	if got := s.m.panics["worker"].Value(); got != 1 {
		t.Errorf("worker panics = %d, want 1", got)
	}
}

// TestDeadlineExpiresInQueue: a frame whose deadline lapses while queued
// behind a blocked worker is answered DEADLINE_EXCEEDED without compute.
func TestDeadlineExpiresInQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.QueueDepth, cfg.WorkersPerShard = 1, 4, 1
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	cfg.processHook = func(*task) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{}, nil
	}
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	f := testFrame(4)

	responses := make(chan *Response, 2)
	do := func(opts FrameOptions) {
		resp, err := c.Do(context.Background(), f, frameio.Raw, opts)
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}
	go do(FrameOptions{Path: PathHybrid})
	<-started
	go do(FrameOptions{Path: PathHybrid, Deadline: 30 * time.Millisecond})
	waitFor(t, "deadlined frame to be queued", func() bool {
		return s.m.framesByPath[PathHybrid].Value() == 2
	})
	time.Sleep(80 * time.Millisecond) // let the queued deadline lapse
	close(release)

	counts := map[Code]int{}
	for i := 0; i < 2; i++ {
		counts[(<-responses).Code]++
	}
	if counts[CodeOK] != 1 || counts[CodeDeadlineExceeded] != 1 {
		t.Fatalf("response codes %v, want 1 OK + 1 DEADLINE_EXCEEDED", counts)
	}
	if got := s.m.responses[CodeDeadlineExceeded].Value(); got != 1 {
		t.Errorf("deadline responses = %d, want 1", got)
	}
}

// TestProtocolViolations exercises the session's fatal protocol paths: a
// FRAME before HELLO and an oversized payload both earn a final typed
// error before the connection closes.
func TestProtocolViolations(t *testing.T) {
	cfg := testConfig()
	s, addr := startServer(t, cfg)

	t.Run("frame before hello", func(t *testing.T) {
		conn := rawDial(t, addr)
		if err := WriteMessage(conn, MsgFrame, 7, make([]byte, frameOptsSize)); err != nil {
			t.Fatal(err)
		}
		h, payload := rawRead(t, conn)
		code, _, err := DecodeError(payload)
		if h.Type != MsgError || err != nil || code != CodeInvalidArgument {
			t.Fatalf("got %v %v (decode err %v), want INVALID_ARGUMENT", h.Type, code, err)
		}
		// The unread payload bytes make the close an RST on some stacks, so
		// accept any terminal error.
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Error("connection still alive after protocol violation")
		}
	})

	t.Run("oversized payload", func(t *testing.T) {
		conn := rawDial(t, addr)
		rawHello(t, conn)
		hdr := AppendHeader(nil, Header{Type: MsgFrame, ReqID: 9, PayloadLen: cfg.MaxPayloadBytes + 1})
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		h, payload := rawRead(t, conn)
		code, _, err := DecodeError(payload)
		if h.Type != MsgError || err != nil || code != CodeTooLarge {
			t.Fatalf("got %v %v (decode err %v), want TOO_LARGE", h.Type, code, err)
		}
	})

	t.Run("wrong geometry keeps session alive", func(t *testing.T) {
		c := dialClient(t, addr)
		bad := instrument.NewFrame(7, 4) // order-3 frame against an order-5 server
		resp, err := c.Do(context.Background(), bad, frameio.Raw, FrameOptions{Path: PathHybrid})
		if err != nil || resp.Code != CodeInvalidArgument {
			t.Fatalf("bad geometry: %v / %+v", err, resp)
		}
		resp, err = c.Do(context.Background(), testFrame(4), frameio.Raw, FrameOptions{Path: PathHybrid})
		if err != nil || resp.Code != CodeOK {
			t.Fatalf("good frame after bad geometry: %v / %+v", err, resp)
		}
	})

	t.Run("unknown path", func(t *testing.T) {
		c := dialClient(t, addr)
		resp, err := c.Do(context.Background(), testFrame(4), frameio.Raw, FrameOptions{Path: Path(9)})
		if err != nil || resp.Code != CodeInvalidArgument {
			t.Fatalf("unknown path: %v / %+v", err, resp)
		}
	})

	if s.m.protocolErrs.Value() == 0 {
		t.Error("protocol violations were not counted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Shards = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.WorkersPerShard = 0 },
		func(c *Config) { c.Order = 1 },
		func(c *Config) { c.Order = 21 },
		func(c *Config) { c.MaxTOFBins = 0 },
		func(c *Config) { c.MaxPayloadBytes = 1 },
		func(c *Config) { c.WriteTimeout = 0 },
		func(c *Config) { c.ReadIdleTimeout = 0 },
		func(c *Config) { c.SessionBuffer = 0 },
		func(c *Config) { c.MinSNR = 0 },
		func(c *Config) { c.MaxPeaks = maxResultPeaks + 1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// The hybrid path's row sums are exact up to a width the offload
	// Format sets: Q40.10 sums 7 columns, far fewer than MaxTOFBins.
	cfg := DefaultConfig()
	cfg.Offload.Format = fpga.MustQ(40, 10)
	if _, err := NewServer(cfg); err == nil {
		t.Error("offload format too wide for MaxTOFBins accepted")
	}
	cfg.MaxTOFBins = 7
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("7 TOF bins at Q40.10 rejected: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
}

// TestDegradedModeShedsEarly pins one worker, toggles DegradedMode on, and
// expects the shard to shed at half its configured depth — then accept
// again at full depth once the degraded signal clears.
func TestDegradedModeShedsEarly(t *testing.T) {
	cfg := testConfig()
	cfg.Shards, cfg.QueueDepth, cfg.WorkersPerShard = 1, 4, 1
	var degraded atomic.Bool
	cfg.DegradedMode = degraded.Load
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg.processHook = func(*task) (*Result, error) {
		started <- struct{}{}
		<-release
		return &Result{}, nil
	}
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	f := testFrame(4)

	responses := make(chan *Response, 8)
	do := func() {
		resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathHybrid})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}

	go do() // occupies the worker
	<-started
	go do()
	go do() // fill the queue to the degraded bound: (4+1)/2 = 2
	waitFor(t, "three frames accepted", func() bool {
		return s.m.framesByPath[PathHybrid].Value() == 3
	})

	degraded.Store(true)
	go do() // occupancy 2 >= degraded bound 2: shed early
	waitFor(t, "a frame shed as degraded", func() bool {
		return s.m.shedByReason["degraded"].Value() == 1
	})

	degraded.Store(false)
	go do() // occupancy 2 < full depth 4: accepted again
	waitFor(t, "recovery frame accepted", func() bool {
		return s.m.framesByPath[PathHybrid].Value() == 4
	})
	close(release)

	counts := map[Code]int{}
	for i := 0; i < 5; i++ {
		counts[(<-responses).Code]++
	}
	if counts[CodeOK] != 4 || counts[CodeResourceExhausted] != 1 {
		t.Fatalf("response codes %v, want 4 OK + 1 RESOURCE_EXHAUSTED", counts)
	}
	if s.m.shedByReason["queue_full"].Value() != 0 {
		t.Fatalf("queue_full sheds = %d, want 0 (degraded must shed first)",
			s.m.shedByReason["queue_full"].Value())
	}
}
