package gateway

// gateway_test.go: the cluster front tier end to end, driven through real
// sockets with the stock acqserver.Client as the downstream caller.  The
// fleet is faked at the wire level — fakeBackend speaks just enough IMSP
// to handshake and answer frames — except for the trace-continuity test,
// which runs a real daemon so the gateway's span tree and the backend's
// can be asserted to share one trace identity.  Run with -race: the churn
// test swaps rings under live traffic on purpose.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// fakeBehavior scripts one fake backend's answer to a FRAME.
type fakeBehavior int

const (
	// fakeOK answers every frame with a canned RESULT.
	fakeOK fakeBehavior = iota
	// fakeShed answers every frame with RESOURCE_EXHAUSTED.
	fakeShed
	// fakeDie closes the connection on the first FRAME without answering
	// — the backend-dies-mid-frame case.
	fakeDie
)

// fakeBackend is a minimal IMSP server: HELLO_OK on handshake, scripted
// behavior on FRAME.  It tolerates the gateway's TCP readiness probes
// (dial-and-close connections).
type fakeBackend struct {
	ln net.Listener

	mu       sync.Mutex
	behavior fakeBehavior
	frames   int
	traceIDs []uint64
}

func newFakeBackend(t *testing.T, b fakeBehavior) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{ln: ln, behavior: b}
	go fb.acceptLoop()
	t.Cleanup(func() { _ = ln.Close() })
	return fb
}

func (fb *fakeBackend) addr() string { return fb.ln.Addr().String() }

func (fb *fakeBackend) setBehavior(b fakeBehavior) {
	fb.mu.Lock()
	fb.behavior = b
	fb.mu.Unlock()
}

func (fb *fakeBackend) frameCount() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.frames
}

func (fb *fakeBackend) seenTraceIDs() []uint64 {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return append([]uint64(nil), fb.traceIDs...)
}

func (fb *fakeBackend) acceptLoop() {
	for {
		conn, err := fb.ln.Accept()
		if err != nil {
			return
		}
		go fb.serveConn(conn)
	}
}

func (fb *fakeBackend) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		h, err := acqserver.ReadHeader(conn)
		if err != nil {
			return // probe dial-and-close lands here
		}
		payload := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		switch h.Type {
		case acqserver.MsgHello:
			info := acqserver.ServerInfo{
				Version:         acqserver.ProtocolV2,
				Shards:          4,
				Order:           9,
				MaxPayloadBytes: 16 << 20,
			}
			if err := acqserver.WriteMessageV(conn, acqserver.ProtocolV2, acqserver.MsgHelloOK,
				h.ReqID, 0, acqserver.EncodeServerInfo(info)); err != nil {
				return
			}
		case acqserver.MsgFrame:
			fb.mu.Lock()
			fb.frames++
			fb.traceIDs = append(fb.traceIDs, h.TraceID)
			behavior := fb.behavior
			fb.mu.Unlock()
			switch behavior {
			case fakeDie:
				return
			case fakeShed:
				if err := acqserver.WriteMessageV(conn, acqserver.ProtocolV2, acqserver.MsgError,
					h.ReqID, h.TraceID, acqserver.EncodeError(acqserver.CodeResourceExhausted, "shard queue full")); err != nil {
					return
				}
			default:
				out, err := acqserver.EncodeResult(&acqserver.Result{Shard: 1, ProcessNs: 1000})
				if err != nil {
					return
				}
				if err := acqserver.WriteMessageV(conn, acqserver.ProtocolV2, acqserver.MsgResult,
					h.ReqID, h.TraceID, out); err != nil {
					return
				}
			}
		case acqserver.MsgGoodbye:
			return
		}
	}
}

// testGwConfig returns a fast-probing gateway config over the given
// backend addresses, with a live registry for metric assertions.
func testGwConfig(addrs ...string) Config {
	cfg := DefaultConfig()
	for _, a := range addrs {
		cfg.Backends = append(cfg.Backends, BackendConfig{Addr: a})
	}
	cfg.probeInterval = 20 * time.Millisecond
	cfg.Metrics = telemetry.NewRegistry()
	return cfg
}

// startGateway serves the gateway on loopback and registers a
// drain-on-cleanup.
func startGateway(t *testing.T, cfg Config) (*Gateway, string) {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return gw, ln.Addr().String()
}

func dialGateway(t *testing.T, addr string) *acqserver.Client {
	t.Helper()
	c, err := acqserver.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// gwFrame builds a small frame matching the given m-sequence order.
func gwFrame(order, tofBins int) *instrument.Frame {
	f := instrument.NewFrame((1<<order)-1, tofBins)
	for i := range f.Data {
		f.Data[i] = float64(i%13) + 1
	}
	return f
}

func doFrame(t *testing.T, c *acqserver.Client, opts acqserver.FrameOptions) *acqserver.Response {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Do(ctx, gwFrame(5, 16), frameio.Raw, opts)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	return resp
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// counter re-resolves a gw_* counter from the test registry (the registry
// dedups by family name + labels, so this reads the gateway's own
// instance).
func counter(reg *telemetry.Registry, name string, labels ...telemetry.Label) *telemetry.Counter {
	return reg.Counter(name, "", labels...)
}

func TestGatewayProxiesFrameWithRoutingTrailer(t *testing.T) {
	fb1 := newFakeBackend(t, fakeOK)
	fb2 := newFakeBackend(t, fakeOK)
	cfg := testGwConfig(fb1.addr(), fb2.addr())
	gw, addr := startGateway(t, cfg)

	c := dialGateway(t, addr)
	resp := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
	if resp.Code != acqserver.CodeOK {
		t.Fatalf("response code %v (%s), want OK", resp.Code, resp.Message)
	}
	if resp.Result.Backend != 1 && resp.Result.Backend != 2 {
		t.Errorf("routing trailer backend %d, want 1 or 2", resp.Result.Backend)
	}
	if resp.Result.Attempts != 1 {
		t.Errorf("routing trailer attempts %d, want 1", resp.Result.Attempts)
	}
	if got := fb1.frameCount() + fb2.frameCount(); got != 1 {
		t.Errorf("fleet served %d frames, want exactly 1", got)
	}
	if gw.ReadyBackends() != 2 {
		t.Errorf("ring has %d backends, want 2", gw.ReadyBackends())
	}
	// Session stickiness: further frames land on the same backend.
	first := resp.Result.Backend
	for i := 0; i < 5; i++ {
		r := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
		if r.Result.Backend != first {
			t.Fatalf("frame %d routed to backend %d; session was pinned to %d", i, r.Result.Backend, first)
		}
	}
}

func TestBackendDiesMidFrameRetriesOnSibling(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, fakeOK), newFakeBackend(t, fakeOK), newFakeBackend(t, fakeOK)}
	cfg := testGwConfig(fbs[0].addr(), fbs[1].addr(), fbs[2].addr())
	gw, addr := startGateway(t, cfg)

	// The first session gets id 1; resolve its primary off the live ring
	// so the right fake can be scripted to die mid-frame.
	primary, ok := gw.ring().Pick(1, -1)
	if !ok {
		t.Fatal("ring lookup missed")
	}
	fbs[primary].setBehavior(fakeDie)
	rebuildsBefore := counter(cfg.Metrics, "gw_ring_rebuilds_total").Value()

	c := dialGateway(t, addr)
	resp := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
	if resp.Code != acqserver.CodeOK {
		t.Fatalf("response code %v (%s), want OK via sibling retry", resp.Code, resp.Message)
	}
	if resp.Result.Attempts != 2 {
		t.Errorf("attempts %d, want 2 (primary died, sibling answered)", resp.Result.Attempts)
	}
	if int(resp.Result.Backend) == primary+1 {
		t.Errorf("result attributed to the dead primary (backend %d)", resp.Result.Backend)
	}
	if got := counter(cfg.Metrics, "gw_retries_total", telemetry.L("outcome", "ok")).Value(); got != 1 {
		t.Errorf("gw_retries_total{outcome=ok} = %d, want 1", got)
	}
	// The transport failure must have marked the primary down passively,
	// rebuilding the ring while the retry was still in flight.
	if got := counter(cfg.Metrics, "gw_ring_rebuilds_total").Value(); got <= rebuildsBefore {
		t.Errorf("ring rebuilds %d, want > %d after passive mark-down", got, rebuildsBefore)
	}
	waitFor(t, "dead primary to leave the ring", func() bool {
		_, onRing := gw.ring().Pick(1, -1)
		return onRing && gw.ReadyBackends() == 2
	})
}

func TestRingRebuildChurnDuringLiveTraffic(t *testing.T) {
	fbs := []*fakeBackend{newFakeBackend(t, fakeOK), newFakeBackend(t, fakeOK), newFakeBackend(t, fakeOK)}
	cfg := testGwConfig(fbs[0].addr(), fbs[1].addr(), fbs[2].addr())
	gw, addr := startGateway(t, cfg)

	// Churn: flap one backend's ring membership as fast as possible while
	// clients proxy frames, so ring swaps overlap in-flight picks and
	// retries.  The backend process itself stays alive throughout, so
	// every frame must still come back OK from somewhere.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			gw.markDown(gw.backends[2], fmt.Errorf("test churn"))
			gw.backends[2].ready.Store(true)
			gw.rebuildRing()
		}
	}()

	var clients sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			c, err := acqserver.Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 25; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				resp, err := c.Do(ctx, gwFrame(5, 16), frameio.Raw, acqserver.FrameOptions{Path: acqserver.PathCPU})
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if resp.Code != acqserver.CodeOK {
					errs <- fmt.Errorf("frame answered %v (%s) during ring churn", resp.Code, resp.Message)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	churn.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestAllBackendsNotReadySheds(t *testing.T) {
	// Reserve two ports, then close them: probes fail, both backends
	// leave the ring, and every frame is shed with UNAVAILABLE.
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		_ = ln.Close()
	}
	cfg := testGwConfig(addrs...)
	gw, addr := startGateway(t, cfg)
	waitFor(t, "all backends to leave the ring", func() bool { return gw.ReadyBackends() == 0 })

	// The handshake must still succeed on fleet-outage fallbacks.
	c := dialGateway(t, addr)
	if got := c.Info().Order; got != fallbackOrder {
		t.Errorf("outage HELLO_OK advertised order %d, want fallback %d", got, fallbackOrder)
	}
	resp := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
	if resp.Code != acqserver.CodeUnavailable {
		t.Fatalf("response code %v, want UNAVAILABLE while no backend is ready", resp.Code)
	}
	if got := counter(cfg.Metrics, "gw_shed_total", telemetry.L("reason", "no_backend")).Value(); got != 1 {
		t.Errorf("gw_shed_total{reason=no_backend} = %d, want 1", got)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	fb1 := newFakeBackend(t, fakeShed)
	fb2 := newFakeBackend(t, fakeShed)
	cfg := testGwConfig(fb1.addr(), fb2.addr())
	cfg.retryBudget = 1
	_, addr := startGateway(t, cfg)

	c := dialGateway(t, addr)
	// First frame spends the session's whole budget: primary sheds, the
	// one budgeted sibling retry runs and sheds too.
	resp := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
	if resp.Code != acqserver.CodeResourceExhausted {
		t.Fatalf("first frame answered %v, want RESOURCE_EXHAUSTED passthrough", resp.Code)
	}
	if got := fb1.frameCount() + fb2.frameCount(); got != 2 {
		t.Fatalf("fleet saw %d attempts for the first frame, want 2", got)
	}
	// Second frame: budget is spent, no retry — exactly one more attempt.
	resp = doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU})
	if resp.Code != acqserver.CodeResourceExhausted {
		t.Fatalf("second frame answered %v, want RESOURCE_EXHAUSTED", resp.Code)
	}
	if got := fb1.frameCount() + fb2.frameCount(); got != 3 {
		t.Errorf("fleet saw %d attempts total, want 3 (budget exhausted, no second retry)", got)
	}
	if got := counter(cfg.Metrics, "gw_retries_total", telemetry.L("outcome", "failed")).Value(); got != 1 {
		t.Errorf("gw_retries_total{outcome=failed} = %d, want 1", got)
	}
	if got := counter(cfg.Metrics, "gw_retries_total", telemetry.L("outcome", "budget_exhausted")).Value(); got != 1 {
		t.Errorf("gw_retries_total{outcome=budget_exhausted} = %d, want 1", got)
	}
}

func TestTraceIDContinuityThroughGateway(t *testing.T) {
	// A real daemon this time: the assertion is that the gateway's span
	// tree and the backend's share the client-chosen trace identity.
	backendTracer := trace.New()
	bcfg := acqserver.DefaultConfig()
	bcfg.Order = 5
	bcfg.MaxTOFBins = 64
	bcfg.Trace = backendTracer
	srv, err := acqserver.NewServer(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(bln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	gwTracer := trace.New()
	cfg := testGwConfig(bln.Addr().String())
	cfg.Trace = gwTracer
	_, addr := startGateway(t, cfg)

	const traceID = 0xC0FFEE
	c := dialGateway(t, addr)
	resp := doFrame(t, c, acqserver.FrameOptions{Path: acqserver.PathCPU, TraceID: traceID})
	if resp.Code != acqserver.CodeOK {
		t.Fatalf("response code %v (%s), want OK", resp.Code, resp.Message)
	}
	if resp.TraceID != traceID {
		t.Errorf("response echoed trace id %#x, want %#x", resp.TraceID, traceID)
	}
	if resp.Result.Backend != 1 || resp.Result.Attempts != 1 {
		t.Errorf("routing trailer (backend=%d attempts=%d), want (1, 1)", resp.Result.Backend, resp.Result.Attempts)
	}

	find := func(tr *trace.Tracer) (trace.TraceSnapshot, bool) {
		for _, ts := range tr.Snapshot() {
			if uint64(ts.ID) == traceID {
				return ts, true
			}
		}
		return trace.TraceSnapshot{}, false
	}
	waitFor(t, "gateway trace retention", func() bool { _, ok := find(gwTracer); return ok })
	waitFor(t, "backend trace retention", func() bool { _, ok := find(backendTracer); return ok })

	gts, _ := find(gwTracer)
	if gts.Spans[0].Name != "gw_request" {
		t.Errorf("gateway root span %q, want gw_request", gts.Spans[0].Name)
	}
	foundUpstream := false
	for _, sp := range gts.Spans[1:] {
		if sp.Name == "gw_upstream" && sp.Parent == 0 {
			foundUpstream = true
			if sp.Attrs["backend"] != bln.Addr().String() {
				t.Errorf("gw_upstream backend attr %v, want %s", sp.Attrs["backend"], bln.Addr())
			}
		}
	}
	if !foundUpstream {
		t.Error("gateway trace has no gw_upstream child under gw_request")
	}

	bts, _ := find(backendTracer)
	if bts.Spans[0].Name != "frame" {
		t.Errorf("backend root span %q, want frame", bts.Spans[0].Name)
	}
}

// TestRebuildRingConcurrentFlipsConverge is the regression test for the
// lost-update race in rebuildRing: every goroutine flips its own backend's
// ready bit and rebuilds, as the probers and markDown do.  Whichever rebuild
// publishes last must have read the final bits — with the bits snapshotted
// outside the publishing lock, an older snapshot could land last and leave
// a dead backend on the ring (or a live one off it).
func TestRebuildRingConcurrentFlipsConverge(t *testing.T) {
	cfg := testGwConfig()
	cfg.replicas = 4 // a cheap build keeps the rebuilds overlapping
	for i := 0; i < 8; i++ {
		cfg.Backends = append(cfg.Backends, BackendConfig{Addr: fmt.Sprintf("10.0.0.%d:7071", i)})
	}
	g := &Gateway{cfg: cfg, m: newGwMetrics(cfg.Metrics, cfg.Backends)}
	for i, bc := range cfg.Backends {
		g.backends = append(g.backends, &backend{id: i, cfg: bc})
	}
	for round := 0; round < 300; round++ {
		var wg sync.WaitGroup
		for _, b := range g.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					b.ready.Store((round+b.id*k)%3 != 0)
					g.rebuildRing()
				}
			}(b)
		}
		wg.Wait()
		onRing := map[int]bool{}
		for _, p := range g.ring().points {
			onRing[p.backend] = true
		}
		for _, b := range g.backends {
			if onRing[b.id] != b.ready.Load() {
				t.Fatalf("round %d: backend %d ready=%v but on ring=%v", round, b.id, b.ready.Load(), onRing[b.id])
			}
		}
		if got := g.ReadyBackends(); got != len(onRing) {
			t.Fatalf("round %d: ring reports %d backends, holds %d", round, got, len(onRing))
		}
	}
}

// TestHelloPayloadIsNotBuffered: a HELLO's length is bounded only by
// MaxPayloadBytes and arrives before anything about the peer is known, so
// the gateway must read its version byte and discard the rest without
// allocating for it — eight 1 MiB HELLOs negotiate version 2 each time and
// cost the process less than one of them in allocation.
func TestHelloPayloadIsNotBuffered(t *testing.T) {
	fb := newFakeBackend(t, fakeOK)
	_, addr := startGateway(t, testGwConfig(fb.addr()))
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	hello := make([]byte, 1<<20)
	hello[0] = acqserver.ProtocolV2

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if err := acqserver.WriteMessage(conn, acqserver.MsgHello, uint64(i), hello); err != nil {
			t.Fatal(err)
		}
		h, err := acqserver.ReadHeader(conn)
		if err != nil {
			t.Fatal(err)
		}
		var payload [64]byte
		if h.Type != acqserver.MsgHelloOK || int(h.PayloadLen) > len(payload) {
			t.Fatalf("HELLO %d answered %v with %d payload bytes", i, h.Type, h.PayloadLen)
		}
		if _, err := io.ReadFull(conn, payload[:h.PayloadLen]); err != nil {
			t.Fatal(err)
		}
		info, err := acqserver.DecodeServerInfo(payload[:h.PayloadLen])
		if err != nil || info.Version != acqserver.ProtocolV2 {
			t.Fatalf("HELLO %d negotiated %+v (%v), want version %d", i, info, err, acqserver.ProtocolV2)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("eight 1 MiB HELLOs allocated %d bytes, want < 1 MiB", grown)
	}
}

// TestWireBytesCountedExactly: gw_bytes_in_total and gw_bytes_out_total
// count what crossed the downstream socket — a version-1 header is 18
// bytes, a version-2 header 26 — exactly as acq_bytes_* do (both daemons
// count in the shared session reader and message writer).
func TestWireBytesCountedExactly(t *testing.T) {
	fb := newFakeBackend(t, fakeOK)
	cfg := testGwConfig(fb.addr())
	_, addr := startGateway(t, cfg)
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// exchange sends one message and returns the wire size of the answer.
	exchange := func(ver uint8, typ acqserver.MsgType, payload []byte) (sent, received int64) {
		t.Helper()
		msg := acqserver.AppendHeader(nil, acqserver.Header{Version: ver, Type: typ, ReqID: 1, PayloadLen: uint32(len(payload)), TraceID: 77})
		if _, err := conn.Write(append(msg, payload...)); err != nil {
			t.Fatal(err)
		}
		h, err := acqserver.ReadHeader(conn)
		if err != nil {
			t.Fatal(err)
		}
		if h.Version != acqserver.ProtocolV2 {
			t.Fatalf("%v answered in version %d, want 2", typ, h.Version)
		}
		if _, err := io.CopyN(io.Discard, conn, int64(h.PayloadLen)); err != nil {
			t.Fatal(err)
		}
		return int64(len(msg) + len(payload)), 26 + int64(h.PayloadLen)
	}
	helloIn, helloOut := exchange(acqserver.ProtocolV1, acqserver.MsgHello, []byte{acqserver.ProtocolV2})
	var frame bytes.Buffer
	if err := frameio.Write(&frame, gwFrame(5, 16), nil, frameio.Raw); err != nil {
		t.Fatal(err)
	}
	frameIn, frameOut := exchange(acqserver.ProtocolV2, acqserver.MsgFrame, append(make([]byte, 5), frame.Bytes()...))
	if helloIn != 18+1 || frameIn != 26+5+int64(frame.Len()) {
		t.Fatalf("test sent %d + %d bytes, want an 18-byte and a 26-byte header", helloIn, frameIn)
	}
	if got := counter(cfg.Metrics, "gw_bytes_in_total").Value(); got != helloIn+frameIn {
		t.Errorf("gw_bytes_in_total = %d, want %d", got, helloIn+frameIn)
	}
	// The counter moves after the write returns, so the answer can arrive
	// first.
	waitFor(t, "gw_bytes_out_total to cover both answers", func() bool {
		return counter(cfg.Metrics, "gw_bytes_out_total").Value() >= helloOut+frameOut
	})
	if got := counter(cfg.Metrics, "gw_bytes_out_total").Value(); got != helloOut+frameOut {
		t.Errorf("gw_bytes_out_total = %d, want %d", got, helloOut+frameOut)
	}
}
