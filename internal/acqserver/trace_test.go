package acqserver

// trace_test.go: protocol-version negotiation against version-1-era
// clients, trace-id echo on error responses, the end-to-end span tree for
// served frames, one spelling of a trace id across every surface, and
// concurrent observability scrapes while frames are in flight.

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/instrument"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// TestV1ClientCompatibility drives the handshake the way a version-1-era
// client does — HELLO with an empty payload or an explicit version byte of
// 1 — and asserts every subsequent response is framed at version 1: no
// trace-id field on the wire, nothing the old client cannot parse.
func TestV1ClientCompatibility(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty_hello_payload", nil},
		{"explicit_v1", []byte{ProtocolV1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServer(t, testConfig())
			conn := rawDial(t, addr)
			if err := WriteMessage(conn, MsgHello, 0, tc.payload); err != nil {
				t.Fatal(err)
			}
			h, payload := rawRead(t, conn)
			if h.Type != MsgHelloOK {
				t.Fatalf("handshake answered %v, want HELLO_OK", h.Type)
			}
			if h.Version != ProtocolV1 {
				t.Errorf("HELLO_OK framed at version %d, want %d", h.Version, ProtocolV1)
			}
			info, err := DecodeServerInfo(payload)
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != ProtocolV1 {
				t.Errorf("negotiated version %d, want %d", info.Version, ProtocolV1)
			}

			// A frame submitted over the v1 framing must come back v1-framed
			// with no trace id.
			if err := WriteMessage(conn, MsgFrame, 1, framePayload(t, testFrame(16), FrameOptions{Path: PathCPU})); err != nil {
				t.Fatal(err)
			}
			rh, rp := rawRead(t, conn)
			if rh.Type != MsgResult {
				t.Fatalf("frame answered %v, want RESULT", rh.Type)
			}
			if rh.Version != ProtocolV1 || rh.TraceID != 0 {
				t.Errorf("RESULT framed at version %d with trace id %#x, want version %d and no trace id",
					rh.Version, rh.TraceID, ProtocolV1)
			}
			if _, err := DecodeResult(rp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClientNegotiatesV2 asserts the shipped Client lands on version 2
// against the current server and that responses ride the 26-byte header.
func TestClientNegotiatesV2(t *testing.T) {
	_, addr := startServer(t, testConfig())
	c := dialClient(t, addr)
	if got := c.ProtocolVersion(); got != ProtocolV2 {
		t.Fatalf("client negotiated version %d, want %d", got, ProtocolV2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := c.Do(ctx, testFrame(16), frameio.Raw, FrameOptions{Path: PathCPU, TraceID: 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK {
		t.Fatalf("frame rejected: %v %s", resp.Code, resp.Message)
	}
	if resp.TraceID != 0x1234 {
		t.Errorf("response trace id %#x, want the submitted %#x", resp.TraceID, 0x1234)
	}
}

// TestTraceIDEchoedOnError submits invalid frames carrying a trace id and
// asserts the id comes back on the ERROR response — with and without a
// tracer installed on the server — so a client can always correlate a
// rejection with its own telemetry.
func TestTraceIDEchoedOnError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"untraced_server", nil},
		{"traced_server", trace.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Trace = tc.tracer
			_, addr := startServer(t, cfg)
			c := dialClient(t, addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// 15 drift bins is order 4; the server serves order 5.
			bad := instrument.NewFrame(15, 16)
			resp, err := c.Do(ctx, bad, frameio.Raw, FrameOptions{Path: PathCPU, TraceID: 0xDEADBEEF})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Code == CodeOK {
				t.Fatal("mismatched frame accepted, want an error response")
			}
			if resp.TraceID != 0xDEADBEEF {
				t.Errorf("error response trace id %#x, want the submitted %#x", resp.TraceID, 0xDEADBEEF)
			}
		})
	}
}

// spanNames flattens a trace snapshot into a name-presence set.
func spanNames(tr trace.TraceSnapshot) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestEndToEndSpanTree serves one hybrid and one CPU frame with tracing on
// and asserts the retained trees carry the full stage taxonomy from socket
// read to response write, under the trace ids the client chose.
func TestEndToEndSpanTree(t *testing.T) {
	tracer := trace.New()
	cfg := testConfig()
	cfg.Trace = tracer
	_, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, req := range []struct {
		path Path
		id   uint64
	}{
		{PathHybrid, 0xB0B1},
		{PathCPU, 0xB0B2},
	} {
		resp, err := c.Do(ctx, testFrame(16), frameio.Raw, FrameOptions{Path: req.path, TraceID: req.id})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeOK {
			t.Fatalf("path %v rejected: %v %s", req.path, resp.Code, resp.Message)
		}
	}

	// The root span ends after the response is written, so the retained
	// tree can land in the ring just after the client sees the RESULT.
	byID := map[uint64]trace.TraceSnapshot{}
	waitFor(t, "both traces retained", func() bool {
		for _, tr := range tracer.Snapshot() {
			byID[uint64(tr.ID)] = tr
		}
		_, ok1 := byID[0xB0B1]
		_, ok2 := byID[0xB0B2]
		return ok1 && ok2
	})

	hybridTree := spanNames(byID[0xB0B1])
	for _, want := range []string{
		"frame", "socket_read", "queue_wait", "worker", "write_response",
		"hybrid_offload", "fpga_capture", "fpga_accumulate", "xd1_dma_in",
		"fpga_fht", "xd1_dma_out",
	} {
		if !hybridTree[want] {
			t.Errorf("hybrid trace missing span %q (got %v)", want, hybridTree)
		}
	}
	// An integral frame of small counts is answered from the Q-format
	// proof, and its fpga_fht span says so.
	for _, sp := range byID[0xB0B1].Spans {
		if sp.Name == "fpga_fht" && sp.Attrs["proved"] != int64(1) {
			t.Errorf("fpga_fht attrs %v, want proved=1", sp.Attrs)
		}
	}
	cpuTree := spanNames(byID[0xB0B2])
	for _, want := range []string{
		"frame", "socket_read", "queue_wait", "worker", "cpu_decode", "write_response",
	} {
		if !cpuTree[want] {
			t.Errorf("cpu trace missing span %q (got %v)", want, cpuTree)
		}
	}
}

// lockedBuffer is a log sink the server's goroutines write while the test
// reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceIDOneSpelling serves one traced frame whose decode fails and
// follows its trace id from the wide event to every other surface that
// names it: the /debug/traces body, an acq_stage_ns exemplar line of
// /metrics and the logged failure carry the same 16 hex digits, so one
// grep joins them.
func TestTraceIDOneSpelling(t *testing.T) {
	tracer, flight, logs := trace.New(), flightrec.New(flightrec.Config{}), &lockedBuffer{}
	cfg := testConfig()
	cfg.Trace, cfg.FlightRecorder = tracer, flight
	cfg.Logger = slog.New(slog.NewTextHandler(logs, nil))
	cfg.processHook = func(*task) (*Result, error) { return nil, errors.New("synthetic decode failure") }
	_, addr := startServer(t, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := dialClient(t, addr).Do(ctx, testFrame(16), frameio.Raw, FrameOptions{Path: PathCPU, TraceID: 0x5eed0001})
	if err != nil || resp.Code != CodeInternal {
		t.Fatalf("want an INTERNAL response: %v / %+v", err, resp)
	}

	waitFor(t, "wide event", func() bool { return len(flight.Snapshot(flightrec.Filter{})) == 1 })
	id := flight.Snapshot(flightrec.Filter{})[0].TraceID
	if id != "000000005eed0001" {
		t.Fatalf("wide event trace id %q, want 000000005eed0001", id)
	}
	waitFor(t, "trace retained", func() bool { return len(tracer.Snapshot()) == 1 })
	rec := httptest.NewRecorder()
	tracer.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if want := `"id": "` + id + `"`; !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/debug/traces lacks %s:\n%s", want, rec.Body.String())
	}
	var metrics strings.Builder
	if err := cfg.Metrics.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	exemplar := false
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "acq_stage_ns_bucket") && strings.Contains(line, `# {trace_id="`+id+`"}`) {
			exemplar = true
		}
	}
	if !exemplar {
		t.Errorf("no acq_stage_ns exemplar names trace_id %s:\n%s", id, metrics.String())
	}
	if want := "trace_id=" + id; !strings.Contains(logs.String(), "frame failed") || !strings.Contains(logs.String(), want) {
		t.Errorf("logged failure lacks %s:\n%s", want, logs.String())
	}
}

// TestConcurrentScrapes hammers /metrics and /debug/traces while frames
// are in flight; run under -race this proves the snapshot paths never data
// race with live updates.  The scrapes start once frames are flowing and
// the load stops only after both scrapers are done, so they overlap by
// construction.
func TestConcurrentScrapes(t *testing.T) {
	tracer := trace.New()
	cfg := testConfig()
	cfg.Trace = tracer
	_, addr := startServer(t, cfg)

	var clients sync.WaitGroup
	stop := make(chan struct{})
	flowing := make(chan struct{})
	var once sync.Once
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			f := testFrame(16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := c.Do(ctx, f, frameio.Raw, FrameOptions{Path: PathCPU})
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				once.Do(func() { close(flowing) })
			}
		}()
	}

	var scrapers sync.WaitGroup
	scrape := func(h http.Handler, path string) {
		defer scrapers.Done()
		<-flowing
		for i := 0; i < 100; i++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d, want 200", path, rec.Code)
				return
			}
		}
	}
	scrapers.Add(2)
	go scrape(cfg.Metrics.Handler(), "/metrics")
	go scrape(tracer.Handler(), "/debug/traces")

	scrapers.Wait()
	close(stop)
	clients.Wait()
}
