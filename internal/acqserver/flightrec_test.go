package acqserver

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
)

// TestWideEventsRecorded proves the tentpole join: every completed request
// leaves one wide event carrying the request's trace id, shard, stage
// durations and outcome, and the process histogram's exemplar carries a
// trace id that appears among the recorded events.
func TestWideEventsRecorded(t *testing.T) {
	flight := flightrec.New(flightrec.Config{})
	cfg := testConfig()
	cfg.FlightRecorder = flight
	_, addr := startServer(t, cfg)
	c := dialClient(t, addr)

	const n = 8
	for i := 1; i <= n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := c.Do(ctx, testFrame(16), frameio.Raw, FrameOptions{Path: PathCPU, TraceID: uint64(0xA0 + i)})
		cancel()
		if err != nil || resp.Code != CodeOK {
			t.Fatalf("request %d: %v / %+v", i, err, resp)
		}
	}

	// Record claims a sequence before it publishes the event, so wait on
	// what a snapshot sees.
	waitFor(t, "all events recorded", func() bool { return len(flight.Snapshot(flightrec.Filter{Outcome: "OK"})) >= n })
	evs := flight.Snapshot(flightrec.Filter{Outcome: "OK"})
	if len(evs) != n {
		t.Fatalf("%d OK events, want %d", len(evs), n)
	}
	seen := map[string]bool{}
	for _, e := range evs {
		if e.Source != "acqserver" || e.Path != "cpu" {
			t.Fatalf("event %+v: want source acqserver path cpu", e)
		}
		if e.TraceID == "" || len(e.TraceID) != 16 {
			t.Fatalf("event %+v: want a 16-hex trace id", e)
		}
		if e.ProcessNs <= 0 || e.WriteNs <= 0 || e.TotalNs <= 0 {
			t.Fatalf("event %+v: want positive stage durations", e)
		}
		if e.ReqID == 0 || e.Session == 0 || e.Order != 5 {
			t.Fatalf("event %+v: want req/session ids and PRS order 5", e)
		}
		seen[e.TraceID] = true
	}
	if want := telemetry.TraceID(0xA1).String(); !seen[want] {
		t.Fatalf("trace id %s missing from events: %v", want, seen)
	}

	// Exemplar join: the compute stage's histogram must retain a trace id
	// that is also present as a wide event — the metrics→events pivot the
	// observability runbook leans on.
	snap := cfg.Metrics.Snapshot()
	var exemplar string
	for _, m := range snap.Metrics {
		if m.Name != "acq_stage_ns" || m.Labels["stage"] != "compute" {
			continue
		}
		for _, b := range m.Buckets {
			if b.ExemplarTraceID != "" {
				exemplar = b.ExemplarTraceID
			}
		}
	}
	if exemplar == "" {
		t.Fatal("acq_stage_ns{stage=compute} retained no exemplar")
	}
	if !seen[exemplar] {
		t.Fatalf("exemplar trace id %s not among recorded events %v", exemplar, seen)
	}
}

// TestShedEventsCarryReason pins the single worker on a blocked compute
// hook, fills the depth-1 queue, and asserts the shed requests are
// recorded as wide events with the shed reason attached.
func TestShedEventsCarryReason(t *testing.T) {
	flight := flightrec.New(flightrec.Config{})
	cfg := testConfig()
	cfg.FlightRecorder = flight
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
	do := func(id uint64) {
		resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathHybrid, TraceID: id})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}
	go do(1) // occupies the worker
	<-started
	go do(2) // sits in the queue
	waitFor(t, "second frame to be queued", func() bool {
		return s.m.framesByPath[PathHybrid].Value() == 2
	})
	go do(3) // shed
	go do(4) // shed
	waitFor(t, "two frames to be shed", func() bool {
		return s.m.shedByReason["queue_full"].Value() == 2
	})
	close(release)
	for i := 0; i < 4; i++ {
		<-responses
	}

	shed := flight.Snapshot(flightrec.Filter{Outcome: "RESOURCE_EXHAUSTED"})
	if len(shed) != 2 {
		t.Fatalf("%d shed events, want 2: %+v", len(shed), shed)
	}
	for _, e := range shed {
		if e.ShedReason != "queue_full" || e.TraceID == "" {
			t.Fatalf("shed event %+v: want shed_reason queue_full with a trace id", e)
		}
	}
}

// TestDebugEndpointsDuringDrain hammers /debug/events and /debug/traces
// while traffic is flowing and the server is shutting down — the race
// detector guards the lock-free event ring and the trace ring against torn
// reads.
func TestDebugEndpointsDuringDrain(t *testing.T) {
	flight := flightrec.New(flightrec.Config{})
	cfg := testConfig()
	cfg.FlightRecorder = flight
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve(ln) }()

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for i := 0; i < 4; i++ {
		traffic.Add(1)
		go func(id int) {
			defer traffic.Done()
			c, err := Dial(ln.Addr().String(), 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 1; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				_, err := c.Do(ctx, testFrame(16), frameio.Raw, FrameOptions{Path: PathCPU, TraceID: uint64(id*1000 + j)})
				cancel()
				if err != nil {
					return // drain closed the session; expected
				}
			}
		}(i)
	}

	var scrapers sync.WaitGroup
	eventsHandler := flight.Handler()
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for j := 0; j < 200; j++ {
				rec := httptest.NewRecorder()
				eventsHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?outcome=OK&min_ms=0", nil))
				if rec.Code != 200 {
					panic("events scrape failed mid-drain")
				}
				var resp struct {
					Events []flightrec.Event `json:"events"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					panic(err)
				}
				for _, e := range resp.Events {
					if e.Seq == 0 || e.Source == "" {
						panic("torn event observed over /debug/events")
					}
				}
			}
		}()
	}

	waitFor(t, "some traffic recorded", func() bool { return flight.LastSeq() > 8 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	traffic.Wait()
	scrapers.Wait()

	if flight.LastSeq() == 0 {
		t.Fatal("no events recorded")
	}
}
