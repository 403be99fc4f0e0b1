// lifecycle_test.go: a task has one lifecycle and one exit.  However a frame
// ends — shed at the door, expired in the queue, failed, panicked, cut off
// mid-batch or decoded — it is answered once, its frame-log record is
// completed once, and it leaves one wide event.
package acqserver

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
)

// Trace ids name the roles in TestEveryEndingFinishesOnce: the blocker
// pins the single worker inside the compute hook until released, fillers
// (traceFiller, traceFiller+1) occupy queue slots, and the subject is the
// request whose ending the case is about.
const (
	traceBlocker = 0xB10C
	traceSubject = 0x5AB1
	traceFiller  = 0xF110
)

// endings drives one server through a scripted sequence of requests.
type endings struct {
	t        *testing.T
	s        *Server
	c        *Client
	started  chan struct{} // the blocker entered the compute hook
	release  chan struct{} // closed to let it go
	degraded atomic.Bool

	sent      int
	mu        sync.Mutex
	responses map[uint64]*Response // by trace id
}

// send submits one frame in the background under the given trace id.  It
// is a CPU-path frame, the kind the coalescer gathers; the compute hook
// still runs every task alone.
func (e *endings) send(id uint64, deadline time.Duration) {
	e.sent++
	go func() {
		resp, err := e.c.Do(context.Background(), testFrame(4), frameio.Raw,
			FrameOptions{Path: PathCPU, Deadline: deadline, TraceID: id})
		if err != nil {
			e.t.Errorf("request %#x: %v", id, err)
			return
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.responses[resp.TraceID] != nil {
			e.t.Errorf("request %#x answered twice", resp.TraceID)
		}
		e.responses[resp.TraceID] = resp
	}()
}

// block occupies the worker with a request that stays in compute until release.
func (e *endings) block() {
	e.send(traceBlocker, 0)
	<-e.started
}

// accepted waits until n frames have been admitted to the shard queue.
func (e *endings) accepted(n int64) {
	waitFor(e.t, "frames to be admitted", func() bool { return e.s.m.framesByPath[PathCPU].Value() == n })
}

// answered reports how many responses have arrived, and the subject's.
func (e *endings) answered() (int, *Response) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.responses), e.responses[traceSubject]
}

// TestEveryEndingFinishesOnce walks every ending a task can have, with and
// without the coalescer's gather in front of the worker and the frame log
// on: each request gets one response, its log record is completed by exactly
// one mark, and it leaves one wide event — the subject's with the outcome
// and shed reason of its ending.
func TestEveryEndingFinishesOnce(t *testing.T) {
	solo := func(e *endings) { e.send(traceSubject, 0) }
	for _, tc := range []struct {
		name    string
		code    Code
		shed    string
		detail  string
		subject func() (*Result, error) // the subject's compute step; nil answers OK
		drive   func(e *endings)
	}{
		{name: "ok", code: CodeOK, drive: solo},
		{name: "compute_error", code: CodeInternal, detail: "synthetic decode failure", drive: solo,
			subject: func() (*Result, error) { return nil, errors.New("synthetic decode failure") }},
		{name: "panic", code: CodeInternal, detail: "worker panic", drive: solo,
			subject: func() (*Result, error) { panic("synthetic compute failure") }},
		{name: "expired_at_dispatch", code: CodeDeadlineExceeded, detail: "in queue", drive: func(e *endings) {
			e.block()
			e.send(traceSubject, time.Millisecond)
			e.accepted(2)
			queued := time.Now() // at or after the enqueue the deadline counts from
			waitFor(e.t, "the queued deadline to lapse", func() bool { return time.Since(queued) > time.Millisecond })
		}},
		{name: "shed_queue_full", code: CodeResourceExhausted, shed: "queue_full", drive: func(e *endings) {
			e.block()
			e.send(traceFiller, 0)
			e.send(traceFiller+1, 0)
			e.accepted(3) // one in the worker, two filling the depth-2 queue
			e.send(traceSubject, 0)
		}},
		{name: "shed_degraded", code: CodeResourceExhausted, shed: "degraded", drive: func(e *endings) {
			e.degraded.Store(true) // effective depth (2+1)/2 = 1
			e.block()
			e.send(traceFiller, 0)
			e.accepted(2)
			e.send(traceSubject, 0)
		}},
		{name: "shed_draining", code: CodeUnavailable, shed: "draining", drive: func(e *endings) {
			e.block() // Shutdown cannot get past the busy worker, so the session stays open
			go e.s.Shutdown(context.Background())
			waitFor(e.t, "the drain to start", e.s.Draining)
			e.send(traceSubject, 0)
		}},
	} {
		for _, window := range []time.Duration{0, 2 * time.Millisecond} {
			mode := "solo"
			if window > 0 {
				mode = "coalescing"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				e := &endings{
					t:         t,
					started:   make(chan struct{}, 1),
					release:   make(chan struct{}),
					responses: map[uint64]*Response{},
				}
				flight := flightrec.New(flightrec.Config{})
				walDir, walReg := t.TempDir(), telemetry.NewRegistry()
				walCfg := framelog.DefaultConfig(walDir)
				walCfg.Fsync, walCfg.Metrics = framelog.FsyncNone, walReg
				wal, err := framelog.Open(walCfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig()
				cfg.Shards, cfg.WorkersPerShard, cfg.QueueDepth = 1, 1, 2
				cfg.CoalesceWindow, cfg.CoalesceFillTarget = window, 2
				cfg.FrameLog, cfg.FlightRecorder, cfg.DegradedMode = wal, flight, e.degraded.Load
				cfg.processHook = func(tk *task) (*Result, error) {
					switch {
					case tk.traceID == traceBlocker:
						e.started <- struct{}{}
						<-e.release
					case tk.traceID == traceSubject && tc.subject != nil:
						return tc.subject()
					}
					return &Result{}, nil
				}
				var addr string
				e.s, addr = startServer(t, cfg)
				e.c = dialClient(t, addr)

				tc.drive(e)
				if tc.shed != "" {
					// A shed is answered while the worker is still busy; only
					// then may the drain case let Shutdown reach the session.
					waitFor(t, "the shed response", func() bool { _, subject := e.answered(); return subject != nil })
				}
				close(e.release)
				waitFor(t, "every response", func() bool { n, _ := e.answered(); return n == e.sent })
				if err := e.s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}

				_, subject := e.answered()
				if subject.Code != tc.code || !strings.Contains(subject.Message, tc.detail) {
					t.Errorf("subject answered %v %q, want %v %q", subject.Code, subject.Message, tc.code, tc.detail)
				}
				var responses int64
				for _, c := range e.s.m.responses {
					responses += c.Value()
				}
				if want := int64(e.sent) + 1; responses != want { // + HELLO_OK
					t.Errorf("%d responses queued for %d requests and one HELLO", responses, e.sent)
				}

				events := flight.Snapshot(flightrec.Filter{})
				if len(events) != e.sent {
					t.Errorf("%d wide events for %d requests: %+v", len(events), e.sent, events)
				}
				wal, err = framelog.Open(framelog.DefaultConfig(walDir))
				if err != nil {
					t.Fatal(err)
				}
				defer wal.Close()
				seen := map[string]bool{}
				for _, ev := range events {
					if seen[ev.TraceID] {
						t.Errorf("trace %s has two wide events", ev.TraceID)
					}
					seen[ev.TraceID] = true
					if ev.WALSeq == 0 || !wal.Completed(ev.WALSeq) {
						t.Errorf("event %+v: frame-log record not completed", ev)
					}
					if ev.TraceID == telemetry.TraceID(traceSubject).String() &&
						(ev.Outcome != tc.code.String() || ev.ShedReason != tc.shed || !strings.Contains(ev.Detail, tc.detail)) {
						t.Errorf("subject event %+v, want outcome %v shed %q detail %q", ev, tc.code, tc.shed, tc.detail)
					}
				}
				if got := walReg.Counter("framelog_completions_total", "").Value(); got != int64(e.sent) {
					t.Errorf("%d completion marks for %d requests", got, e.sent)
				}
			})
		}
	}
}

// gatedDecoder is a column-at-a-time decoder (not an FHTDecoder, so the
// pipeline feeds it one Decode per column) whose first call parks until the
// gate opens and then fails the way a decode cut off by its context does.
// It returns the error itself because the context's own timer goroutine may
// not have run yet when the gate opens just after the deadline.
type gatedDecoder struct {
	hadamard.Decoder
	first *sync.Once
	held  chan struct{} // closed once the first call is parked
	gate  chan struct{}
}

// Decode decodes one column; the first call is the gated one.
func (d gatedDecoder) Decode(y []float64) ([]float64, error) {
	var err error
	d.first.Do(func() {
		close(d.held)
		<-d.gate
		err = context.DeadlineExceeded
	})
	if err != nil {
		return nil, err
	}
	return d.Decoder.Decode(y)
}

// TestDeadlineCutsSharedDecode: two CPU frames share one decode and the
// shorter deadline lapses while it is in flight.  The expired member is
// answered DEADLINE_EXCEEDED, its batch-mate is served again alone with the
// peaks a plain server finds, and both are finished exactly once.
func TestDeadlineCutsSharedDecode(t *testing.T) {
	frame := signalFrame(t, 5, 6, 3)
	_, plainAddr := startServer(t, testConfig())
	want, err := dialClient(t, plainAddr).Do(context.Background(), frame, frameio.Delta, FrameOptions{Path: PathCPU})
	if err != nil || want.Code != CodeOK || len(want.Result.Peaks) == 0 {
		t.Fatalf("plain server: %v / %+v", err, want)
	}

	flight := flightrec.New(flightrec.Config{})
	walDir := t.TempDir()
	cfg := coalesceConfig(time.Minute, 2) // the fill target dispatches, never the window
	cfg.FrameLog, cfg.FlightRecorder = openWAL(t, walDir, framelog.FsyncNone), flight
	s, addr := startServer(t, cfg)
	gate := gatedDecoder{first: new(sync.Once), held: make(chan struct{}), gate: make(chan struct{})}
	s.decoder = func() (hadamard.Decoder, error) {
		fht, err := hadamard.NewFHTDecoder(cfg.Order)
		d := gate
		d.Decoder = fht
		return d, err
	}

	const deadline = 200 * time.Millisecond // long enough to outlast admission, short enough to wait out
	type answer struct {
		resp *Response
		err  error
	}
	patient, hurried := make(chan answer, 1), make(chan answer, 1)
	do := func(out chan answer, opts FrameOptions) {
		resp, err := dialClient(t, addr).Do(context.Background(), frame, frameio.Delta, opts)
		out <- answer{resp, err}
	}
	go do(patient, FrameOptions{Path: PathCPU, TraceID: 0xA1})
	waitFor(t, "the patient frame to be admitted", func() bool { return s.m.framesByPath[PathCPU].Value() == 1 })
	go do(hurried, FrameOptions{Path: PathCPU, TraceID: 0xA2, Deadline: deadline})
	<-gate.held // the shared decode is in flight, so the hurried deadline has begun
	expires := time.Now().Add(deadline)
	waitFor(t, "the hurried deadline to lapse", func() bool { return time.Now().After(expires) })
	close(gate.gate)

	if a := <-hurried; a.err != nil || a.resp.Code != CodeDeadlineExceeded || !strings.Contains(a.resp.Message, "in coalesced batch") {
		t.Fatalf("hurried member: %v / %+v, want DEADLINE_EXCEEDED in coalesced batch", a.err, a.resp)
	}
	if a := <-patient; a.err != nil || a.resp.Code != CodeOK || !samePeaks(a.resp.Result.Peaks, want.Result.Peaks) {
		t.Fatalf("patient member: %v / %+v, want the plain server's %+v", a.err, a.resp, want.Result.Peaks)
	}
	if got := s.m.coalesceFrames.Value(); got != 0 {
		t.Errorf("%d frames counted as decoded through a shared batch, want 0 (the batch was cut)", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := flight.Snapshot(flightrec.Filter{})
	if len(events) != 2 || events[0].TraceID == events[1].TraceID {
		t.Fatalf("want one wide event per request, got %+v", events)
	}
	wal := openWAL(t, walDir, framelog.FsyncNone)
	defer wal.Close()
	for _, ev := range events {
		if ev.WALSeq == 0 || !wal.Completed(ev.WALSeq) {
			t.Errorf("event %+v: frame-log record not completed", ev)
		}
	}
}
