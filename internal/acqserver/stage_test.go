// stage_test.go: the stage clock.  Every timing surface of a served frame —
// acq_stage_ns, the RESULT's queue and process times, the wide event —
// derives from one stamp per stage boundary, so they agree exactly.
package acqserver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
)

// stepClock is an injected stage clock whose k-th read steps it by k
// nanoseconds: every gap between two stamps is a distinct sum of steps,
// so a stage measured between the wrong pair of stamps shows.
type stepClock struct {
	ns, reads atomic.Int64
}

// read is the Config.clock seam.
func (c *stepClock) read() int64 { return c.ns.Add(c.reads.Add(1)) }

// advance moves the clock on by d without counting a read.
func (c *stepClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestStageBudget serves frames on both paths, with and without a frame
// log, alone and as members of a coalesced batch, on a stepping stage
// clock.  For every frame the stamps are in order, no stage is negative,
// the stages plus the remainder are the round trip, the RESULT's queue and
// process times are the queue and compute stages, and the wide event's
// durations are the stages too, its total the round trip; acq_stage_ns
// holds exactly those values, once per frame.  A frame served alone reads
// the clock 7 times, 8 with a frame log: one read per boundary.
func TestStageBudget(t *testing.T) {
	for _, path := range []Path{PathCPU, PathHybrid} {
		for _, logged := range []bool{false, true} {
			for _, coalesced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/logged=%v/coalesced=%v", path, logged, coalesced), func(t *testing.T) {
					stageBudget(t, path, logged, coalesced)
				})
			}
		}
	}
}

func stageBudget(t *testing.T, path Path, logged, coalesced bool) {
	engine, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Shutdown(context.Background())
	clock, flight := &stepClock{}, flightrec.New(flightrec.Config{})
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard = 1, 1
	cfg.clock, cfg.FlightRecorder = clock.read, flight
	if logged {
		cfg.FrameLog = openWAL(t, t.TempDir(), framelog.FsyncNone)
	}
	if coalesced {
		cfg.CoalesceWindow, cfg.CoalesceFillTarget = time.Minute, 2
	}
	// The hook keeps each task for its stamps — so the server must not
	// reuse it — and computes it for real, through another server.
	var mu sync.Mutex
	tasks := map[uint64]*task{}
	cfg.processHook = func(tk *task) (*Result, error) {
		mu.Lock()
		tasks[tk.traceID] = tk
		tk.keep = true
		mu.Unlock()
		ws, err := workerOf(engine)
		if err != nil {
			return nil, err
		}
		return &tk.res, engine.compute(context.Background(), ws, tk)
	}
	s, addr := startServer(t, cfg)
	do := func(c *Client, p Path, id uint64) *Response {
		resp, err := c.Do(context.Background(), testFrame(16), frameio.Raw, FrameOptions{Path: p, TraceID: id})
		if err != nil || resp.Code != CodeOK {
			t.Errorf("frame %d: %v / %+v", id, err, resp)
			return &Response{Result: &Result{}}
		}
		return resp
	}
	recorded := func(n int) func() bool {
		return func() bool { return len(flight.Snapshot(flightrec.Filter{})) == n }
	}

	responses := map[uint64]*Response{}
	if coalesced {
		// A CPU frame opens the gather on the only worker; the frame under
		// test, from another session, fills it.
		opener, member := dialClient(t, addr), dialClient(t, addr)
		first := make(chan *Response, 1)
		go func() { first <- do(opener, PathCPU, 1) }()
		waitFor(t, "the opener to be queued", func() bool { return s.m.framesByPath[PathCPU].Value() == 1 })
		responses[2] = do(member, path, 2)
		responses[1] = <-first
		waitFor(t, "both wide events", recorded(2))
	} else {
		c := dialClient(t, addr)
		for id := uint64(1); id <= 3; id++ {
			before := clock.reads.Load()
			responses[id] = do(c, path, id)
			waitFor(t, "the wide event", recorded(int(id)))
			want := int64(7)
			if logged {
				want++
			}
			if got := clock.reads.Load() - before; got != want {
				t.Errorf("frame %d read the stage clock %d times, want %d", id, got, want)
			}
		}
	}

	events := map[string]flightrec.Event{}
	for _, ev := range flight.Snapshot(flightrec.Filter{}) {
		events[ev.TraceID] = ev
	}
	var sums [len(stageNames)]int64
	mu.Lock()
	defer mu.Unlock()
	for id, resp := range responses {
		tk := tasks[id]
		if tk == nil {
			t.Fatalf("frame %d never computed", id)
		}
		st := tk.st
		order := []int64{st.read, st.readEnd, st.walEnd, st.pickup, st.computeStart, st.computeEnd, st.writeStart, st.writeEnd}
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] && !(i == 2 && !logged && order[i] == order[i-1]) {
				t.Errorf("frame %d: stamps out of order: %v", id, order)
			}
		}
		v := st.stages()
		var sum int64
		for i, d := range v {
			if d < 0 {
				t.Errorf("frame %d: stage %s is %d", id, stageNames[i], d)
			}
			if stageNames[i] != "roundtrip" {
				sum += d
			}
			sums[i] += d
		}
		stage := func(name string) int64 {
			for i, n := range stageNames {
				if n == name {
					return v[i]
				}
			}
			t.Fatalf("no stage %s", name)
			return 0
		}
		if roundtrip := stage("roundtrip"); sum != roundtrip || roundtrip != st.writeEnd-st.read {
			t.Errorf("frame %d: stages plus remainder %d, round trip %d, stamps span %d", id, sum, roundtrip, st.writeEnd-st.read)
		}
		if r := resp.Result; int64(r.QueueWaitNs) != stage("queue") || int64(r.ProcessNs) != stage("compute") {
			t.Errorf("frame %d: RESULT queue %d process %d, stages queue %d compute %d",
				id, r.QueueWaitNs, r.ProcessNs, stage("queue"), stage("compute"))
		}
		ev := events[telemetry.TraceID(id).String()]
		if ev.TotalNs != stage("roundtrip") || ev.QueueWaitNs != stage("queue") ||
			ev.ProcessNs != stage("compute") || ev.WriteNs != stage("write") {
			t.Errorf("frame %d: wide event total/queue/process/write %d/%d/%d/%d, stages %v",
				id, ev.TotalNs, ev.QueueWaitNs, ev.ProcessNs, ev.WriteNs, v)
		}
		if coalesced && (ev.CoalesceBatch != 2 || ev.CoalesceWaitNs != stage("remainder")) {
			t.Errorf("frame %d: coalesce batch %d wait %d, want 2 and the remainder %d",
				id, ev.CoalesceBatch, ev.CoalesceWaitNs, stage("remainder"))
		}
	}
	for i, name := range stageNames {
		var count, sum int64
		for _, p := range []Path{PathHybrid, PathCPU} {
			h := s.m.stages[p][i]
			count += h.Count()
			sum += int64(h.Sum())
		}
		if count != int64(len(responses)) || sum != sums[i] {
			t.Errorf("acq_stage_ns{stage=%s}: %d observations summing to %d, want %d summing to %d",
				name, count, sum, len(responses), sums[i])
		}
	}
}
