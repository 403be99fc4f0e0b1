// coalesce.go: server-side micro-batching across sessions.  Every frame a
// shard serves carries the same m-sequence order (enforced at accept), so
// CPU-path frames from different clients can share one decode: a worker
// that picks up a frame waits up to Config.CoalesceWindow for batch-mates
// (or until Config.CoalesceFillTarget frames are gathered), then decodes
// the whole batch as one concatenated column space through
// pipeline.DeconvolveFramesWith — tiles span frame boundaries, so a
// burst of narrow frames fills full-width tiles and pays one blocked
// kernel call per tile instead of one short call per frame.
//
// Per-frame semantics survive batching: every member keeps its own trace
// tree (queue_wait ends at pickup, a coalesce_wait span covers the gather,
// the first member's tree carries the shared decode span), its own WAL
// completion, deadline handling (expired members are answered
// DEADLINE_EXCEEDED at dispatch; if the batch is cancelled by its earliest
// deadline mid-decode, unexpired members are re-served individually), its
// own RESULT with the batch's decode time apportioned by column share plus
// its own peak-detection time (the stages a solo frame's ProcessNs covers),
// and its own wide event annotated with the batch size.  Hybrid-path frames
// pass through the coalescer un-batched — the modeled FPGA offload already
// amortizes per-frame costs in its own tile path.
package acqserver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// gatherBatch collects a batch seeded with first: more tasks are drained
// from the shard queue until the fill target is reached, the coalesce
// window expires, or the queue closes (drain).  Every gathered task is
// picked up (queue_wait ended) and gets an open coalesce_wait span.  It
// returns the batch, the dispatch trigger, and how long the gather took.
func (s *Server) gatherBatch(sh *shard, first *task) ([]*task, string, time.Duration) {
	start := time.Now()
	join := func(t *task) {
		s.pickup(t)
		t.picked = time.Now()
		t.cspan = t.root.Child("coalesce_wait")
	}
	join(first)
	batch := []*task{first}
	trigger := "fill"
	timer := time.NewTimer(s.cfg.CoalesceWindow)
	defer timer.Stop()
gather:
	for len(batch) < s.cfg.CoalesceFillTarget {
		select {
		case t, ok := <-sh.ch:
			if !ok {
				trigger = "drain"
				break gather
			}
			sh.depth.Set(float64(len(sh.ch)))
			join(t)
			batch = append(batch, t)
		case <-timer.C:
			trigger = "window"
			break gather
		}
	}
	return batch, trigger, time.Since(start)
}

// serveBatch dispatches one gathered batch: coalesce telemetry first, then
// CPU-path members (two or more) through the shared multi-frame decode and
// everything else through the frame-at-a-time path.
func (s *Server) serveBatch(sh *shard, ws *workerState, batch []*task, trigger string, waited time.Duration) {
	s.m.coalesceBatches[trigger].Inc()
	s.m.coalesceFill.Observe(float64(len(batch)))
	s.m.coalesceWait.Observe(float64(waited.Nanoseconds()))
	now := time.Now()
	for _, t := range batch {
		t.cspan.SetInt("batch", int64(len(batch)))
		t.cspan.SetStr("trigger", trigger)
		t.cspan.End()
	}
	var cpu []*task
	for _, t := range batch {
		if t.path == PathCPU && s.processHook == nil {
			cpu = append(cpu, t)
		} else {
			s.serveTask(sh, ws, t)
		}
	}
	if len(cpu) == 1 {
		s.serveTask(sh, ws, cpu[0])
		return
	}
	if len(cpu) == 0 {
		return
	}
	// Deadline triage at dispatch, exactly as the solo path would on
	// pickup: members whose deadline already passed are answered now and
	// never enter the shared decode.
	live := cpu[:0]
	for _, t := range cpu {
		if !t.deadline.IsZero() && !now.Before(t.deadline) {
			s.finishBatchMember(t)
			s.recycle(t)
			msg := fmt.Sprintf("deadline expired after %v in queue", t.qwait)
			s.respondError(t.sess, t.reqID, t.traceID, CodeDeadlineExceeded, msg, t.root,
				s.coalesceEvent(t, sh.id, CodeDeadlineExceeded, msg, len(cpu), now, 0))
			continue
		}
		live = append(live, t)
	}
	if len(live) == 1 {
		s.serveTask(sh, ws, live[0])
		return
	}
	if len(live) == 0 {
		return
	}
	s.decodeCoalesced(sh, ws, live, now)
}

// finishBatchMember marks a batch member's WAL completion — the member is
// about to be answered, so a later recovery must not replay it.
func (s *Server) finishBatchMember(t *task) {
	if t.walSeq != 0 && s.wal != nil {
		s.wal.MarkCompleted(t.walSeq)
	}
}

// coalesceEvent is eventFor plus the coalescer's wide-event fields.
func (s *Server) coalesceEvent(t *task, shardID int, code Code, detail string, batchSize int, dispatched time.Time, processNs int64) *flightrec.Event {
	ev := s.eventFor(t, shardID, code, "", detail, t.qwait.Nanoseconds(), processNs)
	if ev != nil {
		ev.CoalesceBatch = batchSize
		ev.CoalesceWaitNs = dispatched.Sub(t.picked).Nanoseconds()
	}
	return ev
}

// decodeCoalesced runs two or more live CPU-path members through one
// shared multi-frame decode under panic isolation and the earliest member
// deadline.  A cancellation mid-decode falls back to serving unexpired
// members individually; any other error answers every member INTERNAL.
func (s *Server) decodeCoalesced(sh *shard, ws *workerState, live []*task, dispatched time.Time) {
	size := len(live)
	defer func() {
		if r := recover(); r != nil {
			s.m.panics["worker"].Inc()
			s.log.Error("worker panic recovered", "shard", sh.id, "batch", size, "panic", fmt.Sprint(r))
			for _, t := range live {
				if ev := s.coalesceEvent(t, sh.id, CodeInternal, fmt.Sprintf("worker panic: %v", r), size, dispatched, 0); ev != nil {
					s.flight.Record(*ev)
				}
			}
			if _, err := s.flight.Dump("panic"); err != nil {
				s.log.Error("flight recorder dump failed", "err", err)
			}
			for _, t := range live {
				s.finishBatchMember(t)
				s.respondError(t.sess, t.reqID, t.traceID, CodeInternal, fmt.Sprintf("worker panic: %v", r), t.root, nil)
			}
		}
	}()

	// Every member gets its own worker span; the shared decode's
	// cpu_decode_batch span hangs off the first member's tree (one trace
	// carries the batch anatomy, the others carry the batch size).
	wspans := make([]trace.Span, size)
	for i, t := range live {
		wspans[i] = t.root.Child("worker")
		wspans[i].SetInt("shard", int64(sh.id))
		wspans[i].SetInt("coalesce_batch", int64(size))
	}
	ctx := trace.ContextWithSpan(context.Background(), wspans[0])
	earliest := time.Time{}
	for _, t := range live {
		if !t.deadline.IsZero() && (earliest.IsZero() || t.deadline.Before(earliest)) {
			earliest = t.deadline
		}
	}
	if !earliest.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, earliest)
		defer cancel()
	}

	start := time.Now()
	results, err := s.computeCPU(ctx, live)
	elapsed := time.Since(start)
	for _, w := range wspans {
		w.End()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The earliest member's deadline cut the batch off.  Expired
			// members are answered; the rest retry alone so one short
			// deadline cannot fail its batch-mates.
			now := time.Now()
			for _, t := range live {
				if !t.deadline.IsZero() && !now.Before(t.deadline) {
					s.finishBatchMember(t)
					s.recycle(t)
					msg := fmt.Sprintf("deadline expired after %v in coalesced batch", now.Sub(t.enqueued))
					s.respondError(t.sess, t.reqID, t.traceID, CodeDeadlineExceeded, msg, t.root,
						s.coalesceEvent(t, sh.id, CodeDeadlineExceeded, msg, size, dispatched, elapsed.Nanoseconds()))
					continue
				}
				s.serveTask(sh, ws, t)
			}
			return
		}
		s.log.Error("coalesced batch failed", "shard", sh.id, "batch", size, "err", err)
		for _, t := range live {
			s.finishBatchMember(t)
			s.recycle(t)
			s.respondError(t.sess, t.reqID, t.traceID, CodeInternal, err.Error(), t.root,
				s.coalesceEvent(t, sh.id, CodeInternal, err.Error(), size, dispatched, elapsed.Nanoseconds()))
		}
		return
	}

	s.m.coalesceFrames.Add(int64(size))
	for i, t := range live {
		res := &results[i]
		process := int64(res.ProcessNs)
		s.m.processByPath[t.path].ObserveExemplar(float64(process), t.traceID)
		s.finishBatchMember(t)
		res.Shard = uint16(sh.id)
		res.QueueWaitNs = uint64(t.qwait.Nanoseconds())
		if t.walNotDurable {
			res.Flags |= ResultFlagNotDurable
		}
		s.recycle(t)
		payload, encErr := EncodeResult(res)
		if encErr != nil {
			s.respondError(t.sess, t.reqID, t.traceID, CodeInternal, encErr.Error(), t.root,
				s.coalesceEvent(t, sh.id, CodeInternal, encErr.Error(), size, dispatched, process))
			continue
		}
		s.respond(t.sess, outMsg{typ: MsgResult, reqID: t.reqID, traceID: t.traceID, payload: payload, root: t.root,
			ev: s.coalesceEvent(t, sh.id, CodeOK, "", size, dispatched, process)}, CodeOK)
	}
}
