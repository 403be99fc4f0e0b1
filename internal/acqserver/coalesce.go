// coalesce.go: server-side micro-batching across sessions — the one file
// that knows the batching policy.  Every frame a shard serves carries the
// same m-sequence order (enforced at accept), so CPU-path frames from
// different clients can share one decode: a worker that picks up a frame
// waits up to Config.CoalesceWindow for batch-mates (or until
// Config.CoalesceFillTarget frames are gathered), and serve decodes the
// batch's CPU-path members as one concatenated column space through
// pipeline.DeconvolveFramesWith — tiles span frame boundaries, so a burst of
// narrow frames fills full-width tiles and pays one blocked kernel call per
// tile instead of one short call per frame.
//
// Per-frame semantics survive batching because a batch member goes through
// the same serve → run → finish lifecycle as a solo frame (server.go): its
// own trace tree (queue_wait ends at pickup, a coalesce_wait span covers
// the gather, the first member's tree carries the shared decode span), WAL
// completion, deadline handling, RESULT and wide event.  Hybrid-path frames
// pass through the coalescer un-batched — the modeled FPGA offload already
// amortizes per-frame costs in its own tile path.
package acqserver

import "time"

// gather picks up first and returns what the worker serves next, in the
// worker's reusable batch slice.  With coalescing off, or when first is not
// a CPU-path frame (serve runs those alone), that is first alone: no
// timer, no coalesce_wait span, no acq_coalesce_* observation.  Otherwise
// more tasks are drained from the shard queue until the fill target
// is reached, the window expires, or the queue closes (drain); every member
// is picked up (queue_wait ended) and carries a coalesce_wait span over its
// share of the gather, and the dispatch is counted under the acq_coalesce_*
// families.
func (s *Server) gather(sh *shard, ws *workerState, first *task) []*task {
	s.pickup(sh, first)
	ws.batch = append(ws.batch[:0], first)
	if s.cfg.CoalesceWindow == 0 || first.path != PathCPU {
		return ws.batch
	}
	first.cspan = first.root.Child("coalesce_wait")
	trigger := "fill"
	timer := time.NewTimer(s.cfg.CoalesceWindow)
	defer timer.Stop()
gather:
	for len(ws.batch) < s.cfg.CoalesceFillTarget {
		select {
		case t, ok := <-sh.ch:
			if !ok {
				trigger = "drain"
				break gather
			}
			s.pickup(sh, t)
			t.cspan = t.root.Child("coalesce_wait")
			ws.batch = append(ws.batch, t)
		case <-timer.C:
			trigger = "window"
			break gather
		}
	}
	s.m.coalesceBatches[trigger].Inc()
	s.m.coalesceFill.Observe(float64(len(ws.batch)))
	s.m.coalesceWait.Observe(float64(time.Since(first.picked).Nanoseconds()))
	for _, t := range ws.batch {
		t.cspan.SetInt("batch", int64(len(ws.batch)))
		t.cspan.SetStr("trigger", trigger)
		t.cspan.End()
	}
	return ws.batch
}
