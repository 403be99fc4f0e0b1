// coalesce.go: server-side gathering across sessions — the one file that
// knows the batching policy.  A worker that picks up a CPU-path frame waits
// up to Config.CoalesceWindow for batch-mates (or until
// Config.CoalesceFillTarget frames are gathered); serve then answers the
// members one after another, each through its own compute and each checked
// against its own deadline just before that compute (server.go).  No
// decode is shared: a CPU-path answer is one transform of the frame's row
// sums, and there is nothing left to amortize across frames.
//
// A gathered member keeps the lifecycle of a solo frame — serve → run →
// finish: its own trace tree (queue_wait ends at pickup, a coalesce_wait
// span covers the gather), WAL completion, deadline handling, RESULT and
// wide event, which carries the batch size and the member's coalesce wait.
// A hybrid-path frame never opens a gather, though it may join one.
package acqserver

import "time"

// gather picks up first and returns what the worker serves next, in the
// worker's reusable batch slice.  With coalescing off, or when first is not
// a CPU-path frame, that is first alone: no timer, no coalesce_wait span, no acq_coalesce_* observation.  Otherwise
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
