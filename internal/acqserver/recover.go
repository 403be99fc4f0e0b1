// recover.go: crash-recovery backfill from the frame log.  After a
// restart, every record past the last-completed watermark that carries no
// completion mark is decoded and re-enqueued exactly like a live frame —
// same shard queues, same workers, same compute paths — except the task
// has no session: nothing is written to the wire, the outcome is counted
// under acq_recovered_frames_total, and the record's completion is marked
// so the next restart does not replay it again.  Replay is at-least-once
// by design: completion marks are buffered, so a crash can re-process a
// handful of frames whose marks were lost, never the other way around.
package acqserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/framelog"
)

// RecoverFrames re-enqueues every uncompleted frame-log record found by
// the log's crash recovery, blocking until all of them are queued (or ctx
// expires / the daemon starts draining).  It returns the number of frames
// re-enqueued.  Call it after the server is built, concurrently with
// Serve — recovered frames share the worker pools with live traffic.
func (s *Server) RecoverFrames(ctx context.Context) (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	info := s.wal.RecoveryInfo()
	if info.Pending == 0 {
		return 0, nil
	}
	r := s.wal.NewReader(framelog.Start{From: framelog.FromSeq, Seq: info.Watermark + 1})
	defer r.Close()
	enqueued := 0
	var rec framelog.Record
	for {
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) || (err == nil && rec.Seq > info.LastSeq) {
			// Past the recovery horizon: everything newer is live traffic.
			return enqueued, nil
		}
		if err != nil {
			return enqueued, err
		}
		if s.wal.Completed(rec.Seq) {
			continue
		}
		ok, err := s.enqueueRecovered(ctx, rec.Seq, rec.SID, rec.Payload)
		if err != nil {
			return enqueued, err
		}
		if ok {
			enqueued++
		}
	}
}

// enqueueRecovered turns one frame-log record back into a task and feeds
// it to its shard, retrying while queues are full.  A record that no
// longer decodes (e.g. the server was restarted with a different order)
// is counted as a recovered error and marked completed so it never
// replays again.  Returns whether the record was enqueued.
func (s *Server) enqueueRecovered(ctx context.Context, seq, sid uint64, payload []byte) (bool, error) {
	fail := func(msg string) {
		s.m.recovered["error"].Inc()
		s.wal.MarkCompleted(seq)
		s.log.Warn("recovered frame rejected", "wal_seq", seq, "reason", msg)
	}
	if len(payload) < frameOptsSize {
		fail("payload shorter than frame options")
		return false, nil
	}
	opts, err := decodeFrameOpts(payload[:frameOptsSize])
	if err != nil {
		fail(err.Error())
		return false, nil
	}
	if opts.Path != PathHybrid && opts.Path != PathCPU {
		fail(fmt.Sprintf("unknown path %v", opts.Path))
		return false, nil
	}
	in, err := s.readInput(bytes.NewReader(payload[frameOptsSize:]))
	if err != nil {
		fail(err.Error())
		return false, nil
	}
	queued := false
	defer func() {
		if !queued {
			s.release(in)
		}
	}()
	if in.driftBins() != s.seqLen {
		fail(fmt.Sprintf("frame has %d drift bins, server order %d needs %d",
			in.driftBins(), s.cfg.Order, s.seqLen))
		return false, nil
	}
	t := &task{
		reqID:    seq,
		traceID:  sid,
		in:       in,
		path:     opts.Path,
		enqueued: time.Now(),
		walSeq:   seq,
		// Recovered frames never carry a deadline: the original one (if
		// any) predates the crash and would only spuriously expire work
		// the log promised to finish.
	}
	sh := s.shards[int(seq)%len(s.shards)]
	for {
		switch err := sh.enqueue(t, s.cfg.QueueDepth); err {
		case nil:
			queued = true
			s.m.framesByPath[opts.Path].Inc()
			return true, nil
		case errQueueFull:
			select {
			case <-ctx.Done():
				return false, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		case errDraining:
			return false, errDraining
		default:
			return false, err
		}
	}
}
