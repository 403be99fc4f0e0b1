// session.go: one connected client — a read loop (the shared session
// reader of core.go) that streams frames straight off the socket into a
// shard queue, and a write loop that owns the connection's outbound half
// behind a bounded response queue.  The loops communicate only through
// channels; teardown is idempotent and either side's failure (read timeout,
// write timeout, malformed framing, panic) closes both.
package acqserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// outMsg is one queued response.  root, when active, is the frame's trace
// root: the write loop ends it, so the span tree covers first socket byte
// to last.  t, when non-nil, is the task answered: the write loop stamps
// the write, adds the write_response span, observes acq_stage_ns, encodes
// a RESULT from t.res and retires t.  ev, when non-nil, is the task's wide
// event, recorded once its write and total times are known.
type outMsg struct {
	typ     MsgType
	reqID   uint64
	traceID uint64
	payload []byte
	root    trace.Span
	ev      *flightrec.Event
	t       *task
}

// captureReader tees everything read through it into a reusable buffer,
// so the exact FRAME payload bytes that were streamed off the socket can
// be appended to the frame log verbatim (replay is then bit-identical to
// what the client sent), and a hybrid frame the fixed-point proof does not
// clear can be re-decoded into its cells.
type captureReader struct {
	r   io.Reader
	buf []byte
}

// Read forwards to the wrapped reader, appending what it saw.
func (c *captureReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.buf = append(c.buf, p[:n]...)
	return n, err
}

// session is the per-connection state.
type session struct {
	id    uint64
	srv   *Server
	conn  net.Conn
	shard *shard

	// capR captures FRAME payload bytes, replay re-reads them; the buffer
	// is reused across the session's frames (the read loop is sequential).
	capR   captureReader
	replay bytes.Reader
	opts   [frameOptsSize]byte // a FRAME's options prefix, read by the read loop
	w      MessageWriter       // frames the write loop's responses

	// ver is the negotiated protocol version (ProtocolV1 until the HELLO
	// payload proves the client speaks something newer); atomic because
	// the read loop negotiates it while the write loop frames responses.
	ver atomic.Uint32

	out    chan outMsg
	done   chan struct{} // closed by teardown
	drainc chan struct{} // closed by Shutdown: flush out, then close

	teardownOnce func()
	drainOnce    func()
}

// startSession registers conn as a session pinned to its shard and starts
// its read and write loops.
func (s *Server) startSession(conn net.Conn) {
	id := s.nextSess.Add(1)
	sess := &session{
		id:     id,
		srv:    s,
		conn:   conn,
		shard:  s.shards[int(id)%len(s.shards)],
		out:    make(chan outMsg, sessionBuffer),
		done:   make(chan struct{}),
		drainc: make(chan struct{}),
	}
	sess.ver.Store(ProtocolV1)
	sess.teardownOnce = sync.OnceFunc(func() {
		close(sess.done)
		_ = conn.Close()
		s.m.sessionsActive.Add(-1)
		s.sessMu.Lock()
		delete(s.sessions, sess)
		s.sessMu.Unlock()
		s.log.Info("session closed", "session", id, "remote", conn.RemoteAddr().String())
	})
	sess.drainOnce = sync.OnceFunc(func() { close(sess.drainc) })
	s.sessMu.Lock()
	s.sessions[sess] = struct{}{}
	s.sessMu.Unlock()
	s.m.sessionsTotal.Inc()
	s.m.sessionsActive.Add(1)
	s.log.Info("session opened", "session", id, "remote", conn.RemoteAddr().String(), "shard", sess.shard.id)
	s.sessWG.Add(2)
	go sess.readLoop()
	go sess.writeLoop()
}

// teardown closes the connection and both loops; safe to call repeatedly
// from any goroutine.
func (sess *session) teardown() { sess.teardownOnce() }

// startDrain asks the write loop to flush pending responses and close.
func (sess *session) startDrain() { sess.drainOnce() }

// send queues a response for the write loop.  It blocks while the buffer
// is full (the write timeout bounds how long: a session that cannot absorb
// responses is torn down, which closes done) and reports whether the
// message was queued.  An unqueued message still ends the trace root and
// records the wide event, so both are retained even when the client is
// gone.
func (sess *session) send(m outMsg) bool {
	select {
	case sess.out <- m:
		return true
	case <-sess.done:
		m.root.End()
		sess.srv.retire(m)
		return false
	}
}

// writeLoop owns the outbound half: one response per iteration under a
// write deadline.  On drain it flushes whatever is queued and closes.
func (sess *session) writeLoop() {
	defer sess.srv.sessWG.Done()
	defer sess.teardown()
	for {
		select {
		case m := <-sess.out:
			if !sess.writeOne(m) {
				return
			}
		case <-sess.done:
			return
		case <-sess.drainc:
			if len(sess.out) == 0 {
				return
			}
		}
	}
}

// writeOne writes a single message under the write deadline, framed in
// the session's negotiated protocol version in the session's writer — a
// RESULT encoded straight behind its header.  For a task's response it
// stamps the write, closes the frame's span tree with a write_response
// child, observes the frame's stages and records its wide event — this is
// "response-write time", the moment the request's full anatomy is known —
// and retires the task.
func (sess *session) writeOne(m outMsg) bool {
	s := sess.srv
	t := m.t
	if t != nil {
		t.st.writeStart = s.clock()
	}
	h := Header{Version: uint8(sess.ver.Load()), Type: m.typ, ReqID: m.reqID, TraceID: m.traceID}
	var n int64
	var err error
	if t != nil && m.typ == MsgResult {
		err = sess.w.FrameResult(h, &t.res) // finish checked that it fits the wire
	} else {
		sess.w.Frame(h, m.payload)
	}
	if err == nil {
		n, err = s.Send(sess.conn, &sess.w)
	}
	if t != nil {
		t.st.writeEnd = s.clock()
		s.stageSpan(m.root, "write_response", t.st.writeStart, t.st.writeEnd).SetInt("bytes", n)
		if t.st.pickup != 0 { // a frame shed at the door has no stages past its read
			wall := s.epoch.UnixNano() + t.st.writeEnd
			for i, v := range t.st.stages() {
				s.m.stages[t.path][i].ObserveExemplarAt(float64(v), t.traceID, wall)
			}
		}
	}
	m.root.End()
	s.retire(m)
	return err == nil
}

// readLoop owns the inbound half: the shared session reader (core.go)
// calling back into this session.  On exit it starts a drain rather than
// tearing the connection down directly, so a final queued error (bad first
// message, oversized payload) reaches the client before the write loop
// closes the socket.
func (sess *session) readLoop() {
	defer sess.srv.sessWG.Done()
	defer sess.startDrain()
	sess.srv.ReadSession(sess.conn, sess)
}

// Panicked implements SessionHandler: a panic while handling this
// connection kills the session, never the daemon.
func (sess *session) Panicked(v any) {
	s := sess.srv
	s.m.panics["session"].Inc()
	s.log.Error("session panic recovered", "session", sess.id, "panic", fmt.Sprint(v))
	if _, err := s.flight.Dump("panic"); err != nil {
		s.log.Error("flight recorder dump failed", "err", err)
	}
}

// Reject implements SessionHandler: the typed ERROR is queued behind
// whatever the session still owes the client.
func (sess *session) Reject(h Header, code Code, msg string) {
	sess.srv.respondError(sess, h.ReqID, h.TraceID, code, msg, trace.Span{})
}

// Hello implements SessionHandler: it adopts the negotiated version and
// answers HELLO_OK carrying it.
func (sess *session) Hello(h Header, ver uint8) bool {
	s := sess.srv
	sess.ver.Store(uint32(ver))
	s.log.Debug("session negotiated", "session", sess.id, "proto", ver)
	info := EncodeServerInfo(ServerInfo{
		Version:         ver,
		Shards:          uint16(len(s.shards)),
		Order:           uint8(s.cfg.Order),
		MaxPayloadBytes: s.MaxPayloadBytes,
	})
	s.respond(sess, outMsg{typ: MsgHelloOK, reqID: h.ReqID, payload: info}, CodeOK)
	return true
}

// Frame implements SessionHandler: it streams one FRAME payload off the
// socket, validates it, and enqueues it (or sheds).  It reports whether the
// connection is still in a consistent state to keep reading.  The frame's
// trace root starts here: a nonzero version-2 trace id is adopted (so
// client and server spans share an identity), otherwise the tracer mints
// one.
func (sess *session) Frame(h Header, body io.Reader) bool {
	s := sess.srv
	root := s.tracer.StartTrace("frame", h.TraceID)
	traceID := h.TraceID
	if root.Active() {
		traceID = root.TraceID()
		root.SetInt("session", int64(sess.id))
		root.SetInt("req_id", int64(h.ReqID))
		root.SetInt("frame_bytes", int64(h.PayloadLen))
		root.SetInt("prs_order", int64(s.cfg.Order))
	}
	read := s.clock()
	if _, err := io.ReadFull(body, sess.opts[:]); err != nil {
		root.End()
		return false
	}
	opts, err := decodeFrameOpts(sess.opts[:])
	if err != nil {
		s.m.protocolErrs.Inc()
		root.End()
		return false
	}

	// Stream the frame straight off the socket into its row sums: the
	// encoded payload is never buffered whole, and frameio's limits reject
	// absurd headers before anything is taken from a pool.  The stream is
	// teed into the session's capture buffer for the frame log, which
	// records the wire payload byte for byte, and on the hybrid path, which
	// re-decodes a frame past the proof into its cells.
	src := body
	if s.wal != nil || opts.Path == PathHybrid {
		sess.capR.buf = append(sess.capR.buf[:0], sess.opts[:]...)
		sess.capR.r = body
		src = &sess.capR
	}
	in, decErr := s.readInput(opts.Path, src, func() io.Reader {
		sess.replay.Reset(sess.capR.buf[frameOptsSize:])
		return &sess.replay
	})
	// Resync to the message boundary regardless of decode success; a
	// failure here is a connection-level error (timeout, disconnect).
	if _, err := io.Copy(io.Discard, src); err != nil {
		root.End()
		return false
	}
	readEnd := s.clock()
	s.stageSpan(root, "socket_read", read, readEnd)
	if decErr != nil {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument, decErr.Error(), root)
		return true
	}
	// The frame is this function's to recycle until a task takes it over.
	defer func() { s.release(in) }()
	if opts.Path != PathHybrid && opts.Path != PathCPU {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument,
			fmt.Sprintf("unknown path %v", opts.Path), root)
		return true
	}
	if in.driftBins != s.seqLen {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument,
			fmt.Sprintf("frame has %d drift bins, server order %d needs %d",
				in.driftBins, s.cfg.Order, s.seqLen), root)
		return true
	}
	root.SetStr("path", opts.Path.String())
	t := s.tasks.Get().(*task)
	t.sess, t.reqID, t.traceID, t.path, t.root = sess, h.ReqID, traceID, opts.Path, root
	t.st = stamps{read: read, readEnd: readEnd, walEnd: readEnd}

	// Append to the frame log before enqueue: once the append is
	// acknowledged the frame survives a crash (per the fsync policy) even
	// if it is still queued when the daemon dies.
	if s.wal != nil {
		seq, err := s.wal.Append(traceID, sess.capR.buf)
		t.st.walEnd = s.clock()
		s.stageSpan(root, "framelog_append", readEnd, t.st.walEnd).SetInt("wal_seq", int64(seq))
		if err != nil {
			if s.wal.Durable() {
				// Durability was promised; failing open would lie to the
				// client.
				s.respondError(sess, h.ReqID, traceID, CodeInternal,
					fmt.Sprintf("frame log append failed: %v", err), root)
				return true
			}
			s.log.Warn("framelog append failed; serving without durability",
				"session", sess.id, "req_id", h.ReqID, "trace_id", telemetry.TraceID(traceID), "err", err)
			t.walNotDurable = true
		} else {
			t.walSeq, t.walNotDurable = seq, !s.wal.Durable()
		}
	}
	t.in, in = in, input{} // the task owns it from here until finish
	if opts.Deadline > 0 {
		t.deadline = t.st.walEnd + int64(opts.Deadline)
	}
	// shed rejects the accepted frame at the door: counted, logged, and
	// ended like any other task.
	shed := func(reason string, code Code, msg string) {
		s.m.shedByReason[reason].Inc()
		s.log.Debug("frame shed", "reason", reason, "session", sess.id, "req_id", h.ReqID, "trace_id", telemetry.TraceID(traceID), "shard", sess.shard.id)
		s.finish(t, sess.shard.id, outcome{code: code, detail: msg, shed: reason})
	}
	if s.Draining() {
		shed("draining", CodeUnavailable, "daemon is draining")
		return true
	}
	switch err := sess.shard.enqueue(t, s.effectiveDepth()); err {
	case nil:
		s.m.framesByPath[opts.Path].Inc()
	case errDegraded:
		shed("degraded", CodeResourceExhausted, fmt.Sprintf("shard %d shedding early: server is degraded", sess.shard.id))
	case errQueueFull:
		shed("queue_full", CodeResourceExhausted, fmt.Sprintf("shard %d queue full (depth %d)", sess.shard.id, s.cfg.QueueDepth))
	case errDraining:
		shed("draining", CodeUnavailable, "daemon is draining")
	}
	return true
}
