// session.go: one connected client — a read loop (the shared session
// reader of core.go) that streams frames straight off the socket into a
// shard queue, and a write loop that owns the connection's outbound half
// behind a bounded response queue.  The loops communicate only through
// channels; teardown is idempotent and either side's failure (read timeout,
// write timeout, malformed framing, panic) closes both.
package acqserver

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// outMsg is one queued response.  root, when active, is the frame's trace
// root: the write loop records the response write as its final child and
// ends it, so the span tree covers first socket byte to last.  ev, when
// non-nil, is the frame's wide event; the write loop fills its write
// duration and records it, so the flight recorder sees the request's full
// anatomy including the response write.
type outMsg struct {
	typ     MsgType
	reqID   uint64
	traceID uint64
	payload []byte
	root    trace.Span
	ev      *flightrec.Event
}

// captureReader tees everything read through it into a reusable buffer,
// so the exact FRAME payload bytes that were streamed off the socket can
// be appended to the frame log verbatim (replay is then bit-identical to
// what the client sent).
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

	// capR captures FRAME payload bytes for the frame log; its buffer is
	// reused across the session's frames (the read loop is sequential).
	capR captureReader

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
		out:    make(chan outMsg, s.cfg.SessionBuffer),
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
		if m.ev != nil {
			sess.srv.flight.Record(*m.ev)
		}
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
			for {
				select {
				case m := <-sess.out:
					if !sess.writeOne(m) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// writeOne writes a single message under the write deadline, framed in
// the session's negotiated protocol version, closes the frame's span tree
// with a write_response child, and records the frame's wide event — this
// is "response-write time", the moment the request's full anatomy is
// known.
func (sess *session) writeOne(m outMsg) bool {
	s := sess.srv
	ver := uint8(sess.ver.Load())
	wspan := m.root.Child("write_response")
	start := time.Now()
	err := s.WriteMessage(sess.conn, ver, m.typ, m.reqID, m.traceID, m.payload)
	writeNs := time.Since(start).Nanoseconds()
	s.m.write.ObserveExemplar(float64(writeNs), m.traceID)
	wspan.SetInt("bytes", int64(headerLen(ver)+len(m.payload)))
	wspan.End()
	m.root.End()
	if m.ev != nil {
		m.ev.WriteNs = writeNs
		s.flight.Record(*m.ev)
	}
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
	sess.srv.respondError(sess, h.ReqID, h.TraceID, code, msg, trace.Span{}, nil)
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
		MaxPayloadBytes: s.cfg.MaxPayloadBytes,
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
	rspan := root.Child("socket_read")
	var optsBuf [frameOptsSize]byte
	if _, err := io.ReadFull(body, optsBuf[:]); err != nil {
		root.End()
		return false
	}
	opts, err := decodeFrameOpts(optsBuf[:])
	if err != nil {
		s.m.protocolErrs.Inc()
		root.End()
		return false
	}

	// Stream the frame straight off the socket into a pooled frame — int32
	// counts when it is integral, float cells otherwise: the encoded payload
	// is never buffered whole, and frameio's limits reject absurd headers
	// before a frame is taken from the pool.  With a frame
	// log attached the stream is teed into the session's capture buffer so
	// the log records the wire payload byte for byte.
	src := body
	if s.wal != nil {
		sess.capR.buf = append(sess.capR.buf[:0], optsBuf[:]...)
		sess.capR.r = body
		src = &sess.capR
	}
	start := time.Now()
	in, decErr := s.readInput(src)
	s.m.readFrame.ObserveExemplar(float64(time.Since(start).Nanoseconds()), traceID)
	// Resync to the message boundary regardless of decode success; a
	// failure here is a connection-level error (timeout, disconnect).
	if _, err := io.Copy(io.Discard, src); err != nil {
		root.End()
		return false
	}
	rspan.End()
	if decErr != nil {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument, decErr.Error(), root, nil)
		return true
	}
	// The frame is this function's to recycle until a task takes it over.
	defer func() { s.release(in) }()
	if opts.Path != PathHybrid && opts.Path != PathCPU {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument,
			fmt.Sprintf("unknown path %v", opts.Path), root, nil)
		return true
	}
	if in.driftBins() != s.seqLen {
		s.respondError(sess, h.ReqID, traceID, CodeInvalidArgument,
			fmt.Sprintf("frame has %d drift bins, server order %d needs %d",
				in.driftBins(), s.cfg.Order, s.seqLen), root, nil)
		return true
	}
	root.SetStr("path", opts.Path.String())

	// Append to the frame log before enqueue: once the append is
	// acknowledged the frame survives a crash (per the fsync policy) even
	// if it is still queued when the daemon dies.
	var walSeq uint64
	var walNotDurable bool
	if s.wal != nil {
		aspan := root.Child("framelog_append")
		seq, err := s.wal.Append(traceID, sess.capR.buf)
		aspan.SetInt("wal_seq", int64(seq))
		aspan.End()
		if err != nil {
			if s.wal.Durable() {
				// Durability was promised; failing open would lie to the
				// client.
				s.respondError(sess, h.ReqID, traceID, CodeInternal,
					fmt.Sprintf("frame log append failed: %v", err), root, nil)
				return true
			}
			s.log.Warn("framelog append failed; serving without durability",
				"session", sess.id, "req_id", h.ReqID, "trace_id", traceID, "err", err)
			walNotDurable = true
		} else {
			walSeq = seq
			walNotDurable = !s.wal.Durable()
		}
	}

	t := &task{
		sess:          sess,
		reqID:         h.ReqID,
		traceID:       traceID,
		in:            in,
		path:          opts.Path,
		enqueued:      time.Now(),
		root:          root,
		walSeq:        walSeq,
		walNotDurable: walNotDurable,
	}
	in = input{} // the task owns it from here until finish
	if opts.Deadline > 0 {
		t.deadline = t.enqueued.Add(opts.Deadline)
	}
	// shed rejects the accepted frame at the door: counted, logged, and
	// ended like any other task.
	shed := func(reason string, code Code, msg string) {
		s.m.shedByReason[reason].Inc()
		s.log.Debug("frame shed", "reason", reason, "session", sess.id, "req_id", h.ReqID, "trace_id", traceID, "shard", sess.shard.id)
		t.qspan.End()
		s.finish(t, sess.shard.id, outcome{code: code, detail: msg, shed: reason})
	}
	if s.Draining() {
		shed("draining", CodeUnavailable, "daemon is draining")
		return true
	}
	t.qspan = root.Child("queue_wait")
	t.qspan.SetInt("shard", int64(sess.shard.id))
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
