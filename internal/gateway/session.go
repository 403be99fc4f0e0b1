// session.go: one connected downstream client of the gateway.  The read
// loop is the session reader acqserver's own sessions run, but it never
// decodes a frame: each FRAME payload is read whole (bounded by the
// handshake payload cap) and handed to a proxy goroutine, so one slow
// backend does not serialize the session's other in-flight frames.  A
// per-session semaphore bounds the in-flight proxies — past it the read
// loop simply stops reading, pushing backpressure into the client's
// socket, the same explicit-overload stance the daemon takes with its
// bounded shard queues.  Responses are written under one mutex (each
// message is a single Write) with a write deadline per message.
package gateway

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acqserver"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// gwSession is the per-connection state of one downstream client.
type gwSession struct {
	id   uint64
	gw   *Gateway
	conn net.Conn

	// ver is the negotiated protocol version (v1 until HELLO proves
	// newer); atomic because proxy goroutines frame responses while the
	// read loop may still be negotiating.
	ver atomic.Uint32

	// retriesLeft is the session's remaining sibling-retry budget.
	retriesLeft atomic.Int64

	// inflight bounds concurrently proxied frames (see package comment).
	inflight chan struct{}

	wmu          sync.Mutex              // serializes downstream writes
	w            acqserver.MessageWriter // frames them; under wmu
	done         chan struct{}
	teardownOnce func()
}

// startSession registers a downstream connection and starts its read loop.
func (g *Gateway) startSession(conn net.Conn) {
	sess := &gwSession{
		id:       g.nextSess.Add(1),
		gw:       g,
		conn:     conn,
		inflight: make(chan struct{}, maxInflight),
		done:     make(chan struct{}),
	}
	sess.ver.Store(acqserver.ProtocolV1)
	sess.retriesLeft.Store(int64(cmp.Or(g.cfg.retryBudget, retryBudget)))
	sess.teardownOnce = sync.OnceFunc(func() {
		close(sess.done)
		_ = conn.Close()
		g.m.sessionsActive.Add(-1)
		g.sessMu.Lock()
		delete(g.sessions, sess)
		g.sessMu.Unlock()
		g.log.Info("gw session closed", "session", sess.id, "remote", conn.RemoteAddr().String())
	})
	g.sessMu.Lock()
	g.sessions[sess] = struct{}{}
	g.sessMu.Unlock()
	g.m.sessionsTotal.Inc()
	g.m.sessionsActive.Add(1)
	g.log.Info("gw session opened", "session", sess.id, "remote", conn.RemoteAddr().String())
	g.sessWG.Add(1)
	go sess.readLoop()
}

// teardown closes the connection; safe to call repeatedly.
func (sess *gwSession) teardown() { sess.teardownOnce() }

// writeMsg writes one downstream message under the session's write
// deadline, framed in the negotiated version by the session's writer.  A
// write failure tears the session down.
func (sess *gwSession) writeMsg(typ acqserver.MsgType, reqID, traceID uint64, payload []byte) bool {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	sess.w.Frame(sess.header(typ, reqID, traceID), payload)
	return sess.flush()
}

// writeResult writes res downstream as a RESULT, like writeMsg.
func (sess *gwSession) writeResult(reqID, traceID uint64, res *acqserver.Result) bool {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if err := sess.w.FrameResult(sess.header(acqserver.MsgResult, reqID, traceID), res); err != nil {
		sess.teardown()
		return false
	}
	return sess.flush()
}

func (sess *gwSession) header(typ acqserver.MsgType, reqID, traceID uint64) acqserver.Header {
	return acqserver.Header{Version: uint8(sess.ver.Load()), Type: typ, ReqID: reqID, TraceID: traceID}
}

// flush sends the message framed in the session's writer unless the
// session is torn down; the caller holds wmu.
func (sess *gwSession) flush() bool {
	select {
	case <-sess.done:
		return false
	default:
	}
	if _, err := sess.gw.Send(sess.conn, &sess.w); err != nil {
		sess.teardown()
		return false
	}
	return true
}

// respondError counts and writes a typed ERROR downstream.
func (sess *gwSession) respondError(reqID, traceID uint64, code acqserver.Code, msg string) {
	sess.gw.m.responses[code].Inc()
	sess.writeMsg(acqserver.MsgError, reqID, traceID, acqserver.EncodeError(code, msg))
}

// recordEvent publishes one gateway wide event into the flight recorder:
// the proxied frame's trace identity, serving backend, attempt count and
// outcome, recorded as the response goes downstream.  No-op when no
// recorder is wired; b is nil for frames shed before routing.
func (g *Gateway) recordEvent(sess *gwSession, reqID, traceID uint64, start time.Time, b *backend, attempts uint8, code acqserver.Code, shedReason, detail string) {
	if g.flight == nil {
		return
	}
	ev := flightrec.Event{
		Source:     "gateway",
		TraceID:    telemetry.TraceID(traceID).String(),
		Session:    sess.id,
		ReqID:      reqID,
		Attempts:   attempts,
		Outcome:    code.String(),
		ShedReason: shedReason,
		Detail:     detail,
		Start:      start,
	}
	if b != nil {
		ev.Backend = uint16(b.id + 1) // matches the RESULT routing trailer
		ev.BackendAddr = b.cfg.Addr
	}
	g.flight.Record(ev)
}

// readLoop owns the inbound half: the shared session reader
// (acqserver.Core.ReadSession) calling back into this session.  When it
// returns the connection is torn down at once — responses are written
// synchronously, so nothing is queued behind it.
func (sess *gwSession) readLoop() {
	defer sess.gw.sessWG.Done()
	defer sess.teardown()
	sess.gw.ReadSession(sess.conn, sess)
}

// Panicked implements acqserver.SessionHandler.
func (sess *gwSession) Panicked(v any) {
	g := sess.gw
	g.log.Error("gw session panic recovered", "session", sess.id, "panic", fmt.Sprint(v))
	if _, err := g.flight.Dump("panic"); err != nil {
		g.log.Error("flight recorder dump failed", "err", err)
	}
}

// Reject implements acqserver.SessionHandler.
func (sess *gwSession) Reject(h acqserver.Header, code acqserver.Code, msg string) {
	sess.respondError(h.ReqID, h.TraceID, code, msg)
}

// Hello implements acqserver.SessionHandler: it adopts the negotiated
// version and answers HELLO_OK with the synthesized fleet summary.
func (sess *gwSession) Hello(h acqserver.Header, ver uint8) bool {
	sess.ver.Store(uint32(ver))
	info := sess.gw.serverInfo(ver)
	sess.gw.m.responses[acqserver.CodeOK].Inc()
	return sess.writeMsg(acqserver.MsgHelloOK, h.ReqID, 0, acqserver.EncodeServerInfo(info))
}

// Frame implements acqserver.SessionHandler: it reads one FRAME payload
// whole into a pooled buffer and hands it to a proxy goroutine, blocking
// first on the in-flight semaphore.  It reports whether the connection is
// still in a consistent state to keep reading.
func (sess *gwSession) Frame(h acqserver.Header, body io.Reader) bool {
	g := sess.gw
	// The payload lives in a pooled buffer until its proxy goroutine is
	// done with it; every earlier exit hands it back.
	bp := payloadPool.Get().(*[]byte)
	if cap(*bp) < int(h.PayloadLen) {
		*bp = make([]byte, h.PayloadLen)
	}
	payload := (*bp)[:h.PayloadLen]
	if _, err := io.ReadFull(body, payload); err != nil {
		payloadPool.Put(bp)
		return false
	}
	if g.Draining() {
		payloadPool.Put(bp)
		g.m.shed["draining"].Inc()
		g.recordEvent(sess, h.ReqID, h.TraceID, time.Now(), nil, 0,
			acqserver.CodeUnavailable, "draining", "gateway is draining")
		sess.respondError(h.ReqID, h.TraceID, acqserver.CodeUnavailable, "gateway is draining")
		return true
	}
	select {
	case sess.inflight <- struct{}{}:
	case <-sess.done:
		payloadPool.Put(bp)
		return false
	}
	g.proxyWG.Add(1)
	go func() {
		defer g.proxyWG.Done()
		defer func() { <-sess.inflight }()
		// Client.DoPayload writes synchronously, so once proxy (sibling
		// retry included) returns nothing references the buffer.
		defer payloadPool.Put(bp)
		sess.proxy(h.ReqID, h.TraceID, payload)
	}()
	return true
}

// payloadPool recycles FRAME payload buffers between forwarded frames.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// proxy routes one frame: primary backend by consistent hash of the
// session id, one budgeted sibling retry on a shed or failed attempt,
// trace annotation throughout, and the downstream response (with the
// routing trailer on results).
func (sess *gwSession) proxy(reqID, clientTraceID uint64, payload []byte) {
	g := sess.gw
	began := time.Now()
	root := g.tracer.StartTrace("gw_request", clientTraceID)
	traceID := clientTraceID
	if root.Active() {
		traceID = root.TraceID()
		root.SetInt("session", int64(sess.id))
		root.SetInt("req_id", int64(reqID))
		root.SetInt("frame_bytes", int64(len(payload)))
	}
	defer root.End()

	primary, ok := g.pickBackend(sess.id, -1)
	if !ok {
		g.m.shed["no_backend"].Inc()
		root.SetStr("error", "no_backend")
		g.log.Warn("frame shed", "reason", "no_backend", "session", sess.id, "req_id", reqID, "trace_id", telemetry.TraceID(traceID))
		g.recordEvent(sess, reqID, traceID, began, nil, 0,
			acqserver.CodeUnavailable, "no_backend", "no ready backend")
		sess.respondError(reqID, traceID, acqserver.CodeUnavailable, "no ready backend")
		return
	}
	resp, err := sess.attempt(root, primary, 1, payload, traceID)

	attempts := uint8(1)
	backendID := primary
	if retryable(resp, err) {
		if sess.retriesLeft.Add(-1) < 0 {
			sess.retriesLeft.Add(1) // budget floor: don't wind below zero
			g.m.retries["budget_exhausted"].Inc()
			root.SetStr("retry", "budget_exhausted")
		} else if sibling, ok := g.pickBackend(sess.id, primary.id); ok {
			root.SetStr("retry", "sibling")
			root.SetStr("retry_from", primary.cfg.Addr)
			root.SetStr("retry_to", sibling.cfg.Addr)
			root.SetStr("retry_reason", attemptOutcome(resp, err))
			resp, err = sess.attempt(root, sibling, 2, payload, traceID)
			attempts, backendID = 2, sibling
			if err == nil && resp.Code == acqserver.CodeOK {
				g.m.retries["ok"].Inc()
			} else {
				g.m.retries["failed"].Inc()
			}
		} else {
			g.m.retries["failed"].Inc()
			root.SetStr("retry", "no_sibling")
		}
	}

	if err != nil {
		root.SetStr("error", err.Error())
		g.log.Warn("upstream failed", "session", sess.id, "req_id", reqID, "trace_id", telemetry.TraceID(traceID),
			"backend", backendID.cfg.Addr, "err", err)
		g.recordEvent(sess, reqID, traceID, began, backendID, attempts,
			acqserver.CodeUnavailable, "", err.Error())
		sess.respondError(reqID, traceID, acqserver.CodeUnavailable,
			fmt.Sprintf("backend %s unreachable: %v", backendID.cfg.Addr, err))
		return
	}
	root.SetInt("attempts", int64(attempts))
	root.SetStr("backend", backendID.cfg.Addr)
	if resp.Code != acqserver.CodeOK {
		root.SetStr("error", resp.Code.String())
		g.recordEvent(sess, reqID, traceID, began, backendID, attempts, resp.Code, "", resp.Message)
		sess.respondError(reqID, traceID, resp.Code, resp.Message)
		return
	}
	// The upstream decode bounded the peaks, so the result fits the wire.
	res := resp.Result
	res.Backend = uint16(backendID.id + 1)
	res.Attempts = attempts
	g.recordEvent(sess, reqID, traceID, began, backendID, attempts, acqserver.CodeOK, "", "")
	g.m.responses[acqserver.CodeOK].Inc()
	sess.writeResult(reqID, traceID, res)
}

// attempt proxies the payload to one backend under the upstream timeout,
// recording a gw_upstream span and the per-backend latency histogram.  A
// transport failure discards the pooled connection and marks the backend
// down passively.
func (sess *gwSession) attempt(root trace.Span, b *backend, n int, payload []byte, traceID uint64) (*acqserver.Response, error) {
	g := sess.gw
	span := root.Child("gw_upstream")
	span.SetStr("backend", b.cfg.Addr)
	span.SetInt("attempt", int64(n))
	defer span.End()
	g.m.requests[b.id].Inc()

	c, err := b.pool.get()
	if err != nil {
		span.SetStr("error", "dial: "+err.Error())
		g.markDown(b, err)
		return nil, err
	}
	ctx, cancel := context.WithTimeout(b.labels, upstreamTimeout)
	defer cancel()
	start := time.Now()
	// The upstream wait runs under the backend's pprof labels
	// (stage=gw_upstream, backend=addr), built once with it: continuous CPU
	// profiles attribute proxy-path work to the backend being awaited (`go
	// tool pprof -tags` shows the split).
	pprof.SetGoroutineLabels(ctx)
	resp, err := c.DoPayload(ctx, payload, traceID)
	pprof.SetGoroutineLabels(context.Background())
	g.m.upstreamNs[b.id].ObserveExemplar(float64(time.Since(start).Nanoseconds()), traceID)
	if err != nil {
		span.SetStr("error", err.Error())
		b.pool.discard(c)
		g.markDown(b, err)
		return nil, err
	}
	span.SetStr("code", resp.Code.String())
	return resp, nil
}

// retryable reports whether an attempt's outcome should be retried on a
// sibling: transport failures and the daemon's explicit shed codes
// (RESOURCE_EXHAUSTED, UNAVAILABLE).  Deterministic rejections
// (INVALID_ARGUMENT, TOO_LARGE, DEADLINE_EXCEEDED, INTERNAL) would fail
// identically elsewhere and pass through.
func retryable(resp *acqserver.Response, err error) bool {
	if err != nil {
		return true
	}
	return resp.Code == acqserver.CodeResourceExhausted || resp.Code == acqserver.CodeUnavailable
}

// attemptOutcome names a failed attempt for trace annotation.
func attemptOutcome(resp *acqserver.Response, err error) string {
	if err != nil {
		return "transport: " + err.Error()
	}
	return resp.Code.String()
}
