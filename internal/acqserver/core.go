// core.go: the part of an IMSP server that does not depend on what the
// server does with a frame — shared by this package's Server and by
// gateway.Gateway, which embed it.  It owns the listener (Serve, Addr, the
// draining flag), the one session reader that runs the protocol state
// machine, and the one message sender that counts wire bytes; what a daemon
// does with HELLO, FRAME and a violation it plugs in through SessionHandler.
package acqserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// SessionHandler is the per-daemon half of one session, called by
// Core.ReadSession from the session's read goroutine.  One value serves the
// whole session.
type SessionHandler interface {
	// Hello answers a HELLO with HELLO_OK once the reader has negotiated
	// ver (and consumed the payload); every later message of the session
	// is framed in ver.  False ends the session.
	Hello(h Header, ver uint8) bool
	// Frame handles one FRAME whose payload — the options prefix at least —
	// is still on the socket: body yields exactly its h.PayloadLen bytes.
	// It reports whether the session may go on, which requires body to have
	// been read to its end.
	Frame(h Header, body io.Reader) bool
	// Reject answers a protocol violation with a typed ERROR.
	Reject(h Header, code Code, msg string)
	// Panicked is told the value of a panic recovered while reading the
	// session; the session ends, the daemon does not.
	Panicked(v any)
}

// The session bounds every IMSP daemon serves with (NewCore).
const (
	maxPayloadBytes = 16 << 20         // one inbound message payload
	readIdleTimeout = 30 * time.Second // the next header plus its message
	writeTimeout    = 10 * time.Second // one response write
)

// Core is the listener, session reader and message sender of an IMSP
// server.  Build it with NewCore and set Accept before Serve.
type Core struct {
	// Accept starts a session on a freshly accepted connection.
	Accept func(net.Conn)
	// MaxPayloadBytes caps one inbound message payload; a larger one is
	// answered TOO_LARGE and ends the session.
	MaxPayloadBytes uint32
	// ReadIdleTimeout bounds the wait for the next header plus the read of
	// the message behind it; WriteTimeout bounds one Send.
	ReadIdleTimeout, WriteTimeout time.Duration
	// BytesIn and BytesOut count wire bytes, header (by its version) plus
	// payload; ProtocolErrs counts malformed messages and violations.
	BytesIn, BytesOut, ProtocolErrs *telemetry.Counter

	lnMu     sync.Mutex
	ln       net.Listener
	draining atomic.Bool
}

// NewCore returns a Core under the package's session bounds: a 16 MiB
// payload, a 30 s idle read and a 10 s write.  The counters may be nil.
func NewCore(accept func(net.Conn), bytesIn, bytesOut, protocolErrs *telemetry.Counter) Core {
	return Core{
		Accept:          accept,
		MaxPayloadBytes: maxPayloadBytes,
		ReadIdleTimeout: readIdleTimeout,
		WriteTimeout:    writeTimeout,
		BytesIn:         bytesIn,
		BytesOut:        bytesOut,
		ProtocolErrs:    protocolErrs,
	}
}

// Draining reports whether StartDrain has been called.  A daemon's
// readiness endpoint consults it so load balancers stop routing as soon as
// the drain starts, before in-flight work finishes.
func (c *Core) Draining() bool { return c.draining.Load() }

// StartDrain flips the draining flag and closes the listener, so Serve
// returns.  Only the first call reports true.
func (c *Core) StartDrain() bool {
	if !c.draining.CompareAndSwap(false, true) {
		return false
	}
	c.lnMu.Lock()
	defer c.lnMu.Unlock()
	if c.ln != nil {
		_ = c.ln.Close()
	}
	return true
}

// Addr returns the bound listener address (nil before Serve).
func (c *Core) Addr() net.Addr {
	c.lnMu.Lock()
	defer c.lnMu.Unlock()
	if c.ln == nil {
		return nil
	}
	return c.ln.Addr()
}

// Serve accepts connections on ln until StartDrain closes it.  It always
// returns a non-nil error; after a drain-initiated close the error is
// net.ErrClosed (wrapped), which callers should treat as clean exit.
func (c *Core) Serve(ln net.Listener) error {
	c.lnMu.Lock()
	c.ln = ln
	c.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if c.draining.Load() {
			_ = conn.Close()
			continue
		}
		c.Accept(conn)
	}
}

// Send writes the message framed in w to a session's connection under the
// write deadline and counts its wire size once it is out.
func (c *Core) Send(conn net.Conn, w *MessageWriter) (int64, error) {
	_ = conn.SetWriteDeadline(time.Now().Add(c.WriteTimeout))
	n, err := w.WriteTo(conn)
	if err == nil {
		c.BytesOut.Add(n)
	}
	return n, err
}

// ReadSession runs the inbound half of one session until the client says
// GOODBYE, the connection ends, or the protocol is violated beyond resync:
// HELLO first, then FRAMEs, each header awaited under the idle read
// deadline.  It never buffers a payload: a HELLO's is discarded past its
// version byte, a FRAME's is the handler's to read, an unknown message's is
// discarded before the typed error goes out.
func (c *Core) ReadSession(conn net.Conn, h SessionHandler) {
	defer func() {
		if r := recover(); r != nil {
			h.Panicked(r)
		}
	}()
	body := &io.LimitedReader{R: conn} // the unread payload of the current message
	hbuf := new(headerBuf)
	sawHello := false
	for {
		_ = conn.SetReadDeadline(time.Now().Add(c.ReadIdleTimeout))
		hdr, err := readHeader(conn, hbuf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.ProtocolErrs.Inc()
			}
			return
		}
		if hdr.PayloadLen > c.MaxPayloadBytes {
			c.ProtocolErrs.Inc()
			h.Reject(hdr, CodeTooLarge, fmt.Sprintf("payload %d bytes exceeds bound %d", hdr.PayloadLen, c.MaxPayloadBytes))
			return // cannot resync across an unbounded payload
		}
		c.BytesIn.Add(int64(headerLen(hdr.Version)) + int64(hdr.PayloadLen))
		body.N = int64(hdr.PayloadLen)

		switch {
		case !sawHello && hdr.Type != MsgHello:
			c.ProtocolErrs.Inc()
			h.Reject(hdr, CodeInvalidArgument, "first message must be HELLO")
			return
		case hdr.Type == MsgHello:
			ver, ok := negotiate(body)
			if !ok || !h.Hello(hdr, ver) {
				return
			}
			sawHello = true
		case hdr.Type == MsgGoodbye:
			return
		case hdr.Type == MsgFrame && hdr.PayloadLen < frameOptsSize:
			c.ProtocolErrs.Inc()
			h.Reject(hdr, CodeInvalidArgument, "FRAME payload too short for options")
			return
		case hdr.Type == MsgFrame:
			if !h.Frame(hdr, body) {
				return
			}
		default:
			c.ProtocolErrs.Inc()
			if !discard(body) {
				return
			}
			h.Reject(hdr, CodeInvalidArgument, fmt.Sprintf("unexpected message type %v", hdr.Type))
		}
	}
}

// negotiate reads a HELLO payload — its first byte is the client's highest
// supported version, an empty payload means a version-1-era client — and
// returns min(client, server).  Only the version byte matters; the rest
// (bounded only by MaxPayloadBytes, before any authentication) is discarded
// without being buffered.
func negotiate(body *io.LimitedReader) (ver uint8, ok bool) {
	ver = ProtocolV1
	if body.N > 0 {
		var first [1]byte
		if _, err := io.ReadFull(body, first[:]); err != nil || !discard(body) {
			return 0, false
		}
		if first[0] > ProtocolV1 {
			ver = min(first[0], ProtocolVersion)
		}
	}
	return ver, true
}

// discard drops what is left of the current message, reporting whether the
// connection is back on a message boundary.
func discard(body *io.LimitedReader) bool {
	_, err := io.Copy(io.Discard, body)
	return err == nil && body.N == 0
}
