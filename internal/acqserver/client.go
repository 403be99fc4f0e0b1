// client.go: the IMSP/1 client — the library side of the protocol used by
// cmd/imsload, tests, and any host program that wants to feed the daemon.
// A Client multiplexes concurrent requests over one TCP connection: Do is
// safe from many goroutines, responses are matched to callers by request
// id, and a connection failure fails every in-flight call with the same
// error.
package acqserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frameio"
	"repro/internal/instrument"
)

// Response is the outcome of one request: either a Result (Code OK) or a
// typed error from the server.
type Response struct {
	// Code is the server's status for this request.
	Code Code
	// Message is the server's error text (empty on OK).
	Message string
	// Result is the deconvolution summary (nil unless Code is OK).
	Result *Result
	// TraceID is the trace id the server echoed on this response (version-2
	// sessions; 0 otherwise).  It is echoed on errors too, so a caller can
	// log exactly which frame was shed.
	TraceID uint64
}

// ErrNotDurable reports a successful response whose frame was
// acknowledged before its frame-log record reached stable storage (the
// daemon runs its log with fsync policy "interval" or "none").  The frame
// WAS processed — this is not a failure — but a caller that needs the
// ACK-implies-durable guarantee can distinguish this mode from a true
// durable acknowledgement.
var ErrNotDurable = errors.New("acqserver: frame acknowledged without durability (frame log not fsynced)")

// DurabilityError returns ErrNotDurable when the response carries
// ResultFlagNotDurable, nil otherwise (including on error responses,
// which acknowledge nothing).
func (r *Response) DurabilityError() error {
	if r.Result != nil && r.Result.Flags&ResultFlagNotDurable != 0 {
		return ErrNotDurable
	}
	return nil
}

// Client is one IMSP connection.  Safe for concurrent use.
type Client struct {
	conn net.Conn
	info ServerInfo
	ver  uint8 // negotiated protocol version

	wmu sync.Mutex    // serializes message writes
	w   MessageWriter // frames them; under wmu

	pmu     sync.Mutex
	pending map[uint64]chan *Response
	nextID  atomic.Uint64
	// chans recycles the channels of calls they delivered to; a cancelled
	// or failed call's is dropped, as a late response may still land in it.
	chans sync.Pool

	closed  chan struct{}
	closeFn func()
	readErr error // valid after closed
}

// Dial connects, performs the HELLO handshake within timeout, and starts
// the response dispatcher.  The HELLO itself is always framed in version 1
// (so any server can parse it); its payload advertises the highest version
// this client speaks, and the server's HELLO_OK names the agreed one.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	_ = conn.SetDeadline(deadline)
	if err := WriteMessage(conn, MsgHello, 0, []byte{ProtocolVersion}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("acqserver: hello: %w", err)
	}
	h, err := ReadHeader(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("acqserver: hello response: %w", err)
	}
	if h.Type != MsgHelloOK || h.PayloadLen > 64 {
		_ = conn.Close()
		return nil, fmt.Errorf("acqserver: unexpected hello response %v (%d bytes)", h.Type, h.PayloadLen)
	}
	buf := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(conn, buf); err != nil {
		_ = conn.Close()
		return nil, err
	}
	info, err := DecodeServerInfo(buf)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	ver := info.Version
	if ver < ProtocolV1 || ver > ProtocolVersion {
		ver = ProtocolV1
	}
	c := &Client{
		conn:    conn,
		info:    info,
		ver:     ver,
		pending: map[uint64]chan *Response{},
		closed:  make(chan struct{}),
	}
	c.closeFn = sync.OnceFunc(func() { close(c.closed); _ = conn.Close() })
	go c.readLoop()
	return c, nil
}

// Info returns the server's HELLO_OK handshake summary.
func (c *Client) Info() ServerInfo { return c.info }

// ProtocolVersion returns the session's negotiated IMSP version.
func (c *Client) ProtocolVersion() uint8 { return c.ver }

// Done returns a channel that is closed once the connection has failed or
// been closed; connection pools use it to discard dead clients before
// routing a request onto them.
func (c *Client) Done() <-chan struct{} { return c.closed }

// Close sends a best-effort GOODBYE and closes the connection; in-flight
// calls fail.
func (c *Client) Close() error {
	c.wmu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = WriteMessage(c.conn, MsgGoodbye, 0, nil)
	c.wmu.Unlock()
	c.fail(fmt.Errorf("acqserver: client closed"))
	return nil
}

// Do submits one frame and waits for its response or ctx.  opts.Deadline
// is also sent to the server so it can cut off queued or in-flight work.
func (c *Client) Do(ctx context.Context, f *instrument.Frame, enc frameio.Encoding, opts FrameOptions) (*Response, error) {
	payload, err := AppendFramePayload(nil, f, enc, opts)
	if err != nil {
		return nil, err
	}
	return c.DoPayload(ctx, payload, opts.TraceID)
}

// DoPayload submits one pre-encoded FRAME payload (the 5-byte options
// prefix followed by a frameio-encoded frame) verbatim and waits for its
// response or ctx.  It is the raw proxy hook: a gateway that already
// holds the client's encoded bytes forwards them upstream without ever
// decoding the frame.  traceID rides the version-2 header, exactly as
// FrameOptions.TraceID does for Do.  The Response, its Result and the
// peaks are the call's only allocations.
func (c *Client) DoPayload(ctx context.Context, payload []byte, traceID uint64) (*Response, error) {
	id := c.nextID.Add(1)
	ch, _ := c.chans.Get().(chan *Response)
	if ch == nil {
		ch = make(chan *Response, 1)
	}
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()
	defer func() {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
	}()

	c.wmu.Lock()
	if d, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(d)
	} else {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	c.w.Frame(Header{Version: c.ver, Type: MsgFrame, ReqID: id, TraceID: traceID}, payload)
	_, err := c.w.WriteTo(c.conn)
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}

	select {
	case r := <-ch:
		c.chans.Put(ch) // delivered: the read loop sends on it no more
		return r, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, c.readErr
	}
}

// readLoop dispatches responses to waiting calls until the connection
// fails or closes.
func (c *Client) readLoop() {
	// One header and one response buffer per connection: DecodeResult and
	// DecodeError copy out everything they keep, so both are free again
	// after each message.
	hbuf := new(headerBuf)
	var buf []byte
	for {
		h, err := readHeader(c.conn, hbuf)
		if err != nil {
			c.fail(fmt.Errorf("acqserver: connection lost: %w", err))
			return
		}
		if h.PayloadLen > c.info.MaxPayloadBytes {
			c.fail(fmt.Errorf("acqserver: server sent %d-byte payload beyond bound", h.PayloadLen))
			return
		}
		if cap(buf) < int(h.PayloadLen) {
			buf = make([]byte, h.PayloadLen)
		}
		buf = buf[:h.PayloadLen]
		if _, err := io.ReadFull(c.conn, buf); err != nil {
			c.fail(fmt.Errorf("acqserver: connection lost: %w", err))
			return
		}
		var resp *Response
		switch h.Type {
		case MsgResult:
			// The Result is its own allocation: a caller that keeps only
			// it does not keep the Response too.
			res, err := DecodeResult(buf)
			if err != nil {
				c.fail(err)
				return
			}
			resp = &Response{Code: CodeOK, Result: res, TraceID: h.TraceID}
		case MsgError:
			code, msg, err := DecodeError(buf)
			if err != nil {
				c.fail(err)
				return
			}
			resp = &Response{Code: code, Message: msg, TraceID: h.TraceID}
		default:
			continue // ignorable (future server pushes)
		}
		// Taken out of pending, the call's channel gets this send only, so
		// once it has delivered it is free for another call.
		c.pmu.Lock()
		ch := c.pending[h.ReqID]
		delete(c.pending, h.ReqID)
		c.pmu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail closes the client and records the terminal error for in-flight Do
// calls.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.pmu.Unlock()
	c.closeFn()
}
