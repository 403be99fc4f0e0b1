package acqserver

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// FuzzWireDecoders: the five decoders of bytes a peer controls never panic,
// and whatever one of them accepts re-encodes to the bytes it was given.
func FuzzWireDecoders(f *testing.F) {
	f.Add(AppendHeader(nil, Header{Type: MsgFrame, ReqID: 0xDEADBEEFCAFE, PayloadLen: 12345}))
	f.Add(AppendHeader(nil, Header{Version: ProtocolV2, Type: MsgResult, ReqID: 7, PayloadLen: 99, TraceID: 0xFEEDFACE}))
	plain, _ := EncodeResult(&Result{Shard: 3, QueueWaitNs: 123456, ProcessNs: 789012, SimulatedNs: 42, Saturations: 7,
		Peaks: []PeakSummary{{Centroid: 12.5, Height: 1000, Area: 4800, SNR: 55.5}, {Centroid: 200.25, Height: 10, Area: 31, SNR: 5.1}}})
	f.Add(plain)
	routed, _ := EncodeResult(&Result{Shard: 2, ProcessNs: 9, Backend: 3, Attempts: 2, Flags: ResultFlagNotDurable,
		Peaks: []PeakSummary{{Centroid: 1.5, Height: 10, Area: 20, SNR: 6}}})
	f.Add(routed)
	f.Add(append(plain, 0, 0, 0, 0)) // an all-zero routing trailer
	f.Add(EncodeError(CodeResourceExhausted, "shard 2 queue full"))
	f.Add(EncodeServerInfo(ServerInfo{Version: 1, Shards: 8, Order: 9, MaxPayloadBytes: 16 << 20}))
	f.Add(encodeFrameOpts(nil, FrameOptions{Path: PathCPU, Deadline: 1500 * time.Millisecond}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := ReadHeader(bytes.NewReader(data)); err == nil {
			if enc := AppendHeader(nil, h); !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("header %+v re-encodes to %x, was %x", h, enc, data[:len(enc)])
			}
		}
		if r, err := DecodeResult(data); err == nil {
			enc, err := EncodeResult(r)
			if err != nil {
				t.Fatalf("decoded RESULT does not encode: %v", err)
			}
			want := data
			if r.Backend == 0 && r.Attempts == 0 && r.Flags == 0 {
				// EncodeResult drops a trailer that says nothing.
				want = data[:2+8*4+2+32*len(r.Peaks)]
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("RESULT re-encodes to %x, was %x", enc, want)
			}
		}
		if code, msg, err := DecodeError(data); err == nil {
			// A message past the encoder's bound decodes (the payload bound
			// caps it) but EncodeError would truncate it.
			if enc := EncodeError(code, msg); len(msg) <= maxErrorMessage && !bytes.Equal(enc, data) {
				t.Fatalf("ERROR re-encodes to %x, was %x", enc, data)
			}
		}
		if si, err := DecodeServerInfo(data); err == nil {
			if enc := EncodeServerInfo(si); !bytes.Equal(enc, data) {
				t.Fatalf("HELLO_OK re-encodes to %x, was %x", enc, data)
			}
		}
		if opts, frame, err := SplitFramePayload(data); err == nil {
			if enc := append(encodeFrameOpts(nil, opts), frame...); !bytes.Equal(enc, data) {
				t.Fatalf("FRAME payload re-encodes to %x, was %x", enc, data)
			}
		}
	})
}

// scriptConn is a connection whose inbound half is a fixed byte string.  It
// counts what is read off it and the largest single read asked of it
// outside a FRAME callback (the session reader's own reads).
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	in       *bytes.Reader
	consumed int64
	inFrame  bool
	maxRead  int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if !c.inFrame && len(p) > c.maxRead {
		c.maxRead = len(p)
	}
	n, err := c.in.Read(p)
	c.consumed += int64(n)
	return n, err
}

func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// scriptHandler is a SessionHandler that consumes every FRAME body it is
// handed and checks the reader's promises about it.
type scriptHandler struct {
	t        *testing.T
	conn     *scriptConn
	max      uint32
	sawHello bool
}

func (h *scriptHandler) Hello(_ Header, ver uint8) bool {
	if ver < ProtocolV1 || ver > ProtocolVersion {
		h.t.Fatalf("negotiated version %d", ver)
	}
	h.sawHello = true
	return true
}

func (h *scriptHandler) Frame(hdr Header, body io.Reader) bool {
	if !h.sawHello {
		h.t.Fatal("FRAME callback before any HELLO")
	}
	if hdr.PayloadLen > h.max || hdr.PayloadLen < frameOptsSize {
		h.t.Fatalf("FRAME callback with a %d-byte payload (bound %d, options %d)", hdr.PayloadLen, h.max, frameOptsSize)
	}
	h.conn.inFrame = true
	n, _ := io.Copy(io.Discard, body)
	h.conn.inFrame = false
	if n > int64(hdr.PayloadLen) {
		h.t.Fatalf("body yielded %d bytes of a %d-byte payload", n, hdr.PayloadLen)
	}
	return n == int64(hdr.PayloadLen)
}

func (h *scriptHandler) Reject(Header, Code, string) {}

func (h *scriptHandler) Panicked(v any) { h.t.Fatalf("session reader panicked: %v", v) }

// FuzzSessionReader drives arbitrary bytes through the shared session
// reader: no panic, no FRAME before a HELLO, no FRAME outside the payload
// bound, never more bytes taken off the socket than were accounted as
// received plus one header (the one that ended the session), and no payload
// buffered by the reader itself — its own reads stay small however large
// the HELLO.
func FuzzSessionReader(f *testing.F) {
	msg := func(ver uint8, typ MsgType, payload []byte) []byte {
		return append(AppendHeader(nil, Header{Version: ver, Type: typ, ReqID: 9, PayloadLen: uint32(len(payload)), TraceID: 5}), payload...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	frame := append(encodeFrameOpts(nil, FrameOptions{Path: PathCPU}), make([]byte, 40)...)
	f.Add(cat(msg(ProtocolV1, MsgHello, []byte{ProtocolV2}), msg(ProtocolV2, MsgFrame, frame), msg(ProtocolV2, MsgGoodbye, nil)))
	f.Add(cat(msg(ProtocolV1, MsgHello, nil), msg(ProtocolV1, MsgFrame, frame), msg(ProtocolV1, MsgFrame, frame)))
	f.Add(msg(ProtocolV1, MsgFrame, frame))                                                             // frame before hello
	f.Add(cat(msg(ProtocolV1, MsgHello, []byte{9, 1, 2, 3}), msg(ProtocolV2, MsgResult, []byte{1, 2}))) // unknown type
	f.Add(cat(msg(ProtocolV1, MsgHello, nil), msg(ProtocolV1, MsgFrame, frame[:3])))                    // shorter than its options
	f.Add(cat(msg(ProtocolV1, MsgHello, nil), msg(ProtocolV1, MsgFrame, frame)[:30]))                   // truncated mid-payload
	f.Add(cat(msg(ProtocolV1, MsgHello, make([]byte, 300<<10)), msg(ProtocolV1, MsgFrame, frame)))      // a fat HELLO
	f.Add(AppendHeader(nil, Header{Type: MsgFrame, PayloadLen: 1<<20 + 1}))                             // over the bound
	bad := msg(ProtocolV1, MsgHello, nil)
	bad[0] = 'X'
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		reg := telemetry.NewRegistry()
		core := &Core{
			MaxPayloadBytes: 1 << 20,
			ReadIdleTimeout: time.Second,
			BytesIn:         reg.Counter("in", ""),
			ProtocolErrs:    reg.Counter("errs", ""),
		}
		conn := &scriptConn{in: bytes.NewReader(data)}
		core.ReadSession(conn, &scriptHandler{t: t, conn: conn, max: core.MaxPayloadBytes})
		if limit := core.BytesIn.Value() + headerSize + traceIDSize; conn.consumed > limit {
			t.Fatalf("%d bytes read off the socket, %d accounted", conn.consumed, limit)
		}
		if conn.maxRead > 64<<10 {
			t.Fatalf("the reader asked for %d bytes in one read: a payload is being buffered", conn.maxRead)
		}
	})
}
