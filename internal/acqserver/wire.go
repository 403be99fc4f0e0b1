// wire.go: the IMSP wire protocol — the length-prefixed binary framing
// the acquisition daemon speaks on TCP.  Every message is a little-endian
// header followed by a bounded payload.  Version 1 is an 18-byte header:
//
//	magic "IMSP" | version u8 | type u8 | request id u64 | payload len u32
//
// Version 2 appends a trace id u64 (26 bytes total), carrying the frame's
// trace identity end to end so a client can correlate its observed latency
// with the server-side span tree (internal/telemetry/trace).  The version
// is negotiated per session: the HELLO payload's first byte is the
// client's highest supported version, the server answers with
// min(client, server) in HELLO_OK, and both sides frame every subsequent
// message in the negotiated version — a PR 2-era client that sends 1 (or
// nothing) gets pure IMSP/1 back.
//
// FRAME payloads carry a 5-byte option prefix (path u8, deadline ms u32)
// followed by a frameio-encoded frame, so the daemon streams the frame
// straight off the socket through frameio.ReadInto without ever holding
// the encoded payload in memory.  RESULT and ERROR payloads are small,
// fixed-layout summaries.  The explicit payload length makes resync after
// a decode error trivial: discard the remainder of the declared payload
// and the stream is back on a message boundary.
package acqserver

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// ProtocolV1 is the original IMSP revision: 18-byte header, no trace id.
const ProtocolV1 = 1

// ProtocolV2 extends the header with a trace id u64 (26 bytes).
const ProtocolV2 = 2

// ProtocolVersion is the highest IMSP revision this package speaks.
const ProtocolVersion = ProtocolV2

// headerSize is the version-1 wire header length in bytes; version 2
// appends traceIDSize more.
const headerSize = 18

// traceIDSize is the trace-id extension a version-2 header appends.
const traceIDSize = 8

// headerLen returns the wire header length for a protocol version.
func headerLen(version uint8) int {
	if version >= ProtocolV2 {
		return headerSize + traceIDSize
	}
	return headerSize
}

// frameOptsSize is the option prefix of a FRAME payload: path u8 +
// deadline-milliseconds u32.
const frameOptsSize = 5

var wireMagic = [4]byte{'I', 'M', 'S', 'P'}

// MsgType discriminates wire messages.
type MsgType uint8

// The IMSP/1 message types.
const (
	// MsgHello opens a session (client→server); payload: client version u8.
	MsgHello MsgType = 1
	// MsgHelloOK acknowledges a session (server→client); payload:
	// server version u8, shards u16, sequence order u8, max payload u32.
	MsgHelloOK MsgType = 2
	// MsgFrame submits one frame for deconvolution (client→server).
	MsgFrame MsgType = 3
	// MsgResult returns a deconvolution summary (server→client).
	MsgResult MsgType = 4
	// MsgError returns a typed failure for one request (server→client);
	// payload: code u8, message length u16, message bytes.
	MsgError MsgType = 5
	// MsgGoodbye announces a clean client departure (client→server).
	MsgGoodbye MsgType = 6
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "HELLO"
	case MsgHelloOK:
		return "HELLO_OK"
	case MsgFrame:
		return "FRAME"
	case MsgResult:
		return "RESULT"
	case MsgError:
		return "ERROR"
	case MsgGoodbye:
		return "GOODBYE"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Code is the typed status of a request, modeled on gRPC status codes.
type Code uint8

// The IMSP/1 status codes.
const (
	// CodeOK is success (implied by a RESULT message).
	CodeOK Code = 0
	// CodeInvalidArgument rejects a malformed or mis-shaped frame.
	CodeInvalidArgument Code = 1
	// CodeResourceExhausted is explicit load shedding: the target shard's
	// queue was full.  The request was not processed; retry with backoff.
	CodeResourceExhausted Code = 2
	// CodeDeadlineExceeded reports the request's deadline expired before
	// or during processing.
	CodeDeadlineExceeded Code = 3
	// CodeUnavailable reports the daemon is draining for shutdown.
	CodeUnavailable Code = 4
	// CodeInternal reports a server-side failure (including a recovered
	// worker panic).
	CodeInternal Code = 5
	// CodeTooLarge rejects a payload exceeding the negotiated bound.
	CodeTooLarge Code = 6
)

// String implements fmt.Stringer.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "OK"
	case CodeInvalidArgument:
		return "INVALID_ARGUMENT"
	case CodeResourceExhausted:
		return "RESOURCE_EXHAUSTED"
	case CodeDeadlineExceeded:
		return "DEADLINE_EXCEEDED"
	case CodeUnavailable:
		return "UNAVAILABLE"
	case CodeInternal:
		return "INTERNAL"
	case CodeTooLarge:
		return "TOO_LARGE"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Path selects the compute backend for one frame.
type Path uint8

// The selectable compute paths.
const (
	// PathHybrid runs the modeled FPGA offload, reducing each tile into
	// the drift profile (hybrid.Offloader.DeconvolveProfileInto, or
	// DeconvolveCountsProfileInto for a counts frame).
	PathHybrid Path = 0
	// PathCPU transforms the frame's row sums once
	// (hadamard.FHTDecoder.DecodeTo): the drift profile of its decode.
	PathCPU Path = 1
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathHybrid:
		return "hybrid"
	case PathCPU:
		return "cpu"
	}
	return fmt.Sprintf("path(%d)", uint8(p))
}

// Header is one decoded wire header.
type Header struct {
	// Version is the protocol revision the header was framed in.
	Version uint8
	// Type is the message type.
	Type MsgType
	// ReqID correlates a response with its request; the client picks it.
	ReqID uint64
	// PayloadLen is the byte length of the payload that follows.
	PayloadLen uint32
	// TraceID carries the frame's trace identity (version ≥ 2; 0 = none).
	TraceID uint64
}

// ReadHeader reads and validates one wire header, accepting any supported
// protocol version; the version-2 trace-id extension is consumed when
// present.
func ReadHeader(r io.Reader) (Header, error) {
	var buf [headerSize + traceIDSize]byte
	if _, err := io.ReadFull(r, buf[:headerSize]); err != nil {
		return Header{}, err
	}
	if [4]byte(buf[0:4]) != wireMagic {
		return Header{}, fmt.Errorf("acqserver: bad magic %q", buf[0:4])
	}
	if buf[4] < ProtocolV1 || buf[4] > ProtocolVersion {
		return Header{}, fmt.Errorf("acqserver: unsupported protocol version %d", buf[4])
	}
	h := Header{
		Version:    buf[4],
		Type:       MsgType(buf[5]),
		ReqID:      binary.LittleEndian.Uint64(buf[6:14]),
		PayloadLen: binary.LittleEndian.Uint32(buf[14:18]),
	}
	if h.Version >= ProtocolV2 {
		if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
			return Header{}, err
		}
		h.TraceID = binary.LittleEndian.Uint64(buf[headerSize:])
	}
	return h, nil
}

// AppendHeader appends the wire encoding of h to dst, framed in h.Version
// (0 is treated as version 1 for compatibility with existing callers).
func AppendHeader(dst []byte, h Header) []byte {
	v := h.Version
	if v == 0 {
		v = ProtocolV1
	}
	dst = append(dst, wireMagic[:]...)
	dst = append(dst, v, byte(h.Type))
	dst = binary.LittleEndian.AppendUint64(dst, h.ReqID)
	dst = binary.LittleEndian.AppendUint32(dst, h.PayloadLen)
	if v >= ProtocolV2 {
		dst = binary.LittleEndian.AppendUint64(dst, h.TraceID)
	}
	return dst
}

// WriteMessage writes one complete version-1 message (header + payload)
// to w.
func WriteMessage(w io.Writer, typ MsgType, reqID uint64, payload []byte) error {
	return WriteMessageV(w, ProtocolV1, typ, reqID, 0, payload)
}

// vectoredPayloadMin is the payload size from which WriteMessageV sends
// header and payload as two iovecs; below it one small copy is cheaper.
const vectoredPayloadMin = 2 << 10

// WriteMessageV writes one complete message framed in the given protocol
// version; traceID only reaches the wire under version 2.  A large payload
// is not copied behind its header: both go out as net.Buffers — one writev
// on a TCP connection, two writes on any other writer.
func WriteMessageV(w io.Writer, version uint8, typ MsgType, reqID, traceID uint64, payload []byte) error {
	h := Header{
		Version: version, Type: typ, ReqID: reqID,
		PayloadLen: uint32(len(payload)), TraceID: traceID,
	}
	if len(payload) >= vectoredPayloadMin {
		bufs := net.Buffers{AppendHeader(make([]byte, 0, headerLen(version)), h), payload}
		_, err := bufs.WriteTo(w)
		return err
	}
	buf := AppendHeader(make([]byte, 0, headerLen(version)+len(payload)), h)
	_, err := w.Write(append(buf, payload...))
	return err
}

// PeakSummary is one detected peak of a deconvolved frame's drift profile,
// as carried in a RESULT payload.
type PeakSummary struct {
	// Centroid is the sub-bin apex position along the drift axis.
	Centroid float64
	// Height is the apex height above baseline.
	Height float64
	// Area is the integrated intensity between the flanking minima.
	Area float64
	// SNR is the height over the MAD noise estimate.
	SNR float64
}

// Result is the deconvolution summary of one frame.  The four sub-word
// fields are declared together so the struct packs into 64 bytes; the wire
// layout (EncodeResult) is independent of the field order.
type Result struct {
	// Shard is the queue shard that served the request.
	Shard uint16
	// Backend identifies the serving backend when the response crossed an
	// imsgw gateway: the 1-based index of the backend in the gateway's
	// configured fleet.  0 means the response came straight from a daemon
	// (no gateway, or a pre-cluster peer that sent no trailer).
	Backend uint16
	// Attempts counts the gateway delivery attempts this result took
	// (1 = first try, 2 = one sibling retry).  0 on a direct response.
	Attempts uint8
	// Flags carries per-result condition bits (ResultFlag*); it rides the
	// routing trailer's formerly-reserved byte, so pre-durability peers
	// that never set it decode unchanged.
	Flags uint8
	// QueueWaitNs is the time the frame sat in the shard queue.
	QueueWaitNs uint64
	// ProcessNs is the wall time of computing the frame's own answer: its
	// drift profile and peak detection, whether it was served alone or
	// gathered with others.
	ProcessNs uint64
	// SimulatedNs is the modeled XD1 wall time (hybrid path; 0 on CPU).
	SimulatedNs uint64
	// Saturations counts fixed-point overflow events (hybrid path).
	Saturations uint64
	// Peaks are the strongest drift-profile peaks, height-descending.
	Peaks []PeakSummary
}

// ResultFlagNotDurable marks a result whose frame was acknowledged before
// its frame-log record reached stable storage (fsync policy interval or
// none): the work succeeded, but a host crash at the wrong moment could
// have lost the record.  Client.Do surfaces it as ErrNotDurable via
// Response.DurabilityError.
const ResultFlagNotDurable uint8 = 1 << 0

// maxResultPeaks bounds the peak list a RESULT may carry.
const maxResultPeaks = 64

// resultTrailerSize is the optional routing trailer a RESULT may end with:
// backend id u16, attempts u8, flags u8.  The gateway appends it when
// re-encoding an upstream result so clients can attribute responses to
// fleet members, and a daemon running a frame log uses the flags byte to
// mark durability; decoders accept payloads with or without it, keeping
// pre-cluster peers compatible.
const resultTrailerSize = 4

// EncodeResult serializes a RESULT payload.  The routing trailer is
// appended only when Backend, Attempts or Flags is set, so direct daemon
// responses are byte-identical to the pre-cluster encoding.
func EncodeResult(r *Result) ([]byte, error) {
	if len(r.Peaks) > maxResultPeaks {
		return nil, fmt.Errorf("acqserver: %d peaks exceed wire bound %d", len(r.Peaks), maxResultPeaks)
	}
	buf := make([]byte, 0, 2+8*4+2+32*len(r.Peaks)+resultTrailerSize)
	buf = binary.LittleEndian.AppendUint16(buf, r.Shard)
	buf = binary.LittleEndian.AppendUint64(buf, r.QueueWaitNs)
	buf = binary.LittleEndian.AppendUint64(buf, r.ProcessNs)
	buf = binary.LittleEndian.AppendUint64(buf, r.SimulatedNs)
	buf = binary.LittleEndian.AppendUint64(buf, r.Saturations)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Peaks)))
	for _, p := range r.Peaks {
		for _, v := range [4]float64{p.Centroid, p.Height, p.Area, p.SNR} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	if r.Backend != 0 || r.Attempts != 0 || r.Flags != 0 {
		buf = binary.LittleEndian.AppendUint16(buf, r.Backend)
		buf = append(buf, r.Attempts, r.Flags)
	}
	return buf, nil
}

// DecodeResult parses a RESULT payload, with or without the routing
// trailer.
func DecodeResult(b []byte) (*Result, error) {
	const fixed = 2 + 8*4 + 2
	if len(b) < fixed {
		return nil, fmt.Errorf("acqserver: RESULT payload %d bytes, want >= %d", len(b), fixed)
	}
	r := &Result{
		Shard:       binary.LittleEndian.Uint16(b[0:2]),
		QueueWaitNs: binary.LittleEndian.Uint64(b[2:10]),
		ProcessNs:   binary.LittleEndian.Uint64(b[10:18]),
		SimulatedNs: binary.LittleEndian.Uint64(b[18:26]),
		Saturations: binary.LittleEndian.Uint64(b[26:34]),
	}
	n := int(binary.LittleEndian.Uint16(b[34:36]))
	if n > maxResultPeaks {
		return nil, fmt.Errorf("acqserver: RESULT declares %d peaks, bound is %d", n, maxResultPeaks)
	}
	switch len(b) {
	case fixed + 32*n:
	case fixed + 32*n + resultTrailerSize:
		pos := fixed + 32*n
		r.Backend = binary.LittleEndian.Uint16(b[pos : pos+2])
		r.Attempts = b[pos+2]
		r.Flags = b[pos+3]
	default:
		return nil, fmt.Errorf("acqserver: RESULT payload %d bytes, want %d or %d for %d peaks",
			len(b), fixed+32*n, fixed+32*n+resultTrailerSize, n)
	}
	r.Peaks = make([]PeakSummary, n)
	pos := fixed
	for i := range r.Peaks {
		r.Peaks[i] = PeakSummary{
			Centroid: math.Float64frombits(binary.LittleEndian.Uint64(b[pos : pos+8])),
			Height:   math.Float64frombits(binary.LittleEndian.Uint64(b[pos+8 : pos+16])),
			Area:     math.Float64frombits(binary.LittleEndian.Uint64(b[pos+16 : pos+24])),
			SNR:      math.Float64frombits(binary.LittleEndian.Uint64(b[pos+24 : pos+32])),
		}
		pos += 32
	}
	return r, nil
}

// maxErrorMessage bounds the message string an ERROR may carry.
const maxErrorMessage = 1024

// EncodeError serializes an ERROR payload.
func EncodeError(code Code, msg string) []byte {
	if len(msg) > maxErrorMessage {
		msg = msg[:maxErrorMessage]
	}
	buf := make([]byte, 0, 3+len(msg))
	buf = append(buf, byte(code))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// DecodeError parses an ERROR payload.
func DecodeError(b []byte) (Code, string, error) {
	if len(b) < 3 {
		return 0, "", fmt.Errorf("acqserver: ERROR payload %d bytes, want >= 3", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b[1:3]))
	if len(b) != 3+n {
		return 0, "", fmt.Errorf("acqserver: ERROR payload %d bytes, want %d", len(b), 3+n)
	}
	return Code(b[0]), string(b[3:]), nil
}

// ServerInfo is the HELLO_OK handshake summary.
type ServerInfo struct {
	// Version is the server's protocol version.
	Version uint8
	// Shards is the daemon's work-queue shard count.
	Shards uint16
	// Order is the m-sequence order frames must match (drift bins =
	// 2^Order − 1).
	Order uint8
	// MaxPayloadBytes is the largest payload the daemon accepts.
	MaxPayloadBytes uint32
}

// EncodeServerInfo serializes a HELLO_OK payload.
func EncodeServerInfo(si ServerInfo) []byte {
	buf := make([]byte, 0, 8)
	buf = append(buf, si.Version)
	buf = binary.LittleEndian.AppendUint16(buf, si.Shards)
	buf = append(buf, si.Order)
	return binary.LittleEndian.AppendUint32(buf, si.MaxPayloadBytes)
}

// DecodeServerInfo parses a HELLO_OK payload.
func DecodeServerInfo(b []byte) (ServerInfo, error) {
	if len(b) != 8 {
		return ServerInfo{}, fmt.Errorf("acqserver: HELLO_OK payload %d bytes, want 8", len(b))
	}
	return ServerInfo{
		Version:         b[0],
		Shards:          binary.LittleEndian.Uint16(b[1:3]),
		Order:           b[3],
		MaxPayloadBytes: binary.LittleEndian.Uint32(b[4:8]),
	}, nil
}

// FrameOptions are the per-request knobs carried in a FRAME payload's
// option prefix.
type FrameOptions struct {
	// Path selects the compute backend.
	Path Path
	// Deadline bounds queue wait + processing; zero means none.  On the
	// wire it is milliseconds (u32), so the ceiling is ~49.7 days.
	Deadline time.Duration
	// TraceID, when nonzero, names the frame's trace.  It rides the
	// version-2 header (not the options prefix) and is echoed on the
	// response — including error responses, so a client can log exactly
	// which frame was shed.  Ignored on a version-1 session.
	TraceID uint64
}

// encodeFrameOpts appends the 5-byte option prefix.
func encodeFrameOpts(dst []byte, o FrameOptions) []byte {
	ms := o.Deadline.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > int64(^uint32(0)) {
		ms = int64(^uint32(0))
	}
	dst = append(dst, byte(o.Path))
	return binary.LittleEndian.AppendUint32(dst, uint32(ms))
}

// SplitFramePayload splits an encoded FRAME payload — the bytes a client
// submits and a frame log captures — into its decoded FrameOptions prefix
// and the frameio-encoded frame bytes that follow.  Offline tools
// (framedump -log) use it to decode captured records without re-implementing
// the prefix layout.
func SplitFramePayload(payload []byte) (FrameOptions, []byte, error) {
	if len(payload) < frameOptsSize {
		return FrameOptions{}, nil, fmt.Errorf("acqserver: frame payload %d bytes, shorter than its %d-byte options prefix", len(payload), frameOptsSize)
	}
	opts, err := decodeFrameOpts(payload[:frameOptsSize])
	if err != nil {
		return FrameOptions{}, nil, err
	}
	return opts, payload[frameOptsSize:], nil
}

// decodeFrameOpts parses the option prefix.
func decodeFrameOpts(b []byte) (FrameOptions, error) {
	if len(b) != frameOptsSize {
		return FrameOptions{}, fmt.Errorf("acqserver: frame options %d bytes, want %d", len(b), frameOptsSize)
	}
	return FrameOptions{
		Path:     Path(b[0]),
		Deadline: time.Duration(binary.LittleEndian.Uint32(b[1:5])) * time.Millisecond,
	}, nil
}
