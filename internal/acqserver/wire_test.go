package acqserver

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
	"unsafe"
)

func TestHeaderRoundTrip(t *testing.T) {
	// Version 0 encodes as version 1 for compatibility with old callers.
	h := Header{Type: MsgFrame, ReqID: 0xDEADBEEFCAFE, PayloadLen: 12345}
	buf := AppendHeader(nil, h)
	if len(buf) != headerSize {
		t.Fatalf("v1 header is %d bytes, want %d", len(buf), headerSize)
	}
	got, err := ReadHeader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	h.Version = ProtocolV1
	if got != h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}

	h2 := Header{Version: ProtocolV2, Type: MsgResult, ReqID: 7, PayloadLen: 99, TraceID: 0xFEEDFACE}
	buf = AppendHeader(nil, h2)
	if len(buf) != headerSize+traceIDSize {
		t.Fatalf("v2 header is %d bytes, want %d", len(buf), headerSize+traceIDSize)
	}
	got, err = ReadHeader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != h2 {
		t.Fatalf("v2 round trip %+v != %+v", got, h2)
	}
	// A v1 reader never sees the trace id; a v1 header never carries one.
	if AppendHeader(nil, Header{Version: ProtocolV1, TraceID: 5})[4] != ProtocolV1 {
		t.Error("v1 header mis-versioned")
	}
	if len(AppendHeader(nil, Header{Version: ProtocolV1, TraceID: 5})) != headerSize {
		t.Error("v1 header grew a trace id")
	}
}

func TestHeaderRejectsBadMagicAndVersion(t *testing.T) {
	h := AppendHeader(nil, Header{Type: MsgHello})
	bad := append([]byte(nil), h...)
	bad[0] = 'X'
	if _, err := ReadHeader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), h...)
	bad[4] = 99
	if _, err := ReadHeader(bytes.NewReader(bad)); err == nil {
		t.Error("future version accepted")
	}
}

func TestResultRoundTrip(t *testing.T) {
	r := &Result{
		Shard:       3,
		QueueWaitNs: 123456,
		ProcessNs:   789012,
		SimulatedNs: 42,
		Saturations: 7,
		Peaks: []PeakSummary{
			{Centroid: 12.5, Height: 1000, Area: 4800, SNR: 55.5},
			{Centroid: 200.25, Height: 10, Area: 31, SNR: 5.1},
		},
	}
	buf, err := EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != r.Shard || got.QueueWaitNs != r.QueueWaitNs || got.SimulatedNs != r.SimulatedNs ||
		got.Saturations != r.Saturations || len(got.Peaks) != 2 || got.Peaks[1] != r.Peaks[1] {
		t.Fatalf("round trip %+v != %+v", got, r)
	}

	r.Peaks = make([]PeakSummary, maxResultPeaks+1)
	if _, err := EncodeResult(r); err == nil {
		t.Error("oversized peak list accepted")
	}
	if _, err := DecodeResult(buf[:10]); err == nil {
		t.Error("truncated RESULT accepted")
	}
}

func TestResultRoutingTrailer(t *testing.T) {
	// A direct result stays byte-identical to the pre-cluster encoding...
	direct := &Result{Shard: 1, ProcessNs: 5}
	plain, err := EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 2 + 8*4 + 2
	if len(plain) != fixed {
		t.Fatalf("direct RESULT is %d bytes, want %d (no trailer)", len(plain), fixed)
	}
	got, err := DecodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != 0 || got.Attempts != 0 {
		t.Fatalf("direct RESULT decoded with routing fields %d/%d", got.Backend, got.Attempts)
	}

	// ...while a gateway-routed one round-trips the trailer, peaks intact.
	routed := &Result{
		Shard: 2, ProcessNs: 9, Backend: 3, Attempts: 2,
		Peaks: []PeakSummary{{Centroid: 1.5, Height: 10, Area: 20, SNR: 6}},
	}
	buf, err := EncodeResult(routed)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != fixed+32+resultTrailerSize {
		t.Fatalf("routed RESULT is %d bytes, want %d", len(buf), fixed+32+resultTrailerSize)
	}
	got, err = DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != 3 || got.Attempts != 2 || len(got.Peaks) != 1 || got.Peaks[0] != routed.Peaks[0] {
		t.Fatalf("routed round trip %+v != %+v", got, routed)
	}

	// A mangled length that is neither with- nor without-trailer fails.
	if _, err := DecodeResult(buf[:len(buf)-1]); err == nil {
		t.Error("RESULT with partial trailer accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	buf := EncodeError(CodeResourceExhausted, "shard 2 queue full")
	code, msg, err := DecodeError(buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != CodeResourceExhausted || msg != "shard 2 queue full" {
		t.Fatalf("got %v %q", code, msg)
	}
	long := EncodeError(CodeInternal, string(make([]byte, 5000)))
	if _, m, err := DecodeError(long); err != nil || len(m) != maxErrorMessage {
		t.Fatalf("long message not truncated: %d bytes, err %v", len(m), err)
	}
	if _, _, err := DecodeError([]byte{1}); err == nil {
		t.Error("truncated ERROR accepted")
	}
}

func TestServerInfoAndOptsRoundTrip(t *testing.T) {
	si := ServerInfo{Version: 1, Shards: 8, Order: 9, MaxPayloadBytes: 16 << 20}
	got, err := DecodeServerInfo(EncodeServerInfo(si))
	if err != nil {
		t.Fatal(err)
	}
	if got != si {
		t.Fatalf("round trip %+v != %+v", got, si)
	}

	o := FrameOptions{Path: PathCPU, Deadline: 1500 * time.Millisecond}
	gotO, err := decodeFrameOpts(encodeFrameOpts(nil, o))
	if err != nil {
		t.Fatal(err)
	}
	if gotO != o {
		t.Fatalf("round trip %+v != %+v", gotO, o)
	}
}

func TestStringers(t *testing.T) {
	if MsgFrame.String() != "FRAME" || Code(99).String() != "code(99)" ||
		CodeResourceExhausted.String() != "RESOURCE_EXHAUSTED" ||
		PathHybrid.String() != "hybrid" || Path(9).String() != "path(9)" {
		t.Error("stringer mismatch")
	}
}

// TestWriteMessageVBytesAcrossVectoredThreshold: the copied (small) and the
// vectored (large) write paths put the same bytes on the wire — into a
// plain writer, which sees net.Buffers as two writes, and through a TCP
// connection, which sees one writev.
func TestWriteMessageVBytesAcrossVectoredThreshold(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for _, n := range []int{0, 1, vectoredPayloadMin - 1, vectoredPayloadMin, 200_000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		for _, ver := range []uint8{ProtocolV1, ProtocolV2} {
			want := append(AppendHeader(nil, Header{Version: ver, Type: MsgFrame, ReqID: 9, PayloadLen: uint32(n), TraceID: 5}), payload...)
			var buf bytes.Buffer
			if err := WriteMessageV(&buf, ver, MsgFrame, 9, 5, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("payload %d v%d: buffered bytes differ", n, ver)
			}
			errc := make(chan error, 1)
			go func() { errc <- WriteMessageV(conn, ver, MsgFrame, 9, 5, payload) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(peer, got); err != nil {
				t.Fatal(err)
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("payload %d v%d: TCP bytes differ", n, ver)
			}
		}
	}
}

// TestResultPacksInto64Bytes: clients keep a Result per answered frame, so
// its size class is part of the memory bill (72 bytes would round to 80).
func TestResultPacksInto64Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Result{}); got != 64 {
		t.Fatalf("Result is %d bytes, want 64", got)
	}
}
