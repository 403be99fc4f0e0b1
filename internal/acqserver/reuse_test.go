// reuse_test.go: the round trip's reused buffers — the wire bytes of the
// reused writers and AppendResult against goldens recorded from the
// one-shot encoders they replaced, the FRAME payload a client sends,
// response channels reused across calls that never reach the wrong
// caller, and the server's own allocations per frame, measured with a
// client that allocates nothing (TestServerOnlyAllocs, part of `make
// allocgate`).
package acqserver

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/telemetry"
)

// TestReusedWritersMatchGoldens: one MessageWriter, reused across every
// message as a connection keeps it, frames RESULTs (encoded behind the
// header by AppendResult), ERRORs and large FRAMEs byte for byte as
// WriteMessageV over EncodeResult did, for both header versions and with
// and without the routing trailer.  The goldens were recorded from those
// encoders.
func TestReusedWritersMatchGoldens(t *testing.T) {
	peaks := []PeakSummary{{Centroid: 127.25, Height: 4096, Area: 20480.5, SNR: 81.5}, {Centroid: 340.75, Height: 2048, Area: 9000, SNR: 40.25}}
	direct := &Result{Shard: 3, QueueWaitNs: 12345, ProcessNs: 67890, SimulatedNs: 4242, Saturations: 1, Peaks: peaks}
	routed := *direct
	routed.Backend, routed.Attempts, routed.Flags = 2, 2, ResultFlagNotDurable
	results := map[string]*Result{"direct": direct, "routed": &routed}
	const (
		body   = "0300393000000000000032090100000000009210000000000000010000000000000002000000000000d05f40000000000000b040000000002000d440000000000060544000000000004c7540000000000000a040000000000094c1400000000000204440"
		v1head = "494d535001040807060504030201"
		v2head = "494d535002040807060504030201"
		trace  = "1817161514131211"
	)
	golden := map[uint8]map[string]string{
		ProtocolV1: {
			"direct": v1head + "64000000" + body,
			"routed": v1head + "68000000" + body + "02000201",
			"error":  "494d53500105090000000000000015000000021200736861726420302071756575652066756c6c",
			"frame":  "dda6b7aaa092da54017143997d61bbe2d5e3f380fd23121fe3acb9a388b8fd1c",
		},
		ProtocolV2: {
			"direct": v2head + "64000000" + trace + body,
			"routed": v2head + "68000000" + trace + body + "02000201",
			"error":  "494d53500205090000000000000015000000efcdab0000000000021200736861726420302071756575652066756c6c",
			"frame":  "854dcdd7b1186a76b523b8c47e9c5a5b450813d8d55503913327952ddfd2f460",
		},
	}
	frame := make([]byte, 3000) // past the vectored threshold: header and payload leave as two buffers
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	var w MessageWriter
	var out bytes.Buffer
	send := func() []byte {
		out.Reset()
		n, err := w.WriteTo(&out)
		if err != nil || int(n) != out.Len() {
			t.Fatalf("WriteTo reported %d bytes (%v), wrote %d", n, err, out.Len())
		}
		return out.Bytes()
	}
	for round := 0; round < 2; round++ {
		for _, ver := range []uint8{ProtocolV1, ProtocolV2} {
			g := golden[ver]
			w.Frame(Header{Version: ver, Type: MsgFrame, ReqID: 77, TraceID: 0x55}, frame)
			if sum := sha256.Sum256(send()); hex.EncodeToString(sum[:]) != g["frame"] {
				t.Errorf("v%d FRAME: sha256 %x, golden %s", ver, sum, g["frame"])
			}
			for _, name := range []string{"direct", "routed"} {
				h := Header{Version: ver, ReqID: 0x0102030405060708, TraceID: 0x1112131415161718}
				if err := w.FrameResult(h, results[name]); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(send()); got != g[name] {
					t.Errorf("v%d %s RESULT:\n got %s\nwant %s", ver, name, got, g[name])
				}
				want, _ := hex.DecodeString(g[name])
				payload := want[headerLen(ver):]
				prefix := []byte("prefix")
				appended, err := AppendResult(prefix, results[name])
				if err != nil || !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], payload) {
					t.Errorf("v%d %s: AppendResult after a prefix gave %x (%v), want the prefix, then %x", ver, name, appended, err, payload)
				}
				if enc, err := EncodeResult(results[name]); err != nil || !bytes.Equal(enc, payload) {
					t.Errorf("v%d %s: EncodeResult gave %x (%v), want %x", ver, name, enc, err, payload)
				}
			}
			w.Frame(Header{Version: ver, Type: MsgError, ReqID: 9, TraceID: 0xabcdef}, EncodeError(CodeResourceExhausted, "shard 0 queue full"))
			if got := hex.EncodeToString(send()); got != g["error"] {
				t.Errorf("v%d ERROR:\n got %s\nwant %s", ver, got, g["error"])
			}
		}
	}
	tooMany := &Result{Peaks: make([]PeakSummary, maxResultPeaks+1)}
	if err := w.FrameResult(Header{Version: ProtocolV2}, tooMany); err == nil {
		t.Error("FrameResult framed more peaks than the wire carries")
	}
	if got, err := AppendResult([]byte("kept"), tooMany); err == nil || string(got) != "kept" {
		t.Errorf("AppendResult past the bound: %q, %v; want dst untouched and an error", got, err)
	}
}

// fakeDaemon accepts one IMSP connection, completes the handshake in
// version 2, and calls answer with each FRAME's header and payload;
// answer writes whatever responses it owes through w.  It returns the
// listen address.
func fakeDaemon(t *testing.T, answer func(w *MessageWriter, conn net.Conn, h Header, payload []byte) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var w MessageWriter
		for first := true; ; first = false {
			h, err := ReadHeader(conn)
			if err != nil {
				return
			}
			payload := make([]byte, h.PayloadLen)
			if _, err := io.ReadFull(conn, payload); err != nil {
				return
			}
			if first {
				info := EncodeServerInfo(ServerInfo{Version: ProtocolV2, Shards: 1, Order: 9, MaxPayloadBytes: 1 << 20})
				w.Frame(Header{Version: ProtocolV1, Type: MsgHelloOK}, info)
				if _, err := w.WriteTo(conn); err != nil {
					return
				}
				continue
			}
			if h.Type != MsgFrame || answer(&w, conn, h, payload) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestAppendFramePayloadMatchesDo: Do and DoPayload of AppendFramePayload
// send the same message, and its payload is what Do sent before it encoded
// through AppendFramePayload — the options prefix, then frameio.Write of
// the frame — on both encodings.  AppendFramePayload appends after what
// dst holds.
func TestAppendFramePayloadMatchesDo(t *testing.T) {
	sent := make(chan []byte, 4)
	addr := fakeDaemon(t, func(w *MessageWriter, conn net.Conn, h Header, payload []byte) error {
		sent <- append(AppendHeader(nil, Header{Version: h.Version, Type: h.Type, PayloadLen: h.PayloadLen, TraceID: h.TraceID}), payload...)
		w.Frame(Header{Version: h.Version, Type: MsgError, ReqID: h.ReqID, TraceID: h.TraceID}, EncodeError(CodeInvalidArgument, "captured"))
		_, err := w.WriteTo(conn)
		return err
	})
	c := dialClient(t, addr)
	frame := signalFrame(t, 9, 64, 3)
	for _, enc := range []frameio.Encoding{frameio.Delta, frameio.Raw} {
		opts := FrameOptions{Path: PathCPU, Deadline: 1500 * time.Millisecond, TraceID: 0x77}
		if _, err := c.Do(context.Background(), frame, enc, opts); err != nil {
			t.Fatal(err)
		}
		viaDo := <-sent
		payload, err := AppendFramePayload([]byte("dst"), frame, enc, opts)
		if err != nil || string(payload[:3]) != "dst" {
			t.Fatalf("AppendFramePayload: %v, %q...", err, payload[:min(len(payload), 3)])
		}
		payload = payload[3:]
		if _, err := c.DoPayload(context.Background(), payload, opts.TraceID); err != nil {
			t.Fatal(err)
		}
		viaPayload := <-sent
		if !bytes.Equal(viaDo, viaPayload) {
			t.Errorf("%v: Do sent %d bytes, DoPayload of AppendFramePayload %d, and they differ", enc, len(viaDo), len(viaPayload))
		}
		if want := encodedPayload(t, frame, enc, opts); !bytes.Equal(viaDo[headerLen(ProtocolV2):], want) {
			t.Errorf("%v: Do sent a %d-byte payload, not the %d bytes of the options prefix and frameio.Write", enc, len(viaDo)-headerLen(ProtocolV2), len(want))
		}
	}
}

// TestCancelledCallsNeverTakeAnotherResponse mixes calls that complete
// with calls cancelled while their response is held back, which then
// arrives late — after the next frame — into a channel the client has
// dropped.  Every response names the frame it answers (its QueueWaitNs is
// the frame's token), and no caller may ever see another frame's: a
// channel that delivered is reused, one that was abandoned is not.  `make
// check` runs it under -race.
func TestCancelledCallsNeverTakeAnotherResponse(t *testing.T) {
	const callers, calls = 8, 60
	var cancels sync.Map // token → context.CancelFunc of a slow call
	var held []Header    // the responses owed to cancelled calls, held back
	tokenOf := func(payload []byte) (token uint64, slow bool) {
		return binary.LittleEndian.Uint64(payload[frameOptsSize:]), payload[frameOptsSize+8] == 1
	}
	respond := func(w *MessageWriter, conn net.Conn, h Header, token uint64) error {
		if err := w.FrameResult(Header{Version: h.Version, ReqID: h.ReqID, TraceID: h.TraceID}, &Result{QueueWaitNs: token}); err != nil {
			return err
		}
		_, err := w.WriteTo(conn)
		return err
	}
	addr := fakeDaemon(t, func(w *MessageWriter, conn net.Conn, h Header, payload []byte) error {
		token, slow := tokenOf(payload)
		if slow {
			cancel, _ := cancels.Load(token)
			cancel.(context.CancelFunc)()
			h.TraceID = token // remember which frame the held answer is for
			held = append(held, h)
			return nil
		}
		if err := respond(w, conn, h, token); err != nil {
			return err
		}
		for _, late := range held {
			if err := respond(w, conn, late, late.TraceID); err != nil {
				return err
			}
		}
		held = held[:0]
		return nil
	})
	c := dialClient(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				token := uint64(g*calls + i + 1)
				slow := i%3 == 1
				payload := make([]byte, frameOptsSize+9)
				binary.LittleEndian.PutUint64(payload[frameOptsSize:], token)
				ctx := context.Background()
				if slow {
					payload[frameOptsSize+8] = 1
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancels.Store(token, cancel)
				}
				resp, err := c.DoPayload(ctx, payload, 0)
				switch {
				case slow && errors.Is(err, context.Canceled):
				case err != nil:
					errs <- fmt.Errorf("frame %d: %v", token, err)
					return
				case resp.Result == nil || resp.Result.QueueWaitNs != token:
					errs <- fmt.Errorf("frame %d was answered with %+v", token, resp.Result)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerOnlyAllocs is the server's half of the round trip on its own:
// a raw-wire client writes pre-framed FRAME messages and reads each
// response into one reused buffer without decoding it, so the process's
// allocations per frame are the server's.  Warm, a served frame allocates
// nothing on the CPU path, on the hybrid path with a proved frame, with a
// frame log (FsyncNone) and with the metrics registry on: at most 0.1
// objects a frame, the odd sync.Pool refill after a collection.  The
// steady state is the cheapest of four 200-frame windows, as in
// TestServeFrameAllocs.
func TestServerOnlyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if testing.Short() {
		t.Skip("serves 3400 order-9 frames")
	}
	frame := signalFrame(t, DefaultConfig().Order, 256, 7)
	for _, tc := range []struct {
		name    string
		path    Path
		wal     bool
		metrics bool
	}{
		{"cpu", PathCPU, false, false},
		{"hybrid", PathHybrid, false, false},
		{"cpu framelog", PathCPU, true, false},
		{"cpu metrics", PathCPU, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards, cfg.WorkersPerShard = 1, 1
			if tc.wal {
				cfg.FrameLog = openWAL(t, t.TempDir(), framelog.FsyncNone)
			}
			if tc.metrics {
				cfg.Metrics = telemetry.NewRegistry()
			}
			_, addr := startServer(t, cfg)
			conn := rawDial(t, addr)
			_ = conn.SetDeadline(time.Time{})
			rawHello(t, conn)
			payload := encodedPayload(t, frame, frameio.Delta, FrameOptions{Path: tc.path})
			msg := append(AppendHeader(nil, Header{Version: ProtocolV2, Type: MsgFrame, ReqID: 1, TraceID: 0x5eed, PayloadLen: uint32(len(payload))}), payload...)
			resp := make([]byte, 4096)
			var failed error
			serve := func(n int) {
				for i := 0; i < n && failed == nil; i++ {
					if _, err := conn.Write(msg); err != nil {
						failed = err
						return
					}
					hdr := resp[:headerLen(ProtocolV2)]
					if _, err := io.ReadFull(conn, hdr); err != nil {
						failed = err
						return
					}
					size := binary.LittleEndian.Uint32(hdr[14:18])
					if MsgType(hdr[5]) != MsgResult || int(size) > len(resp) {
						failed = fmt.Errorf("frame %d answered %v with %d bytes", i, MsgType(hdr[5]), size)
						return
					}
					if _, err := io.ReadFull(conn, resp[:size]); err != nil {
						failed = err
					}
				}
			}
			serve(50) // warm the pools and the buffers
			runtime.GC()
			const windows, frames = 4, 200
			kib, objs := math.Inf(1), math.Inf(1)
			for w := 0; w < windows; w++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				serve(frames)
				runtime.ReadMemStats(&after)
				kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/frames)
				objs = min(objs, float64(after.Mallocs-before.Mallocs)/frames)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			t.Logf("%s: %.3f KiB and %.3f objects allocated per frame by the server", tc.name, kib, objs)
			if objs > 0.1 {
				t.Errorf("%s: the server allocates %.3f objects (%.3f KiB) per frame, budget is 0.1", tc.name, objs, kib)
			}
		})
	}
}
