// framelog_test.go: the WAL integration contract — every accepted frame
// is captured byte-for-byte before it is enqueued, acknowledgements carry
// the not-durable flag exactly when the log is not fsyncing, a drain
// closes the log with every frame completion-marked, and crash recovery
// re-enqueues pending records through the same worker pools while
// rejecting records that no longer decode.
package acqserver

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
)

// openWAL opens a frame log for tests in dir with the given policy.
func openWAL(t *testing.T, dir string, policy framelog.FsyncPolicy) *framelog.Log {
	t.Helper()
	cfg := framelog.DefaultConfig(dir)
	cfg.Fsync = policy
	wal, err := framelog.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

func TestFrameLogCapturesAcceptedFrames(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.FrameLog = openWAL(t, dir, framelog.FsyncNone)
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)

	frame := testFrame(48)
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := c.Do(context.Background(), frame, frameio.Raw, FrameOptions{Path: PathCPU})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeOK {
			t.Fatalf("frame %d: %v %s", i, resp.Code, resp.Message)
		}
		// FsyncNone acknowledgements must say so.
		if resp.DurabilityError() == nil {
			t.Fatal("un-fsynced ack did not carry the not-durable flag")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drained log holds one record per accepted frame, every one
	// completion-marked, and the captured payloads decode back to the
	// submitted frame bytes.
	wal := openWAL(t, dir, framelog.FsyncNone)
	defer wal.Close()
	info := wal.RecoveryInfo()
	if info.Records != n || info.Pending != 0 || info.Watermark != n {
		t.Fatalf("after drain: %+v, want %d records, watermark %d, pending 0", info, n, n)
	}
	r := wal.NewReader(framelog.Start{From: framelog.FromBeginning})
	defer r.Close()
	var rec framelog.Record
	for i := 0; i < n; i++ {
		if err := r.Next(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		opts, frameBytes, err := SplitFramePayload(rec.Payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if opts.Path != PathCPU {
			t.Fatalf("record %d captured path %v", i, opts.Path)
		}
		got, _, err := frameio.Read(bytes.NewReader(frameBytes))
		if err != nil {
			t.Fatalf("record %d frame: %v", i, err)
		}
		if got.DriftBins != frame.DriftBins || got.TOFBins != frame.TOFBins {
			t.Fatalf("record %d geometry %dx%d", i, got.DriftBins, got.TOFBins)
		}
		for j := range got.Data {
			if got.Data[j] != frame.Data[j] {
				t.Fatalf("record %d cell %d: %g != %g", i, j, got.Data[j], frame.Data[j])
			}
		}
	}
}

func TestFrameLogDurableAckHasNoFlag(t *testing.T) {
	cfg := testConfig()
	cfg.FrameLog = openWAL(t, t.TempDir(), framelog.FsyncAlways)
	_, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	resp, err := c.Do(context.Background(), testFrame(32), frameio.Raw, FrameOptions{Path: PathCPU})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeOK {
		t.Fatalf("%v %s", resp.Code, resp.Message)
	}
	if err := resp.DurabilityError(); err != nil {
		t.Fatalf("fsync-always ack flagged not-durable: %v", err)
	}
}

func TestFrameLogRecoveryReplaysPending(t *testing.T) {
	dir := t.TempDir()

	// Simulate a crashed daemon: a log full of accepted frames, none
	// completion-marked, one of which no longer decodes.
	wal := openWAL(t, dir, framelog.FsyncNone)
	good := framePayload(t, testFrame(40), FrameOptions{Path: PathCPU})
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := wal.Append(uint64(0xabc0+i), good); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wal.Append(0xdead, []byte("too short")); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	wal = openWAL(t, dir, framelog.FsyncNone)
	if got := wal.RecoveryInfo().Pending; got != n+1 {
		t.Fatalf("pending = %d, want %d", got, n+1)
	}
	cfg.FrameLog = wal
	s, _ := startServer(t, cfg)

	enqueued, err := s.RecoverFrames(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if enqueued != n {
		t.Fatalf("re-enqueued %d frames, want %d", enqueued, n)
	}
	waitFor(t, "recovered frames to process", func() bool {
		return s.m.recovered["ok"].Value() == n
	})
	if got := s.m.recovered["error"].Value(); got != 1 {
		t.Fatalf("recovered error count = %d, want 1 (the undecodable record)", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Nothing left to replay after the recovered run drains.
	wal = openWAL(t, dir, framelog.FsyncNone)
	defer wal.Close()
	if info := wal.RecoveryInfo(); info.Pending != 0 {
		t.Fatalf("second recovery still pending %d: %+v", info.Pending, info)
	}
}

func TestFrameLogShedFramesAreCompleted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.FrameLog = openWAL(t, dir, framelog.FsyncNone)
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)

	// Drain the server, then submit: the frame is logged (append precedes
	// admission) but shed, so its completion mark must land — a shed frame
	// was answered and must never replay.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	waitFor(t, "server to start draining", func() bool { return s.draining.Load() })
	resp, err := c.Do(context.Background(), testFrame(32), frameio.Raw, FrameOptions{Path: PathCPU})
	if err == nil && resp.Code == CodeOK {
		t.Fatalf("draining server accepted a frame")
	}

	waitFor(t, "shutdown to finish", func() bool {
		select {
		case <-s.shutdownc:
			return true
		default:
			return false
		}
	})
	wal := openWAL(t, dir, framelog.FsyncNone)
	defer wal.Close()
	if info := wal.RecoveryInfo(); info.Pending != 0 {
		t.Fatalf("shed frame left pending replay: %+v", info)
	}
}

// TestAckedFramesSurviveUncleanReopen acknowledges frames under fsync
// always, then reopens the directory while the server is still running and
// its log was never closed — the stand-in for a SIGKILL.  Every
// acknowledged frame is on disk, and a recovered server re-processes
// whatever the crash left uncompleted, after which nothing is pending.
func TestAckedFramesSurviveUncleanReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.FrameLog = openWAL(t, dir, framelog.FsyncAlways)
	crashed, err := NewServer(cfg) // never drained: it dies with the test binary
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = crashed.Serve(ln) }()
	c := dialClient(t, ln.Addr().String())
	const acked = 8
	for i := 0; i < acked; i++ {
		resp, err := c.Do(context.Background(), testFrame(16), frameio.Delta, FrameOptions{Path: PathCPU})
		if err != nil || resp.Code != CodeOK || resp.DurabilityError() != nil {
			t.Fatalf("frame %d: %v / %+v", i, err, resp)
		}
	}

	wal := openWAL(t, dir, framelog.FsyncAlways)
	info := wal.RecoveryInfo()
	if info.Records != acked {
		t.Fatalf("reopened log holds %d records, %d frames were acknowledged", info.Records, acked)
	}
	cfg = testConfig()
	cfg.FrameLog = wal
	s, _ := startServer(t, cfg)
	if n, err := s.RecoverFrames(context.Background()); err != nil || n != info.Pending {
		t.Fatalf("re-enqueued %d frames (%v), want the %d pending", n, err, info.Pending)
	}
	waitFor(t, "pending frames re-processed", func() bool {
		return s.m.recovered["ok"].Value() == int64(info.Pending)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wal = openWAL(t, dir, framelog.FsyncNone)
	defer wal.Close()
	if info := wal.RecoveryInfo(); info.Records != acked || info.Pending != 0 {
		t.Fatalf("after recovery: %+v, want %d records, none pending", info, acked)
	}
}
