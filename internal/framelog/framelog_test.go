// framelog_test.go: the durability contract under test — round trips,
// rotation, torn-write recovery, completion watermarks, retention, cursor
// positioning, fsync policies, concurrent append+tail under -race, the
// zero-allocation submission path, and the metric families.
package framelog

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// testConfig is a small, fast log for tests: no fsync, tiny segments
// optional via overrides.
func testConfig(dir string) Config {
	cfg := DefaultConfig(dir)
	cfg.Fsync = FsyncNone
	cfg.FsyncInterval = 5 * time.Millisecond
	cfg.JanitorInterval = 5 * time.Millisecond
	return cfg
}

// payloadFor derives a record payload from its source id, so readers can
// verify content without sharing state with appenders.
func payloadFor(sid uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(sid>>uint(8*(i%8))) ^ byte(i)
	}
	return b
}

// appendN appends n records with sids base+1..base+n and 48-byte payloads.
func appendN(t *testing.T, l *Log, base uint64, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		sid := base + uint64(i)
		if _, err := l.Append(sid, payloadFor(sid, 48)); err != nil {
			t.Fatalf("append %d: %v", sid, err)
		}
	}
}

// readAll drains a reader until io.EOF, verifying payload contents.
func readAll(t *testing.T, r *Reader) []Record {
	t.Helper()
	var out []Record
	var rec Record
	for {
		err := r.Next(&rec)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("read after %d records: %v", len(out), err)
		}
		if want := payloadFor(rec.SID, len(rec.Payload)); !bytes.Equal(rec.Payload, want) {
			t.Fatalf("seq %d payload mismatch", rec.Seq)
		}
		cp := rec
		cp.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, cp)
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 100, 20)
	if got := l.LastSeq(); got != 20 {
		t.Fatalf("LastSeq = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info := l.RecoveryInfo()
	if info.Records != 20 || info.FirstSeq != 1 || info.LastSeq != 20 {
		t.Fatalf("recovery = %+v, want 20 records seq 1..20", info)
	}
	if info.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", info.TruncatedBytes)
	}
	r := l.NewReader(Start{From: FromBeginning})
	defer r.Close()
	recs := readAll(t, r)
	if len(recs) != 20 {
		t.Fatalf("read %d records, want 20", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.SID != uint64(101+i) {
			t.Fatalf("record %d = seq %d sid %d", i, rec.Seq, rec.SID)
		}
	}
	// Appends resume the sequence counter.
	seq, err := l.Append(999, payloadFor(999, 48))
	if err != nil || seq != 21 {
		t.Fatalf("resumed append = (%d, %v), want seq 21", seq, err)
	}
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.segmentBytes = 512 // a handful of 84-byte records per segment
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	infos, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 3 {
		t.Fatalf("expected several segments, got %d", len(infos))
	}
	for i, si := range infos[:len(infos)-1] {
		if !si.Sealed {
			t.Fatalf("segment %d not sealed", i)
		}
	}
	r := l.NewReader(Start{From: FromBeginning})
	recs := readAll(t, r)
	r.Close()
	if len(recs) != 40 {
		t.Fatalf("read %d records across segments, want 40", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close seals the active segment too.
	infos, err = ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, si := range infos {
		if !si.Sealed {
			t.Fatalf("segment %d unsealed after Close", i)
		}
	}
}

// newestSegment returns the path of the newest segment and strips its
// footer (as if the process crashed before sealing), returning the
// record-region end offset.
func unsealNewest(t *testing.T, dir string) (string, int64) {
	t.Helper()
	infos, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	si := infos[len(infos)-1]
	if !si.Sealed {
		return si.Path, si.Bytes
	}
	// Records end where the footer begins; recompute from record sizes.
	end := int64(seglog.HeaderSize) + int64(si.Records)*(recordHeaderSize+48)
	if err := os.Truncate(si.Path, end); err != nil {
		t.Fatal(err)
	}
	return si.Path, end
}

func TestRecoveryTruncatesTornRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path, end := unsealNewest(t, dir)
	// Tear the last record in half.
	if err := os.Truncate(path, end-40); err != nil {
		t.Fatal(err)
	}
	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info := l.RecoveryInfo()
	if info.Records != 9 || info.LastSeq != 9 {
		t.Fatalf("recovery after torn write = %+v, want 9 records", info)
	}
	if info.TruncatedBytes != recordHeaderSize+48-40 {
		t.Fatalf("TruncatedBytes = %d, want %d", info.TruncatedBytes, recordHeaderSize+48-40)
	}
	// The torn seq is reassigned to the next append.
	seq, err := l.Append(7, payloadFor(7, 48))
	if err != nil || seq != 10 {
		t.Fatalf("append after truncation = (%d, %v), want seq 10", seq, err)
	}
}

func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path, end := unsealNewest(t, dir)

	// Flip one payload byte in the last record: its CRC fails, so recovery
	// must drop it (and only it).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, end-1); err != nil {
		t.Fatal(err)
	}
	// And stack garbage after it, as a torn rewrite would.
	if _, err := f.WriteAt([]byte("garbage-garbage-garbage"), end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info := l.RecoveryInfo()
	if info.Records != 9 || info.LastSeq != 9 {
		t.Fatalf("recovery after corruption = %+v, want 9 records", info)
	}
	if info.TruncatedBytes != (recordHeaderSize+48)+23 {
		t.Fatalf("TruncatedBytes = %d, want %d", info.TruncatedBytes, recordHeaderSize+48+23)
	}
	r := l.NewReader(Start{From: FromBeginning})
	defer r.Close()
	if got := len(readAll(t, r)); got != 9 {
		t.Fatalf("read %d records after recovery, want 9", got)
	}
}

func TestCompletionWatermark(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	for _, seq := range []uint64{1, 2, 3, 4, 5, 7} {
		l.MarkCompleted(seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	info := l.RecoveryInfo()
	if info.Watermark != 5 {
		t.Fatalf("watermark = %d, want 5 (contiguous prefix)", info.Watermark)
	}
	if info.Pending != 4 { // 6, 8, 9, 10
		t.Fatalf("pending = %d, want 4", info.Pending)
	}
	if !l.Completed(7) || !l.Completed(3) || l.Completed(6) {
		t.Fatal("Completed() disagrees with the marks")
	}
	for _, seq := range []uint64{6, 8, 9, 10} {
		l.MarkCompleted(seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything marked: the watermark reaches the end and the compacted
	// sidecar carries no stragglers.
	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info = l.RecoveryInfo()
	if info.Watermark != 10 || info.Pending != 0 {
		t.Fatalf("after full completion: %+v, want watermark 10, pending 0", info)
	}
	if st, err := os.Stat(filepath.Join(dir, completionFileName)); err != nil || st.Size() != 0 {
		t.Fatalf("completion sidecar not compacted: size %v err %v", st, err)
	}
}

func TestJanitorRetention(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.segmentBytes = 512
	cfg.RetainSegments = 2
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 60) // ~12 segments
	deadline := time.Now().Add(5 * time.Second)
	for {
		names, err := segFormat.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) <= 3 { // 2 retained sealed + the active one
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("janitor kept %d segments, want <= 3", len(names))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A fresh cursor starts at the oldest *retained* record, not seq 1.
	r := l.NewReader(Start{From: FromBeginning})
	defer r.Close()
	var rec Record
	if err := r.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq == 1 {
		t.Fatal("reader delivered a retention-deleted record")
	}
}

func TestReaderFromSeq(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.segmentBytes = 8192 // 97 records and two sparse points per segment
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 300)

	// Seq 270 lies past the second index point of the segment from 195.
	r := l.NewReader(Start{From: FromSeq, Seq: 270})
	recs := readAll(t, r)
	r.Close()
	if len(recs) != 31 || recs[0].Seq != 270 {
		t.Fatalf("FromSeq 270: %d records starting at %d, want 31 from 270", len(recs), recs[0].Seq)
	}

	// A cursor one past the last record tails the log.
	tail := l.NewReader(Start{From: FromSeq, Seq: l.LastSeq() + 1})
	var rec Record
	if err := tail.Next(&rec); err != io.EOF {
		t.Fatalf("tail's first Next = %v, want io.EOF", err)
	}
	appendN(t, l, 1000, 3)
	recs = readAll(t, tail)
	tail.Close()
	if len(recs) != 3 || recs[0].Seq != 301 {
		t.Fatalf("tail after appends: %d records from %d, want 3 from 301", len(recs), recs[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNone, FsyncInterval, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			cfg := testConfig(dir)
			cfg.Fsync = policy
			cfg.Metrics = reg
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 8)
			if got, want := l.Durable(), policy == FsyncAlways; got != want {
				t.Fatalf("Durable() = %v under %v", got, policy)
			}
			if got := l.metrics.fsyncTotal.Value(); policy == FsyncAlways && got != 8 {
				t.Fatalf("FsyncAlways: %d fsyncs, want one per (serial) append batch", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			// Close seals the segment, and the seal's fsync counts too.
			if policy == FsyncAlways && !strings.Contains(buf.String(), "framelog_fsync_total 9") {
				t.Fatalf("FsyncAlways: want one fsync per (serial) append batch and one for the seal, got:\n%s",
					grepLines(buf.String(), "framelog_fsync"))
			}
		})
	}
}

// grepLines filters s to lines containing sub, for failure messages.
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestAppendErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, make([]byte, maxRecordBytes+1)); err != ErrRecordTooLarge {
		t.Fatalf("oversized append = %v, want ErrRecordTooLarge", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

func TestConcurrentAppendAndTail(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.segmentBytes = 2048 // force rotations mid-traffic
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers  = 4
		perGoro  = 200
		expected = writers * perGoro
	)

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				sid := uint64(g*1000 + i)
				seq, err := l.Append(sid, payloadFor(sid, 48))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				l.MarkCompleted(seq)
			}
		}(g)
	}

	collect := func() (map[uint64]uint64, error) {
		r := l.NewReader(Start{From: FromBeginning})
		defer r.Close()
		got := map[uint64]uint64{}
		var rec Record
		deadline := time.Now().Add(10 * time.Second)
		for len(got) < expected {
			switch err := r.Next(&rec); err {
			case nil:
				if want := payloadFor(rec.SID, len(rec.Payload)); !bytes.Equal(rec.Payload, want) {
					return nil, fmt.Errorf("seq %d payload mismatch", rec.Seq)
				}
				got[rec.Seq] = rec.SID
			case io.EOF:
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("tail stalled at %d/%d records", len(got), expected)
				}
				time.Sleep(time.Millisecond)
			default:
				return nil, err
			}
		}
		return got, nil
	}

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			got, err := collect()
			if err == nil {
				for seq := uint64(1); seq <= expected; seq++ {
					if _, ok := got[seq]; !ok {
						err = fmt.Errorf("seq %d missing", seq)
						break
					}
				}
			}
			results <- err
		}()
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Every record was marked completed; a reopen owes no replay.
	l, err = Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	info := l.RecoveryInfo()
	if info.Watermark != expected || info.Pending != 0 {
		t.Fatalf("after marked run: %+v, want watermark %d, pending 0", info, expected)
	}
}

// TestAppendAllocs is the allocgate contract: the submission path of
// Append must not allocate in steady state (pooled requests, reusable
// buffers), so logging a frame never pressures the serving hot path's
// garbage collector.
func TestAppendAllocs(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Fsync = FsyncNone
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := payloadFor(42, 64)
	// One append up front absorbs lazy segment creation.
	if _, err := l.Append(42, payload); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(2000, func() {
		if _, err := l.Append(42, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Append allocates %g per record in steady state", a)
	}
}

func TestPrometheusExposition(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cfg := testConfig(dir)
	cfg.Metrics = reg
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.MarkCompleted(1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"framelog_append_records_total 5",
		"framelog_append_bytes_total",
		"framelog_segments 1",
		"framelog_rotations_total 1",
		"framelog_completions_total 1",
		"framelog_recovery_records 0",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"interval", FsyncInterval}, {"none", FsyncNone}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v)", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() round trip: %q -> %q", tc.in, got.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted nonsense")
	}
}
