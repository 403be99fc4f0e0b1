// writeback_test.go: the appender's writeback hints and the seal's fsync
// accounting.  Hints are recorded through the writeback seam; the bytes
// on disk and the records read back must not depend on them.
package framelog

import (
	"cmp"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// hintRange is one writeback hint as the appender issued it, with the
// segment's size at that moment: its committed end, as the appender hints
// only after flushing a batch.
type hintRange struct {
	seg            string
	off, n, commit int64
}

// recordHints replaces the writeback seam for the test's duration with
// one that records each hint.
func recordHints(t *testing.T) func() []hintRange {
	t.Helper()
	var mu sync.Mutex
	var hints []hintRange
	saved := writeback
	writeback = func(f *os.File, off, n int64) {
		st, err := f.Stat()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		hints = append(hints, hintRange{seg: filepath.Base(f.Name()), off: off, n: n, commit: st.Size()})
		mu.Unlock()
	}
	t.Cleanup(func() { writeback = saved })
	return func() []hintRange {
		mu.Lock()
		defer mu.Unlock()
		return append([]hintRange(nil), hints...)
	}
}

// appendSized appends n records with sids base+1..base+n and size-byte
// payloads.
func appendSized(t *testing.T, l *Log, base uint64, n, size int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		sid := base + uint64(i)
		if _, err := l.Append(sid, payloadFor(sid, size)); err != nil {
			t.Fatalf("append %d: %v", sid, err)
		}
	}
}

// regionEnds maps each segment in dir to the end of its record region.
func regionEnds(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	names, err := segFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	ends := make(map[string]int64)
	for _, name := range names {
		seg, err := segFormat.Open(filepath.Join(dir, name), os.O_RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Footer == nil {
			t.Fatalf("%s unsealed after Close", name)
		}
		ends[name] = seg.End
		seg.Close()
	}
	return ends
}

// checkHints holds one run of a log to the hint contract.  For each
// segment the run wrote — ends maps it to its record region's end, from
// takes the offset the appender took it over at when that is not the
// magic — the hints tile [from, end) from the front: contiguous, each at
// least writebackBytes, none past the committed end, and fewer than
// writebackBytes left after the last.
func checkHints(t *testing.T, hints []hintRange, ends, from map[string]int64) {
	t.Helper()
	next := make(map[string]int64)
	for name := range ends {
		next[name] = cmp.Or(from[name], seglog.HeaderSize)
	}
	for i, h := range hints {
		if _, ok := next[h.seg]; !ok {
			t.Fatalf("hint %d on %s, a segment this run did not write", i, h.seg)
		}
		if h.off != next[h.seg] {
			t.Fatalf("hint %d on %s starts at %d, want %d", i, h.seg, h.off, next[h.seg])
		}
		if h.n < writebackBytes {
			t.Fatalf("hint %d on %s is %d bytes, under %d", i, h.seg, h.n, writebackBytes)
		}
		if end := h.off + h.n; end > h.commit || end > ends[h.seg] {
			t.Fatalf("hint %d on %s ends at %d, past the committed end %d (records end at %d)",
				i, h.seg, end, h.commit, ends[h.seg])
		}
		next[h.seg] = h.off + h.n
	}
	for name, end := range ends {
		if left := end - next[name]; left >= writebackBytes {
			t.Fatalf("%s: %d bytes after the last hint", name, left)
		}
	}
}

// TestWritebackHints writes records of an odd size across four segments,
// crashes (strips the newest footer), reopens and writes on into the
// recovered segment and a fifth.  The hints of each run start at the
// magic of every fresh segment and at the recovered end of the resumed
// one (checkHints); they leave every segment sealed and every record as
// written.
func TestWritebackHints(t *testing.T) {
	const size = 1<<20 + 4099 // records that straddle every hint boundary
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.segmentBytes = 5*writebackBytes/2 + 1000 // two hints a segment
	perSeg := int(cfg.segmentBytes / (recordHeaderSize + size))
	first := 3*perSeg + perSeg/2 // three rotations, then half a segment
	hints := recordHints(t)
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendSized(t, l, 0, first, size)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ends := regionEnds(t, dir)
	if len(ends) != 4 {
		t.Fatalf("%d segments after %d records, want 4", len(ends), first)
	}
	checkHints(t, hints(), ends, nil)

	// Crash: the newest segment loses its footer, so the reopened log
	// resumes appending into it.
	names, _ := segFormat.List(dir)
	resumed := names[len(names)-1]
	if err := os.Truncate(filepath.Join(dir, resumed), ends[resumed]); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	if got := l.RecoveryInfo().Records; got != uint64(first) {
		t.Fatalf("recovered %d records, want %d", got, first)
	}
	before := len(hints())
	appendSized(t, l, uint64(first), perSeg, size)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	all := regionEnds(t, dir)
	if len(all) != 5 {
		t.Fatalf("%d segments after reopening, want 5", len(all))
	}
	second := map[string]int64{resumed: all[resumed]}
	for name, end := range all {
		if _, old := ends[name]; !old {
			second[name] = end
		}
	}
	run := hints()[before:]
	if len(run) == 0 || run[0].seg != resumed {
		t.Fatalf("the reopened log's first hint is not on the resumed segment %s: %v", resumed, run)
	}
	checkHints(t, run, second, map[string]int64{resumed: ends[resumed]})

	// Every record reads back as written.
	if l, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	r := l.NewReader(Start{From: FromBeginning})
	recs := readAll(t, r)
	r.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != first+perSeg {
		t.Fatalf("read %d records, want %d", len(recs), first+perSeg)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.SID != uint64(i+1) || len(rec.Payload) != size {
			t.Fatalf("record %d: seq %d sid %d, %d bytes", i, rec.Seq, rec.SID, len(rec.Payload))
		}
	}
}

// TestSealSyncCounted: the fsync that seals a segment is counted and
// timed like every other, so under FsyncNone — where seals are the only
// syncs — framelog_fsync_total equals the rotations.
func TestSealSyncCounted(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cfg := testConfig(dir)
	cfg.segmentBytes = 512
	cfg.Metrics = reg
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seals := reg.Counter("framelog_rotations_total", "").Value()
	syncs := reg.Counter("framelog_fsync_total", "").Value()
	if seals < 3 {
		t.Fatalf("%d rotations, want at least 3", seals)
	}
	if syncs != seals {
		t.Fatalf("framelog_fsync_total = %d after %d rotations under FsyncNone, want one per seal", syncs, seals)
	}
	if n := reg.Histogram("framelog_fsync_ns", "").Count(); n != syncs {
		t.Fatalf("framelog_fsync_ns counts %d syncs, framelog_fsync_total %d", n, syncs)
	}
}
