// fuzz_test.go: FuzzSegmentRead throws arbitrary bytes at the segment
// scanner — the same code path crash recovery and framedump -log trust —
// and demands it never panics, never over-reports, and keeps its
// invariants (seq ordering, byte accounting) on whatever survives the CRC
// gate.  The corpus is seeded with real captured segments, plus torn and
// bit-flipped variants of them, so coverage starts from the formats
// recovery actually sees.
package framelog

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/seglog"
)

// captureSegment builds a small real segment (several records, sealed or
// torn) and returns its bytes for the seed corpus.
func captureSegment(f *testing.F, records int, seal bool) []byte {
	f.Helper()
	dir := f.TempDir()
	cfg := DefaultConfig(dir)
	cfg.Fsync = FsyncNone
	cfg.FsyncInterval = time.Hour
	cfg.JanitorInterval = time.Hour
	l, err := Open(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= records; i++ {
		if _, err := l.Append(uint64(i), payloadFor(uint64(i), 32)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil { // Close seals
		f.Fatal(err)
	}
	names, err := segFormat.List(dir)
	if err != nil || len(names) != 1 {
		f.Fatalf("want one segment, got %d (%v)", len(names), err)
	}
	b, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		f.Fatal(err)
	}
	if !seal {
		// Strip the footer trailer so the segment reads as unsealed.
		b = b[:len(b)-seglog.TrailerSize]
	}
	return b
}

func FuzzSegmentRead(f *testing.F) {
	sealed := captureSegment(f, 5, true)
	torn := captureSegment(f, 3, false)
	f.Add(sealed)
	f.Add(torn)
	f.Add(sealed[:len(sealed)/2]) // torn mid-file
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt a record body
	f.Add(flipped)
	f.Add(append([]byte(nil), segFormat.Magic[:]...)) // empty segment
	f.Add([]byte("not a segment at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segFormat.Name(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var count uint64
		var lastSeq uint64
		var bytes int64
		info, err := ScanSegment(path, func(rec Record) error {
			if count > 0 && rec.Seq <= lastSeq {
				t.Fatalf("scan delivered non-increasing seq %d after %d", rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			count++
			bytes += recordHeaderSize + int64(len(rec.Payload))
			return nil
		})
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if info.Records != count {
			t.Fatalf("info.Records = %d but callback saw %d", info.Records, count)
		}
		if count > 0 {
			if info.FirstSeq > info.LastSeq || info.LastSeq != lastSeq {
				t.Fatalf("inconsistent seq bounds %d..%d (last delivered %d)", info.FirstSeq, info.LastSeq, lastSeq)
			}
		}
		if !info.Sealed && info.TornBytes > info.Bytes {
			t.Fatalf("torn bytes %d exceed file size %d", info.TornBytes, info.Bytes)
		}
	})
}
