// golden_test.go: on-disk compatibility.  testdata holds one sealed and
// one torn segment written by an earlier build of this package; every
// later build must open, recover and read them back, and its record and
// footer encoders must reproduce their bytes exactly.
package framelog

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenRec is one fixed record of the golden segments: seq, a fixed
// timestamp a millisecond apart, a sid derived from the seq, and a
// payload derived from the sid.
func goldenRec(seq uint64) Record {
	sid := seq * 7
	return Record{Seq: seq, Time: 1_760_000_000_000_000_000 + int64(seq)*1_000_000, SID: sid, Payload: payloadFor(sid, 40+int(seq))}
}

// goldenSegment encodes the records first..last as a segment: the file
// magic, then the records, then — when sealed — the index footer with a
// sparse point every indexEvery records.
func goldenSegment(first, last uint64, sealed bool, indexEvery int) []byte {
	b := []byte("FLSG0001")
	var hdr [recordHeaderSize]byte
	var entries []idxEntry
	for seq := first; seq <= last; seq++ {
		rec := goldenRec(seq)
		if (seq-first)%uint64(indexEvery) == 0 {
			entries = append(entries, idxEntry{seq: seq, ts: rec.Time, offset: int64(len(b))})
		}
		encodeRecordHeader(&hdr, rec.Seq, rec.Time, rec.SID, rec.Payload)
		b = append(append(b, hdr[:]...), rec.Payload...)
	}
	if !sealed {
		return b
	}
	return append(b, encodeFooter(nil, first, last, goldenRec(first).Time, goldenRec(last).Time, last-first+1, entries)...)
}

// The golden files: records 11..15 sealed with a stride-2 index, and
// records 1..3 unsealed followed by record 4 torn mid-payload.
const (
	goldenSealed = "testdata/sealed.seg"
	goldenTorn   = "testdata/torn.seg"
)

// goldenTornBytes is the torn golden: three whole records and the header
// plus half the payload of the fourth.
func goldenTornBytes() []byte {
	b := goldenSegment(1, 4, false, 1)
	return b[:len(b)-len(goldenRec(4).Payload)/2]
}

func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenEncodersReproduceSegments: the record-header and footer
// encoders rebuild both golden files byte for byte.
func TestGoldenEncodersReproduceSegments(t *testing.T) {
	if got, want := goldenSegment(11, 15, true, 2), readGolden(t, goldenSealed); !bytes.Equal(got, want) {
		t.Fatalf("sealed segment: encoders give %d bytes, golden has %d (or contents differ)", len(got), len(want))
	}
	if got, want := goldenTornBytes(), readGolden(t, goldenTorn); !bytes.Equal(got, want) {
		t.Fatalf("torn segment: encoders give %d bytes, golden has %d (or contents differ)", len(got), len(want))
	}
}

// TestGoldenSegmentsRecover opens a log over both golden files — the torn
// one older, so recovery heals it with a footer — and reads back every
// intact record.
func TestGoldenSegmentsRecover(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "flog-00000000000000000001.seg")
	sealed := filepath.Join(dir, "flog-00000000000000000011.seg")
	if err := os.WriteFile(torn, readGolden(t, goldenTorn), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sealed, readGolden(t, goldenSealed), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path    string
		sealed  bool
		records uint64
	}{{torn, false, 3}, {sealed, true, 5}} {
		info, err := ScanSegment(tc.path, nil)
		if err != nil || info.Sealed != tc.sealed || info.Records != tc.records {
			t.Fatalf("ScanSegment %s = %+v, %v; want sealed=%v with %d records", tc.path, info, err, tc.sealed, tc.records)
		}
	}

	l, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	info := l.RecoveryInfo()
	tornBytes := int64(len(goldenTornBytes()) - len(goldenSegment(1, 3, false, 1)))
	if info.Records != 8 || info.FirstSeq != 1 || info.LastSeq != 15 || info.TruncatedBytes != tornBytes || info.Segments != 2 {
		t.Fatalf("recovery = %+v, want 8 records 1..15, %d torn bytes, 2 segments", info, tornBytes)
	}
	r := l.NewReader(Start{From: FromBeginning})
	want := []uint64{1, 2, 3, 11, 12, 13, 14, 15}
	var rec Record
	for i := 0; ; i++ {
		err := r.Next(&rec)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("read %d records, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		g := goldenRec(want[i])
		if rec.Seq != g.Seq || rec.Time != g.Time || rec.SID != g.SID || !bytes.Equal(rec.Payload, g.Payload) {
			t.Fatalf("record %d = seq %d time %d sid %d, want %+v", i, rec.Seq, rec.Time, rec.SID, g)
		}
	}
	r.Close()
	if seq, err := l.Append(1, []byte("next")); err != nil || seq != 16 {
		t.Fatalf("append after recovery = (%d, %v), want seq 16", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Healing cut the torn record and sealed the rest with the footer the
	// appender itself would have written.
	got, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenSegment(1, 3, true, defaultIndexEvery); !bytes.Equal(got, want) {
		t.Fatalf("healed torn segment: %d bytes, want %d (or contents differ)", len(got), len(want))
	}
}
