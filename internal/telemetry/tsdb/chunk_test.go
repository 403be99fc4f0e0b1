package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// recordSpans walks a chunk's records from just past the magic and
// returns each one's [start, end) byte range, stopping at the first
// prefix whose length runs past the data.
func recordSpans(b []byte) [][2]int {
	var spans [][2]int
	for off := 8; off+recordPrefixSize <= len(b); {
		end := off + recordPrefixSize + int(binary.LittleEndian.Uint32(b[off+1:off+5]))
		if end > len(b) || end < off {
			break
		}
		spans = append(spans, [2]int{off, end})
		off = end
	}
	return spans
}

// TestUndecodableRecordEndsChunk: a record whose CRC holds but whose
// payload does not decode is the chunk's torn tail, exactly like a CRC
// failure.  The scan must stop before it (a scan that skipped it would
// decode every later batch against half-updated timestamp and XOR
// state), and recovery must cut the chunk there.
func TestUndecodableRecordEndsChunk(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, ResRaw)
	if err := os.MkdirAll(raw, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := createChunk(raw, goldenT0)
	if err != nil {
		t.Fatal(err)
	}
	sr := Series{Family: "g", Kind: telemetry.KindGauge}
	lookup := func(uint32) (Series, bool) { return sr, true }
	for i, v := range []float64{4.5, 6.75, 9.375, 12.1875, 15.09375} {
		if err := w.appendBatch(goldenT0+int64(i)*int64(time.Second), []Sample{{Point: Point{Count: 1, Min: v, Max: v, Sum: v}}}, lookup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.abort(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	spans := recordSpans(b) // series def, then the five batches
	if len(spans) != 6 {
		t.Fatalf("chunk holds %d records, want 6", len(spans))
	}
	// The second batch loses its payload's last byte; its length and CRC
	// are fixed up so only the decoder can tell.
	second := spans[2]
	rec := append([]byte(nil), b[second[0]:second[1]-1]...)
	payload := rec[recordPrefixSize:]
	binary.LittleEndian.PutUint32(rec[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[5:9], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	mutated := append(append(append([]byte(nil), b[:second[0]]...), rec...), b[second[1]:]...)
	if err := os.WriteFile(w.path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	seg, err := chunkFormat.Open(w.path, os.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scanChunk(seg, nil)
	seg.Close()
	if err != nil || sc.batches != 1 || sc.lastTs != goldenT0 || sc.validBytes != int64(spans[1][1]-8) {
		t.Fatalf("scan = %d batches through %d, %d valid bytes (err %v); want the first batch alone, %d bytes",
			sc.batches, sc.lastTs, sc.validBytes, err, spans[1][1]-8)
	}

	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	since := time.Unix(0, goldenT0)
	res, err := s.Query(QueryOptions{Family: "g", Since: since, Until: since.Add(time.Minute), Step: time.Second, Resolution: ResRaw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 || res.Series[0].Points[0].Value != 4.5 {
		t.Fatalf("recovered history = %+v, want the first batch alone (4.5)", res.Series)
	}
	st, err := os.Stat(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(spans[1][1]) + footerPayloadSize + 12; st.Size() != want {
		t.Fatalf("recovered chunk is %d bytes, want %d (cut after the first batch, then sealed)", st.Size(), want)
	}
}

// TestQueryUntilInsideSealedChunk: a query whose Until falls between two
// batches of a sealed chunk stops scanning that chunk early, and must
// not then hold the partial scan against the chunk's footer.
func TestQueryUntilInsideSealedChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id := s.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	base := time.Now().Add(-10 * time.Minute).Truncate(time.Second)
	for i := 0; i < 5; i++ {
		v := float64(i + 1)
		if err := s.Append(base.Add(time.Duration(i)*time.Second), []Sample{{SeriesID: id, Point: Point{Count: 1, Min: v, Max: v, Sum: v}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := chunkFormat.List(filepath.Join(dir, ResRaw))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one raw chunk, got %v (%v)", names, err)
	}

	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	res, err := q.Query(QueryOptions{
		Family: "g", Since: base, Until: base.Add(2500 * time.Millisecond),
		Step: time.Second, Resolution: ResRaw,
	})
	if err != nil {
		t.Fatalf("Query with Until inside a sealed chunk: %v", err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 3 {
		t.Fatalf("got %+v, want one series of the first three batches", res.Series)
	}
	for i, p := range res.Series[0].Points {
		if p.Value != float64(i+1) {
			t.Fatalf("point %d = %v, want %v", i, p.Value, float64(i+1))
		}
	}
}
