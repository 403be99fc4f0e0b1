// fuzz_test.go: FuzzChunkRead throws arbitrary bytes at the chunk
// scanner — the code path crash recovery and every history query trust —
// after recomputing each record's CRC, so mutations get past the checksum
// and reach the series-def and batch decoders.  It demands the scan never
// panics and never verifies more bytes than the file holds, and that
// recovery heals the file into one whose rescan yields the same batches.
// The corpus is seeded with real chunks — sealed, torn and bit-flipped —
// so coverage starts from the formats recovery actually sees.
//
// FuzzHistoryQuery throws arbitrary query strings at ParseQuery and the
// /metrics/history handler over a seeded store: no panic; 400 exactly when
// ParseQuery rejects the parameters, 500 only for a query the store
// refuses, 200 otherwise, with a body that decodes to QueryResult.
package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// withFixedCRCs returns a copy of data with every record's CRC
// recomputed over its payload.
func withFixedCRCs(data []byte) []byte {
	b := append([]byte(nil), data...)
	for _, sp := range recordSpans(b) {
		binary.LittleEndian.PutUint32(b[sp[0]+5:], crc32.Checksum(b[sp[0]+recordPrefixSize:sp[1]], seglog.Castagnoli))
	}
	return b
}

// scanBatches scans the chunk at path and renders every batch, series
// identities included, one per line.  ok is false when the file is not a
// chunk.
func scanBatches(t *testing.T, path string) (out string, sc *chunkScan, ok bool, err error) {
	seg, err := chunkFormat.Open(path, os.O_RDONLY)
	if err != nil {
		return "", nil, false, nil
	}
	defer seg.Close()
	var b strings.Builder
	sc, err = scanChunk(seg, func(series map[uint32]Series, bt Batch) error {
		fmt.Fprintf(&b, "%d", bt.Ts)
		for _, sm := range bt.Samples {
			fmt.Fprintf(&b, " %s:%v", series[sm.SeriesID].Key(), sm.Point)
		}
		b.WriteByte('\n')
		return nil
	})
	if sc.validBytes > seg.Size-seglog.HeaderSize {
		t.Fatalf("scan verified %d bytes of a %d-byte file", sc.validBytes, seg.Size)
	}
	return b.String(), sc, true, err
}

func FuzzChunkRead(f *testing.F) {
	sealed := readGolden(f, writeGoldenChunk(f, f.TempDir(), 6, true))
	unsealed := readGolden(f, writeGoldenChunk(f, f.TempDir(), 6, false))
	f.Add(sealed)
	f.Add(unsealed[:len(unsealed)-5]) // torn last batch
	f.Add(sealed[:len(sealed)/2])     // torn mid-file
	flipped := append([]byte(nil), unsealed...)
	flipped[len(flipped)/2] ^= 0x40 // corrupt a batch body
	f.Add(flipped)
	f.Add(append([]byte(nil), chunkFormat.Magic[:]...)) // empty chunk
	f.Add([]byte("not a chunk at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ResRaw, chunkFormat.Name(1))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, withFixedCRCs(data), 0o644); err != nil {
			t.Fatal(err)
		}
		before, sc, ok, err := scanBatches(t, path)
		if !ok || err != nil {
			return // not a chunk, or a sealed one its footer contradicts
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		after, _, ok, err := scanBatches(t, path)
		if err != nil {
			t.Fatalf("rescan of the healed chunk: %v", err)
		}
		if !ok && sc.batches > 0 {
			t.Fatalf("recovery dropped a chunk with %d batches", sc.batches)
		}
		if ok && after != before {
			t.Fatalf("healed chunk rescans differently:\nbefore:\n%s\nafter:\n%s", before, after)
		}
	})
}

func FuzzHistoryQuery(f *testing.F) {
	s, err := Open(Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	gid := s.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	cid := s.SeriesID(Series{Family: "c", Kind: telemetry.KindCounter, Labels: []telemetry.Label{telemetry.L("path", "cpu")}})
	hid := s.SeriesID(Series{Family: "h", Kind: telemetry.KindHistogram})
	base := time.Now().Add(-3 * time.Hour).Truncate(time.Second)
	for i := 0; i < 40; i++ { // 5 min apart: rotations and every level fill
		var hp Point
		hp.HCount, hp.HSum = 2, float64(3*i)
		hp.HBuckets[i%telemetry.NumBuckets] = 2
		if err := s.Append(base.Add(time.Duration(i)*5*time.Minute), []Sample{
			{SeriesID: gid, Point: Point{Count: 1, Min: float64(i), Max: float64(i), Sum: float64(i)}},
			{SeriesID: cid, Point: Point{Count: 1, Min: 1, Max: 1, Sum: 1}},
			{SeriesID: hid, Point: hp},
		}); err != nil {
			f.Fatal(err)
		}
	}
	h := s.Handler()
	for _, seed := range []string{
		"family=g", "family=c&match=path=cpu&since=-4h&step=10m", "family=h&quantile=0.99&res=raw&since=-4h",
		fmt.Sprintf("family=h&since=%d&until=%d&res=1m", base.Unix(), base.Add(time.Hour).Unix()),
		"family=g&since=" + base.Format(time.RFC3339) + "&res=10m", "family=g&res=auto&since=-30h",
		"", "family=g&quantile=1", "family=g&step=0s", "family=g&match=path", "family=g&res=5m",
		"family=g&since=-1m&until=-2m", "family=g&since=1700000000000000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest("GET", "/metrics/history", nil)
		req.URL.RawQuery = query
		_, parseErr := ParseQuery(req)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == 400 && parseErr != nil, rec.Code == 500 && parseErr == nil:
			return
		case rec.Code != 200 || parseErr != nil:
			t.Fatalf("?%s: status %d, ParseQuery error %v", query, rec.Code, parseErr)
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		var res QueryResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("?%s: body does not decode: %v", query, err)
		}
		if res.Family == "" || res.StepS < 1 || s.levelByName(res.Resolution) == nil {
			t.Fatalf("?%s: result %+v", query, res)
		}
		if (res.Kind == "") != (len(res.Series) == 0) {
			t.Fatalf("?%s: kind %q with %d series", query, res.Kind, len(res.Series))
		}
		for _, sr := range res.Series {
			for i := 1; i < len(sr.Points); i++ {
				if sr.Points[i].T <= sr.Points[i-1].T {
					t.Fatalf("?%s: points out of order: %+v", query, sr.Points)
				}
			}
		}
	})
}
