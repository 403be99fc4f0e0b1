// golden_test.go: on-disk compatibility.  testdata holds one sealed and
// one torn chunk written by an earlier build of this package, with fixed
// timestamps; every later build must open, recover and query them, and
// its chunk writer must reproduce the sealed one byte for byte.
package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// goldenT0 stamps the golden chunks' first batch; batches follow a second
// apart.
const goldenT0 = int64(1_760_000_000_000_000_000)

// goldenSeries are the golden chunks' series, by id.
var goldenSeries = []Series{
	{Family: "g", Kind: telemetry.KindGauge, Labels: []telemetry.Label{telemetry.L("path", "cpu")}},
	{Family: "c", Kind: telemetry.KindCounter},
	{Family: "h", Kind: telemetry.KindHistogram},
}

// goldenBatch is batch i of the golden chunks: a gauge, a counter
// increase and a histogram delta, all derived from i.
func goldenBatch(i int) []Sample {
	gv := math.Sin(float64(i)/3) * 100
	var hp Point
	hp.HCount = int64(i%3 + 1)
	hp.HSum = float64(i) * 1.5
	hp.HBuckets[(5*i)%telemetry.NumBuckets] = hp.HCount
	return []Sample{
		{SeriesID: 0, Point: Point{Count: 1, Min: gv, Max: gv, Sum: gv}},
		{SeriesID: 1, Point: Point{Count: 1, Min: 2, Max: 2, Sum: float64(i)}},
		{SeriesID: 2, Point: hp},
	}
}

// writeGoldenChunk writes batches 0..n-1 into a fresh chunk in dir and
// seals it (or, unsealed, abandons it as a crash would), returning its
// path.
func writeGoldenChunk(t testing.TB, dir string, n int, seal bool) string {
	t.Helper()
	w, err := createChunk(dir, goldenT0)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(id uint32) (Series, bool) { return goldenSeries[id], int(id) < len(goldenSeries) }
	for i := 0; i < n; i++ {
		if err := w.appendBatch(goldenT0+int64(i)*int64(time.Second), goldenBatch(i), lookup); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		err = w.seal()
	} else {
		err = w.abort()
	}
	if err != nil {
		t.Fatal(err)
	}
	return w.path
}

// The golden files: six batches sealed, and six batches unsealed with the
// last one torn (its final 5 bytes missing).
const (
	goldenSealed = "testdata/sealed.chk"
	goldenTorn   = "testdata/torn.chk"
)

func readGolden(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenWriterReproducesChunk: the chunk writer rebuilds the sealed
// golden byte for byte, and the torn golden is its unsealed twin cut
// short.
func TestGoldenWriterReproducesChunk(t *testing.T) {
	got := readGolden(t, writeGoldenChunk(t, t.TempDir(), 6, true))
	if want := readGolden(t, goldenSealed); !bytes.Equal(got, want) {
		t.Fatalf("sealed chunk: writer gives %d bytes, golden has %d (or contents differ)", len(got), len(want))
	}
	unsealed := readGolden(t, writeGoldenChunk(t, t.TempDir(), 6, false))
	if want := readGolden(t, goldenTorn); !bytes.Equal(unsealed[:len(unsealed)-5], want) {
		t.Fatalf("torn chunk: writer gives %d bytes before the tear, golden has %d (or contents differ)", len(unsealed)-5, len(want))
	}
}

// TestGoldenChunksRecover opens a store over each golden chunk and
// queries back every intact batch; recovery must heal the torn one into
// exactly the chunk the writer seals over its five whole batches.
func TestGoldenChunksRecover(t *testing.T) {
	for _, tc := range []struct {
		golden  string
		batches int
	}{{goldenSealed, 6}, {goldenTorn, 5}} {
		dir := t.TempDir()
		path := filepath.Join(dir, ResRaw, fmt.Sprintf("chunk-%020d.chk", goldenT0))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, readGolden(t, tc.golden), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		since := time.Unix(0, goldenT0)
		for _, fam := range []string{"g", "c", "h"} {
			res, err := s.Query(QueryOptions{Family: fam, Since: since, Until: since.Add(time.Minute), Step: time.Second, Resolution: ResRaw})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) != 1 || len(res.Series[0].Points) != tc.batches {
				t.Fatalf("%s: family %s: %+v, want one series with %d points", tc.golden, fam, res.Series, tc.batches)
			}
			for i, p := range res.Series[0].Points {
				want := goldenBatch(i)
				switch fam {
				case "g":
					if p.Value != want[0].Point.Sum || p.Min != want[0].Point.Min || p.Count != 1 {
						t.Fatalf("%s: gauge point %d = %+v, want %v", tc.golden, i, p, want[0].Point.Sum)
					}
				case "c":
					if p.Value != want[1].Point.Sum {
						t.Fatalf("%s: counter point %d = %+v, want %v", tc.golden, i, p, want[1].Point.Sum)
					}
				case "h":
					if p.Count != want[2].Point.HCount || p.Value != want[2].Point.HSum/float64(want[2].Point.HCount) {
						t.Fatalf("%s: histogram point %d = %+v, want %+v", tc.golden, i, p, want[2].Point)
					}
				}
				if p.T != (goldenT0+int64(i)*int64(time.Second))/int64(time.Second) {
					t.Fatalf("%s: point %d at t=%d", tc.golden, i, p.T)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got := readGolden(t, path)
		if want := readGolden(t, writeGoldenChunk(t, t.TempDir(), tc.batches, true)); !bytes.Equal(got, want) {
			t.Fatalf("%s after recovery: %d bytes, want the sealed %d-batch chunk (%d bytes)", tc.golden, len(got), tc.batches, len(want))
		}
	}
}
