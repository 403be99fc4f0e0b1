// fuzz_test.go: FuzzChunkRead throws arbitrary bytes at the chunk
// scanner — the code path crash recovery and every history query trust —
// after recomputing each record's CRC, so mutations get past the checksum
// and reach the series-def and batch decoders.  It demands the scan never
// panics and never verifies more bytes than the file holds, and that
// recovery heals the file into one whose rescan yields the same batches.
// The corpus is seeded with real chunks — sealed, torn and bit-flipped —
// so coverage starts from the formats recovery actually sees.
package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seglog"
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
		s, err := Open(DefaultConfig(dir))
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
