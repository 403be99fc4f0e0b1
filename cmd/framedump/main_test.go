package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// appendRecords writes n records into a frame log in dir that fsyncs every
// append, leaving it open.
func appendRecords(t *testing.T, dir string, n int) *framelog.Log {
	t.Helper()
	cfg := framelog.DefaultConfig(dir)
	cfg.Fsync = framelog.FsyncAlways
	l, err := framelog.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(uint64(i+1), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestLogSummaryVerifiesCRCs: a closed capture and one whose writer never
// closed it (a crashed daemon) both summarize with every record counted
// and verified; a flipped byte in a record is an error.
func TestLogSummaryVerifiesCRCs(t *testing.T) {
	const n = 12
	closed := t.TempDir()
	if err := appendRecords(t, closed, n).Close(); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	appendRecords(t, crashed, n) // never closed: the newest segment is unsealed
	for _, dir := range []string{closed, crashed} {
		var out bytes.Buffer
		if err := dumpLogSummary(&out, dir); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if want := fmt.Sprintf("total: 1 segments, %d records, seq [1..%d]", n, n); !strings.Contains(out.String(), want) ||
			!strings.Contains(out.String(), "all record CRCs verified") {
			t.Errorf("summary of %s:\n%s\nwant %q, all CRCs verified", dir, out.String(), want)
		}
	}

	segs, err := framelog.ListSegments(closed)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0].Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dumpLogSummary(new(bytes.Buffer), closed); err == nil {
		t.Error("a corrupt record passed the summary")
	}
}
