package flightrec

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestRecorderSequenceAndWrap(t *testing.T) {
	r := New(Config{})
	const n = RingSize + 6
	for i := 1; i <= n; i++ {
		r.Record(Event{Source: "acqserver", Outcome: "OK", ReqID: uint64(i)})
	}
	if r.LastSeq() != n {
		t.Fatalf("LastSeq = %d, want %d", r.LastSeq(), n)
	}
	evs := r.Snapshot(Filter{})
	if len(evs) != RingSize {
		t.Fatalf("ring of %d holds %d events after %d records", RingSize, len(evs), n)
	}
	// Oldest first, and only the newest generation survives the wrap.
	for i, e := range evs {
		if want := uint64(n - RingSize + 1 + i); e.Seq != want || e.ReqID != want {
			t.Fatalf("event %d = seq %d req %d, want %d", i, e.Seq, e.ReqID, want)
		}
	}
}

func TestRecorderStamps(t *testing.T) {
	r := New(Config{})
	start := time.Now().Add(-50 * time.Millisecond)
	r.Record(Event{Source: "acqserver", Outcome: "OK", Start: start})
	e := r.Snapshot(Filter{})[0]
	if e.UnixNano == 0 {
		t.Fatal("UnixNano not stamped")
	}
	if e.TotalNs < (40 * time.Millisecond).Nanoseconds() {
		t.Fatalf("TotalNs = %d, want ≥40ms derived from Start", e.TotalNs)
	}
	long := make([]byte, 2*maxDetailLen)
	for i := range long {
		long[i] = 'x'
	}
	r.Record(Event{Outcome: "INTERNAL", Detail: string(long)})
	evs := r.Snapshot(Filter{Outcome: "internal"})
	if len(evs) != 1 || len(evs[0].Detail) != maxDetailLen {
		t.Fatalf("detail not truncated to %d: %d events, len %d", maxDetailLen, len(evs), len(evs[0].Detail))
	}
}

func TestSnapshotFilter(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 10; i++ {
		out := "OK"
		if i%2 == 1 {
			out = "RESOURCE_EXHAUSTED"
		}
		r.Record(Event{Source: "acqserver", Outcome: out, TotalNs: int64(i) * int64(time.Millisecond)})
	}
	r.Record(Event{Source: "gateway", Outcome: "OK"})

	if got := len(r.Snapshot(Filter{Outcome: "resource_exhausted"})); got != 5 {
		t.Fatalf("outcome filter kept %d, want 5", got)
	}
	if got := len(r.Snapshot(Filter{Source: "gateway"})); got != 1 {
		t.Fatalf("source filter kept %d, want 1", got)
	}
	if got := len(r.Snapshot(Filter{MinTotal: 5 * time.Millisecond})); got != 5 {
		t.Fatalf("min-total filter kept %d, want 5 (5..9 ms)", got)
	}
	if got := len(r.Snapshot(Filter{SinceSeq: 9})); got != 2 {
		t.Fatalf("since-seq filter kept %d, want 2", got)
	}
	if got := r.Snapshot(Filter{Limit: 3}); len(got) != 3 || got[2].Seq != 11 {
		t.Fatalf("limit filter = %d events ending at seq %d, want 3 ending at 11", len(got), got[len(got)-1].Seq)
	}
}

func TestRecorderNil(t *testing.T) {
	var r *Recorder
	r.Record(Event{Outcome: "OK"})
	if r.LastSeq() != 0 || r.Snapshot(Filter{}) != nil {
		t.Fatal("nil recorder must read empty")
	}
	if path, err := r.Dump("x"); path != "" || err != nil {
		t.Fatalf("nil Dump = (%q, %v), want no-op", path, err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != 200 {
		t.Fatalf("nil handler status %d", rec.Code)
	}
	var resp eventsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count != 0 {
		t.Fatalf("nil handler body: %v %+v", err, resp)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	// 8 writers record 4×RingSize events, so the ring wraps several times
	// while the readers, which snapshot until the writers finish, load
	// slots being overwritten.
	r := New(Config{})
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < RingSize/2; i++ {
				r.Record(Event{Source: "acqserver", Outcome: "OK", Session: uint64(g)})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, e := range r.Snapshot(Filter{}) {
					if e.Seq == 0 || e.Outcome != "OK" {
						panic(fmt.Sprintf("torn event: %+v", e))
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if want := uint64(8 * (RingSize / 2)); r.LastSeq() != want {
		t.Fatalf("LastSeq = %d, want %d", r.LastSeq(), want)
	}
}

func TestDumpAndRetention(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	r := New(Config{DumpDir: dir, Metrics: reg})
	r.Record(Event{Source: "acqserver", Outcome: "OK", TraceID: "0000000000000abc"})

	path, err := r.Dump("degraded")
	if err != nil || path == "" {
		t.Fatalf("Dump = (%q, %v)", path, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d dumpFile
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "degraded" || d.LastSeq != 1 || len(d.Events) != 1 || d.Events[0].TraceID != "0000000000000abc" {
		t.Fatalf("dump content %+v", d)
	}

	// Retention: reasons of different lengths must still prune oldest-first.
	for i := 0; i < dumpRetain; i++ {
		time.Sleep(time.Millisecond) // distinct unixnano stamps
		r.lastDump.Store(0)          // past the rate limit
		if _, err := r.Dump(fmt.Sprintf("p%d-longer-reason", i)); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if len(matches) != dumpRetain {
		t.Fatalf("retention kept %d dumps, want %d: %v", len(matches), dumpRetain, matches)
	}
	// The survivors must be the newest ones.
	for _, m := range matches {
		if filepath.Base(m) == filepath.Base(path) {
			t.Fatalf("oldest dump %s survived retention", path)
		}
	}
}

func TestDumpRateLimit(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{DumpDir: dir})
	r.Record(Event{Outcome: "OK"})
	if path, _ := r.Dump("first"); path == "" {
		t.Fatal("first dump skipped")
	}
	if path, err := r.Dump("second"); path != "" || err != nil {
		t.Fatalf("second dump inside the interval = (%q, %v), want skipped", path, err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "flightrec-*.json"))
	if len(matches) != 1 {
		t.Fatalf("%d dumps on disk, want 1", len(matches))
	}
}

func TestHandlerQueries(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 6; i++ {
		out := "OK"
		if i == 5 {
			out = "INTERNAL"
		}
		r.Record(Event{Source: "acqserver", Outcome: out, TotalNs: int64(i+1) * int64(time.Millisecond)})
	}
	h := r.Handler()

	get := func(query string) eventsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events"+query, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", query, rec.Code, rec.Body.String())
		}
		var resp eventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return resp
	}

	if resp := get(""); resp.LastSeq != 6 || resp.Count != 6 {
		t.Fatalf("unfiltered = %+v", resp)
	}
	if resp := get("?outcome=internal"); resp.Count != 1 || resp.Events[0].Seq != 6 {
		t.Fatalf("outcome query = %+v", resp)
	}
	if resp := get("?since=4"); resp.Count != 2 {
		t.Fatalf("since-seq query = %+v", resp)
	}
	if resp := get("?since=30s"); resp.Count != 6 {
		t.Fatalf("since-duration query = %+v", resp)
	}
	if resp := get("?min_ms=4"); resp.Count != 3 {
		t.Fatalf("min_ms query = %+v", resp)
	}
	if resp := get("?limit=2"); resp.Count != 2 || resp.Events[1].Seq != 6 {
		t.Fatalf("limit query = %+v", resp)
	}
	for _, bad := range []string{"?since=nope", "?min_ms=-1", "?limit=x"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events"+bad, nil))
		if rec.Code != 400 {
			t.Fatalf("GET %s: status %d, want 400", bad, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/events", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}
