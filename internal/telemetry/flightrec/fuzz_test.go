// fuzz_test.go: FuzzEventsQuery throws arbitrary query strings at the
// /debug/events handler over a ring that has wrapped.  It demands no
// panic, a 200 or a 400 and nothing else, a 200 body that decodes to the
// documented document, and never more events than the ring holds.
package flightrec

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func FuzzEventsQuery(f *testing.F) {
	r := New(Config{})
	outcomes := []string{"OK", "INTERNAL", "RESOURCE_EXHAUSTED"}
	sources := []string{"acqserver", "gateway"}
	for i := 0; i < RingSize+10; i++ {
		r.Record(Event{
			Source:  sources[i%len(sources)],
			Outcome: outcomes[i%len(outcomes)],
			TotalNs: int64(i%50) * int64(time.Millisecond),
			ReqID:   uint64(i),
		})
	}
	h := r.Handler()
	for _, seed := range []string{
		"", "since=4000", "since=30s", "since=-1s", "since=nope", "outcome=internal",
		"min_ms=12.5", "min_ms=-1", "min_ms=NaN", "source=gateway&limit=3", "limit=0",
		"limit=x", "since=1&outcome=ok&min_ms=1&source=acqserver&limit=9999", "%zz&limit=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest("GET", "/debug/events", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case 400:
			return
		case 200:
		default:
			t.Fatalf("?%s: status %d", query, rec.Code)
		}
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		var resp eventsResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("?%s: body does not decode: %v", query, err)
		}
		if resp.Count != len(resp.Events) || resp.Count > RingSize || resp.LastSeq != r.LastSeq() {
			t.Fatalf("?%s: count %d of %d events, last seq %d", query, resp.Count, len(resp.Events), resp.LastSeq)
		}
		for i, e := range resp.Events {
			if e.Seq == 0 || e.Seq > resp.LastSeq || (i > 0 && e.Seq <= resp.Events[i-1].Seq) {
				t.Fatalf("?%s: event %d has seq %d out of order", query, i, e.Seq)
			}
		}
	})
}
