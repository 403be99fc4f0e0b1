// http.go: the recorder's query surface — /debug/events.  An operator
// chasing an exemplar or a burn-rate alarm filters the
// ring live: ?since=SEQ (or a duration like 30s), ?outcome=CODE,
// ?min_ms=N, ?source=TIER, ?limit=N.
package flightrec

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// eventsResponse is the /debug/events JSON document.
type eventsResponse struct {
	// LastSeq is the newest sequence assigned at query time; pass it back
	// as ?since= to poll incrementally.
	LastSeq uint64 `json:"last_seq"`
	// Count is len(Events).
	Count int `json:"count"`
	// Events are the matching wide events, oldest first.
	Events []Event `json:"events"`
}

// Handler returns the /debug/events endpoint.  Query parameters:
//
//	since=N     events after sequence N (a bare integer), or newer than a
//	            Go duration ago (e.g. since=30s)
//	outcome=S   only events with this outcome code (case-insensitive)
//	min_ms=N    only events whose total duration is at least N milliseconds
//	source=S    only events from this tier ("acqserver", "gateway")
//	limit=N     newest N matching events (default 256, max the ring size)
//
// A nil recorder serves an empty (but well-formed) document, so the
// endpoint can be mounted unconditionally.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		f := Filter{Outcome: q.Get("outcome"), Source: q.Get("source"), Limit: 256}
		if s := q.Get("since"); s != "" {
			if seq, err := strconv.ParseUint(s, 10, 64); err == nil {
				f.SinceSeq = seq
			} else if d, err := time.ParseDuration(s); err == nil && d > 0 {
				f.Since = time.Now().Add(-d)
			} else {
				http.Error(w, "since: want a sequence number or a duration", http.StatusBadRequest)
				return
			}
		}
		if s := q.Get("min_ms"); s != "" {
			ms, err := strconv.ParseFloat(s, 64)
			if err != nil || ms < 0 {
				http.Error(w, "min_ms: want a non-negative number", http.StatusBadRequest)
				return
			}
			f.MinTotal = time.Duration(ms * float64(time.Millisecond))
		}
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "limit: want a non-negative integer", http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		resp := eventsResponse{LastSeq: r.LastSeq(), Events: r.Snapshot(f)}
		resp.Count = len(resp.Events)
		if resp.Events == nil {
			resp.Events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		if req.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}
