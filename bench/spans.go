package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer.  Start and End are offsets from the recorder's origin.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	ReqID  uint64
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one finished span and returns its id.
func (r *recorder) add(name string, start, end time.Time, parent int, reqID uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, ReqID: reqID,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
	return id
}

// setEnd closes a span that was opened before its children were known.
func (r *recorder) setEnd(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.origin)
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName returns the median self time of the spans of each name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	out := make(map[string]time.Duration, len(byName))
	for name, v := range byName {
		out[name] = time.Duration(median(v))
	}
	return out
}

// writePerfetto writes the spans as Chrome/Perfetto trace-event JSON:
// complete ("X") events, one track per request id modulo 64 so concurrent
// requests do not stack on one line.
func writePerfetto(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.ReqID % 64,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "request": s.ReqID},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
