// export.go: the two ways retained traces leave the process — the
// Chrome/Perfetto trace-event JSON file written by the -trace flag of
// imsd/imssim/imsload, and the live /debug/traces HTTP endpoint the
// daemon mounts next to /metrics.
package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
)

// perfettoEvent is one Chrome trace-event: a complete ("X") slice or a
// metadata ("M") record naming a track.
type perfettoEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// perfettoFile is the top-level trace-event JSON object.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfetto serializes traces as Chrome trace-event JSON, loadable by
// ui.perfetto.dev or chrome://tracing.  Each trace becomes one track
// (tid) named after its trace ID; spans become complete ("X") events with
// their attributes under args.  Timestamps are rebased to the earliest
// trace start so the viewer opens at t≈0.
func WritePerfetto(w io.Writer, traces []TraceSnapshot) error {
	sorted := append([]TraceSnapshot(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	var out perfettoFile
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = []perfettoEvent{}
	var epoch int64
	if len(sorted) > 0 {
		epoch = sorted[0].Start.UnixNano()
	}
	for tid, tr := range sorted {
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]interface{}{"name": tr.Name + " " + tr.ID.String()},
		})
		base := tr.Start.UnixNano() - epoch
		for _, sp := range tr.Spans {
			args := map[string]interface{}{"trace_id": tr.ID.String(), "parent": sp.Parent}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: sp.Name,
				Ph:   "X",
				Ts:   float64(base+sp.StartOffsetNs) / 1e3,
				Dur:  float64(sp.DurationNs) / 1e3,
				Pid:  1,
				Tid:  tid,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WritePerfetto exports the ring's traces as Chrome trace-event JSON.  A
// nil tracer writes an empty, still-loadable document.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	return WritePerfetto(w, t.Snapshot())
}

// WriteFile dumps the retained traces as a Perfetto JSON file at path — what
// every -trace flag does on exit.  A nil tracer or an empty path writes
// nothing.
func (t *Tracer) WriteFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WritePerfetto(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// debugDoc is the /debug/traces response body.
type debugDoc struct {
	Stats  Stats           `json:"stats"`
	Traces []TraceSnapshot `json:"traces"`
}

// Handler returns the /debug/traces endpoint: a JSON document with the
// tracer's counters and the ring's traces, oldest first.  A nil tracer
// serves an empty (but well-formed) document, so the route can be mounted
// unconditionally.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		doc := debugDoc{Stats: t.Stats(), Traces: t.Snapshot()}
		if doc.Traces == nil {
			doc.Traces = []TraceSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		if req.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}
