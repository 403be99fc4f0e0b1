// Package trace is the span-tree tracer of the observability layer: the
// per-frame complement to the metric Registry of internal/telemetry.
// Where counters and histograms aggregate (how many frames, what p99), a
// trace attributes ONE frame's latency to the stages it crossed — socket
// read, shard-queue wait, worker dispatch, the modeled FPGA
// capture/accumulate/FHT stages, the XD1 DMA cost model, CPU decode,
// response write — as a tree of timed spans sharing a trace ID.
//
// Design rules mirror the metrics core:
//
//   - A nil *Tracer (and the zero Span obtained from one) is a true no-op:
//     un-instrumented callers pay a nil check per span site and zero
//     allocations, so the serving hot path can be wired unconditionally
//     (BenchmarkTraceOverhead holds the disabled path under 10 ns/op).
//   - Recording is cheap and unconditional once a tracer is installed;
//     every completed trace is kept in one overwrite-oldest ring of the
//     newest RingSize, so memory is bounded under any load.
//   - Spans may start and end on different goroutines (a queue-wait span
//     ends on the worker that dequeues the frame); the trace's span table
//     is guarded by one mutex, touched only at span boundaries.
//
// Completed traces are served live over HTTP (Tracer.Handler, mounted at
// /debug/traces by cmd/imsd) and exported as Chrome/Perfetto trace-event
// JSON (WritePerfetto, behind the -trace flag of imsd, imssim and
// imsload).  See docs/OBSERVABILITY.md for the span taxonomy.
package trace

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RingSize is how many completed traces a Tracer keeps: the newest.
const RingSize = 64

// MaxSpans bounds the spans recorded per trace; children beyond it are
// counted as dropped rather than recorded.
const MaxSpans = 64

// Tracer records span trees and keeps the newest RingSize completed ones.
// A nil *Tracer is valid everywhere: StartTrace returns the inert zero
// Span and every exporter serves empty documents.
type Tracer struct {
	idBase uint64
	idSeq  atomic.Uint64

	started  atomic.Uint64
	finished atomic.Uint64

	mu   sync.Mutex
	ring [RingSize]TraceSnapshot
	kept uint64 // traces ever added to ring
}

// New constructs a Tracer.
func New() *Tracer {
	return &Tracer{idBase: rand.Uint64() | 1}
}

// Stats are the tracer's lifetime counters.
type Stats struct {
	// Started counts StartTrace calls.
	Started uint64 `json:"started"`
	// Finished counts traces whose root span ended.
	Finished uint64 `json:"finished"`
	// Kept counts traces put in the ring (the ring holds the newest
	// RingSize of them).
	Kept uint64 `json:"kept"`
}

// Stats returns the lifetime counters (zero on a nil tracer).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	kept := t.kept
	t.mu.Unlock()
	return Stats{Started: t.started.Load(), Finished: t.finished.Load(), Kept: kept}
}

// attr is one recorded key/value; Str is used when IsStr, Int otherwise.
type attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// spanData is one recorded span inside a trace.
type spanData struct {
	name   string
	parent int32
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []attr
}

// traceData is one trace under construction.
type traceData struct {
	tracer *Tracer
	id     uint64
	start  time.Time

	mu       sync.Mutex
	spans    []spanData
	dropped  int
	finished bool
}

// Span is a handle on one span of one trace.  The zero Span is inert:
// every method is a no-op, Active reports false and TraceID is 0, so
// callers thread spans unconditionally.
type Span struct {
	t   *traceData
	idx int32
}

// StartTrace begins a new trace whose root span carries name.  A nonzero
// id adopts a caller-chosen trace ID (e.g. one carried on the IMSP/1
// wire); id 0 generates a fresh one.  On a nil tracer it returns the
// inert zero Span without reading the clock.
func (t *Tracer) StartTrace(name string, id uint64) Span {
	if t == nil {
		return Span{}
	}
	return t.startTrace(name, id)
}

// startTrace is StartTrace on a live tracer, kept out of line so the nil
// check inlines into every call site.
func (t *Tracer) startTrace(name string, id uint64) Span {
	t.started.Add(1)
	if id == 0 {
		id = t.idBase + t.idSeq.Add(1)
	}
	td := &traceData{tracer: t, id: id, start: time.Now()}
	td.spans = make([]spanData, 1, 8)
	td.spans[0] = spanData{name: name, parent: -1, start: td.start}
	return Span{t: td, idx: 0}
}

// Active reports whether the span records anything (false for the zero
// Span, true for every span of a live trace).
func (s Span) Active() bool { return s.t != nil }

// TraceID returns the trace ID the span belongs to (0 for the zero Span).
func (s Span) TraceID() uint64 {
	if s.t == nil {
		return 0
	}
	return s.t.id
}

// Child begins a child span starting now.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.childAt(name, time.Time{})
}

// ChildAt begins a child span with an explicit start time — the hook used
// by modeled stages (FPGA capture, XD1 DMA) to lay synthetic durations
// end to end along a wall-clock cursor.
func (s Span) ChildAt(name string, start time.Time) Span {
	if s.t == nil {
		return Span{}
	}
	return s.childAt(name, start)
}

// childAt appends a child span starting at start (zero: now).
func (s Span) childAt(name string, start time.Time) Span {
	if start.IsZero() {
		start = time.Now()
	}
	td := s.t
	td.mu.Lock()
	defer td.mu.Unlock()
	if len(td.spans) >= MaxSpans {
		td.dropped++
		return Span{}
	}
	td.spans = append(td.spans, spanData{name: name, parent: s.idx, start: start})
	return Span{t: td, idx: int32(len(td.spans) - 1)}
}

// SetInt attaches an integer attribute (shard, worker, frame bytes, PRS
// order) to the span.
func (s Span) SetInt(key string, v int64) {
	if s.t != nil {
		s.t.addAttr(s.idx, attr{Key: key, Int: v})
	}
}

// SetStr attaches a string attribute (path, stage, status code) to the
// span.
func (s Span) SetStr(key, v string) {
	if s.t != nil {
		s.t.addAttr(s.idx, attr{Key: key, Str: v, IsStr: true})
	}
}

// addAttr appends an attribute to span i.
func (td *traceData) addAttr(i int32, a attr) {
	td.mu.Lock()
	td.spans[i].attrs = append(td.spans[i].attrs, a)
	td.mu.Unlock()
}

// End closes the span at the current wall clock.  Ending the root span
// completes the trace and puts it in the tracer's ring; ending a span
// twice is a no-op.
func (s Span) End() {
	if s.t != nil {
		s.endWith(-1)
	}
}

// EndAfter closes the span with an explicit duration — the modeled-stage
// counterpart of End, for spans whose length comes from a cost model
// rather than the wall clock.
func (s Span) EndAfter(d time.Duration) {
	if s.t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.endWith(d)
}

// endWith closes the span after d (negative: the wall clock since its
// start).
func (s Span) endWith(d time.Duration) {
	td := s.t
	td.mu.Lock()
	sp := &td.spans[s.idx]
	if sp.ended {
		td.mu.Unlock()
		return
	}
	if d < 0 {
		d = time.Since(sp.start)
	}
	sp.ended = true
	sp.dur = d
	root := s.idx == 0 && !td.finished
	if root {
		td.finished = true
	}
	td.mu.Unlock()
	if root {
		td.tracer.finishTrace(td)
	}
}

// finishTrace puts a completed trace in the ring, overwriting the oldest.
func (t *Tracer) finishTrace(td *traceData) {
	t.finished.Add(1)
	snap := td.snapshot()
	t.mu.Lock()
	t.ring[t.kept%RingSize] = snap
	t.kept++
	t.mu.Unlock()
}

// SpanSnapshot is one span of a retained trace.
type SpanSnapshot struct {
	// Name is the span name (see the taxonomy in docs/OBSERVABILITY.md).
	Name string `json:"name"`
	// Parent is the index of the parent span in the trace's span list
	// (-1 for the root).
	Parent int `json:"parent"`
	// StartOffsetNs is the span start relative to the trace start.
	StartOffsetNs int64 `json:"start_offset_ns"`
	// DurationNs is the span length (wall clock or modeled).
	DurationNs int64 `json:"duration_ns"`
	// Attrs are the span's attributes (int64 or string values).
	Attrs map[string]interface{} `json:"attrs,omitempty"`
}

// TraceSnapshot is one retained trace: an immutable copy taken at
// completion.
type TraceSnapshot struct {
	// ID is the trace ID (client-chosen or generated); JSON spells it as
	// 16 hex digits, as every other surface does.
	ID telemetry.TraceID `json:"id"`
	// Name is the root span's name.
	Name string `json:"name"`
	// Start is the trace's wall-clock start.
	Start time.Time `json:"start"`
	// DurationNs is the root span's length.
	DurationNs int64 `json:"duration_ns"`
	// DroppedSpans counts children discarded past MaxSpans.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// Spans lists every recorded span, root first.
	Spans []SpanSnapshot `json:"spans"`
}

// snapshot copies the trace into its immutable exported form.
func (td *traceData) snapshot() TraceSnapshot {
	td.mu.Lock()
	defer td.mu.Unlock()
	out := TraceSnapshot{
		ID:           telemetry.TraceID(td.id),
		Name:         td.spans[0].name,
		Start:        td.start,
		DurationNs:   td.spans[0].dur.Nanoseconds(),
		DroppedSpans: td.dropped,
		Spans:        make([]SpanSnapshot, len(td.spans)),
	}
	for i, sp := range td.spans {
		ss := SpanSnapshot{
			Name:          sp.name,
			Parent:        int(sp.parent),
			StartOffsetNs: sp.start.Sub(td.start).Nanoseconds(),
			DurationNs:    sp.dur.Nanoseconds(),
		}
		if len(sp.attrs) > 0 {
			ss.Attrs = make(map[string]interface{}, len(sp.attrs))
			for _, a := range sp.attrs {
				if a.IsStr {
					ss.Attrs[a.Key] = a.Str
				} else {
					ss.Attrs[a.Key] = a.Int
				}
			}
		}
		out.Spans[i] = ss
	}
	return out
}

// Snapshot returns the traces in the ring, oldest first.  A nil tracer
// returns nil.
func (t *Tracer) Snapshot() []TraceSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(t.kept, RingSize)
	out := make([]TraceSnapshot, 0, n)
	for i := t.kept - n; i < t.kept; i++ {
		out = append(out, t.ring[i%RingSize])
	}
	return out
}
