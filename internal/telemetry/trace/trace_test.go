package trace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestSpanTreeShape(t *testing.T) {
	tr := New()
	root := tr.StartTrace("frame", 42)
	if !root.Active() || root.TraceID() != 42 {
		t.Fatalf("root not active or wrong id %d", root.TraceID())
	}
	root.SetInt("frame_bytes", 1024)
	root.SetStr("path", "hybrid")
	read := root.Child("socket_read")
	read.End()
	q := root.Child("queue_wait")
	q.End()
	w := root.Child("worker")
	fht := w.ChildAt("fpga_fht", time.Now())
	fht.EndAfter(3 * time.Millisecond)
	w.End()
	root.End()

	kept := tr.Snapshot()
	if len(kept) != 1 {
		t.Fatalf("kept %d traces, want 1", len(kept))
	}
	snap := kept[0]
	if snap.ID != 42 || snap.Name != "frame" || len(snap.Spans) != 5 {
		t.Fatalf("snapshot %+v", snap)
	}
	byName := map[string]SpanSnapshot{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if byName["socket_read"].Parent != 0 || byName["worker"].Parent != 0 {
		t.Error("direct children must have parent index 0")
	}
	if got := byName["fpga_fht"]; got.Parent != 4-1 || got.DurationNs != 3e6 {
		t.Errorf("fpga_fht parent %d dur %d", got.Parent, got.DurationNs)
	}
	if snap.Spans[0].Attrs["frame_bytes"] != int64(1024) || snap.Spans[0].Attrs["path"] != "hybrid" {
		t.Errorf("root attrs %+v", snap.Spans[0].Attrs)
	}
	st := tr.Stats()
	if st.Started != 1 || st.Finished != 1 || st.Kept != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New()
	const n = RingSize + 6
	for i := 1; i <= n; i++ {
		tr.StartTrace("t", uint64(i)).End()
	}
	kept := tr.Snapshot()
	if len(kept) != RingSize {
		t.Fatalf("ring holds %d, want %d", len(kept), RingSize)
	}
	for i, tr := range kept {
		if want := telemetry.TraceID(n - RingSize + 1 + i); tr.ID != want {
			t.Errorf("ring[%d] = trace %d, want %d (oldest-first)", i, tr.ID, want)
		}
	}
	if st := tr.Stats(); st.Kept != n {
		t.Errorf("stats %+v, want kept %d", st, n)
	}
}

func TestMaxSpansDropped(t *testing.T) {
	tr := New()
	root := tr.StartTrace("frame", 0)
	for i := 0; i < MaxSpans+6; i++ {
		c := root.Child("extra")
		c.End() // zero Span after the cap: must not panic
	}
	root.End()
	kept := tr.Snapshot()
	if len(kept) != 1 || len(kept[0].Spans) != MaxSpans || kept[0].DroppedSpans != 7 {
		t.Fatalf("spans %d dropped %d", len(kept[0].Spans), kept[0].DroppedSpans)
	}
}

func TestContextPlumbing(t *testing.T) {
	if s := SpanFromContext(context.Background()); s.Active() {
		t.Error("empty context yielded an active span")
	}
	ctx := ContextWithSpan(context.Background(), Span{})
	if ctx != context.Background() {
		t.Error("zero span must not allocate a context")
	}
	tr := New()
	root := tr.StartTrace("frame", 7)
	ctx = ContextWithSpan(context.Background(), root)
	got := SpanFromContext(ctx)
	if !got.Active() || got.TraceID() != 7 {
		t.Errorf("span did not round-trip the context: %+v", got)
	}
}

func TestCrossGoroutineSpans(t *testing.T) {
	tr := New()
	const traces = 32
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		root := tr.StartTrace("frame", 0)
		q := root.Child("queue_wait")
		wg.Add(1)
		go func() { // the worker side: end the queue span, add children, finish
			defer wg.Done()
			q.End()
			w := root.Child("worker")
			w.SetInt("shard", 1)
			w.End()
			root.End()
		}()
	}
	wg.Wait()
	if st := tr.Stats(); st.Finished != traces {
		t.Errorf("finished %d of %d", st.Finished, traces)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	s := tr.StartTrace("frame", 9)
	if s.Active() || s.TraceID() != 0 {
		t.Error("nil tracer returned an active span")
	}
	s.SetInt("k", 1)
	s.SetStr("k", "v")
	c := s.Child("x")
	c.EndAfter(time.Second)
	s.End()
	if kept := tr.Snapshot(); kept != nil {
		t.Error("nil tracer retained traces")
	}
	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "traceEvents") {
		t.Errorf("nil tracer Perfetto doc: %q", sb.String())
	}
}

func TestPerfettoExport(t *testing.T) {
	tr := New()
	root := tr.StartTrace("frame", 0xbeef)
	root.Child("socket_read").End()
	dma := root.ChildAt("xd1_dma_in", time.Now())
	dma.SetInt("bytes", 4096)
	dma.EndAfter(time.Millisecond)
	root.End()

	var sb strings.Builder
	if err := tr.WritePerfetto(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
		if e.Name == "xd1_dma_in" {
			if e.Ph != "X" || e.Dur != 1000 {
				t.Errorf("dma event %+v", e)
			}
			if e.Args["trace_id"] != "000000000000beef" || e.Args["bytes"] != float64(4096) {
				t.Errorf("dma args %+v", e.Args)
			}
		}
	}
	for _, want := range []string{"thread_name", "frame", "socket_read", "xd1_dma_in"} {
		if !names[want] {
			t.Errorf("missing event %q", want)
		}
	}
}

func TestHandler(t *testing.T) {
	tr := New()
	tr.StartTrace("frame", 5).End()
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Stats struct {
			Finished uint64 `json:"finished"`
			Kept     uint64 `json:"kept"`
		} `json:"stats"`
		Traces []TraceSnapshot `json:"traces"`
	}
	if !strings.Contains(rec.Body.String(), `"id": "0000000000000005"`) {
		t.Errorf("trace id not spelled in hex: %s", rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if doc.Stats.Finished != 1 || doc.Stats.Kept != 1 || len(doc.Traces) != 1 ||
		doc.Traces[0].ID != 5 || len(doc.Traces[0].Spans) != 1 {
		t.Errorf("doc %+v", doc)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", nil))
	if rec.Code != 405 {
		t.Errorf("POST status %d", rec.Code)
	}

	var nilTracer *Tracer
	rec = httptest.NewRecorder()
	nilTracer.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"traces": []`) {
		t.Errorf("nil handler: %d %q", rec.Code, rec.Body.String())
	}
}

// BenchmarkTraceOverhead proves the disabled-path contract: with no
// tracer installed, every span site — StartTrace, context lookup, Child,
// attrs, End — must cost nil checks only (<10 ns/op, zero allocations).
// The enabled case runs the tracer the daemons run: every completed trace
// is snapshotted into the ring.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var tr *Tracer
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := tr.StartTrace("frame", 0)
			s := SpanFromContext(ctx)
			c := s.Child("worker")
			c.SetInt("shard", 1)
			c.End()
			root.End()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tr := New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			root := tr.StartTrace("frame", 0)
			c := root.Child("worker")
			c.SetInt("shard", 1)
			c.End()
			root.End()
		}
	})
}
