package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Inc()
	c.Add(-3) // negative ignored: counters are monotone
	if got := c.Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	var nilC *Counter
	nilC.Add(1)
	nilC.Inc()
	if got := nilC.Value(); got != 0 {
		t.Errorf("nil counter = %d, want 0", got)
	}
	nilC.StartSpan().Stop() // must not panic or read the clock's result
}

func TestGaugeSemantics(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
	g.SetMax(1.0) // below current: no-op
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge after SetMax(1.0) = %g, want 1.5", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after SetMax(7) = %g, want 7", got)
	}
	var nilG *Gauge
	nilG.Set(3)
	nilG.Add(1)
	nilG.SetMax(9)
	if got := nilG.Value(); got != 0 {
		t.Errorf("nil gauge = %g, want 0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1, 0}, {math.NaN(), 0},
		{1.5, 1}, {2, 1}, {2.5, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11},
		{math.Ldexp(1, 50), NumBuckets - 1}, {math.Inf(1), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := BucketUpperBound(3); got != 8 {
		t.Errorf("BucketUpperBound(3) = %g, want 8", got)
	}
	if !math.IsInf(BucketUpperBound(NumBuckets-1), 1) {
		t.Error("last bucket bound should be +Inf")
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 3, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 1004 {
		t.Errorf("sum = %g, want 1004", got)
	}
	counts := h.Counts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != h.Count() {
		t.Errorf("bucket total %d != count %d", total, h.Count())
	}
	// p50 falls in the le=4 bucket: geometric midpoint of (2,4].
	if got, want := h.Quantile(0.5), math.Sqrt(2*4.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 || nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram should read as empty")
	}
	nilH.Start().Stop()
}

func TestQuantileOfCounts(t *testing.T) {
	var counts [NumBuckets]int64
	if got := QuantileOfCounts(counts, 0.5); got != 0 {
		t.Errorf("empty counts quantile = %g, want 0", got)
	}
	counts[0] = 10
	if got := QuantileOfCounts(counts, 0.99); got != 1 {
		t.Errorf("all-in-bucket-0 quantile = %g, want 1", got)
	}
	counts[NumBuckets-1] = 1000
	want := math.Ldexp(1, NumBuckets-2)
	if got := QuantileOfCounts(counts, 0.99); got != want {
		t.Errorf("overflow-bucket quantile = %g, want %g", got, want)
	}
}

func TestRegistryNil(t *testing.T) {
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "") != nil {
		t.Error("nil registry must hand out nil metric handles")
	}
	if n := len(r.Snapshot().Metrics); n != 0 {
		t.Errorf("nil registry snapshot has %d metrics, want 0", n)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil registry exposition = %q, want empty", sb.String())
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("events_total", "events", L("stage", "fht"), L("result", "ok"))
	// Same label set in a different order must resolve to the same instance.
	b := r.Counter("events_total", "events", L("result", "ok"), L("stage", "fht"))
	if a != b {
		t.Error("label order changed the instance identity")
	}
	c := r.Counter("events_total", "events", L("stage", "dma"))
	if a == c {
		t.Error("distinct label sets must be distinct instances")
	}
	a.Add(2)
	c.Add(5)
	s := r.Snapshot()
	if len(s.Metrics) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(s.Metrics))
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("depth", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("depth", "")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("peak", "")
	h := r.Histogram("lat_ns", "")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(float64(w*per + i))
				h.Observe(float64(i%100 + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != float64(workers*per-1) {
		t.Errorf("gauge peak = %g, want %d", got, workers*per-1)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	c := r.Counter("n_total", "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i%1000 + 1))
				c.Inc()
			}
		}
	}()
	var lastCount int64 = -1
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		for _, m := range s.Metrics {
			switch m.Kind {
			case "histogram":
				var total int64
				for _, b := range m.Buckets {
					total += b.Count
				}
				if total != m.Count {
					t.Fatalf("snapshot histogram count %d != bucket total %d", m.Count, total)
				}
			case "counter":
				if *m.Value < float64(lastCount) {
					t.Fatalf("counter went backwards: %g < %d", *m.Value, lastCount)
				}
				lastCount = int64(*m.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// goldenRegistry builds the small fixed registry behind both exposition
// golden tests.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Gauge("app_depth", "queue depth", L("stage", "fht")).Set(2.5)
	r.Counter("app_events_total", "events").Add(3)
	h := r.Histogram("app_lat_ns", "latency")
	for _, v := range []float64{1, 3, 1000} {
		h.Observe(v)
	}
	return r
}

func TestGoldenPrometheus(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_depth queue depth
# TYPE app_depth gauge
app_depth{stage="fht"} 2.5
# HELP app_events_total events
# TYPE app_events_total counter
app_events_total 3
# HELP app_lat_ns latency
# TYPE app_lat_ns histogram
app_lat_ns_bucket{le="1"} 1
app_lat_ns_bucket{le="4"} 2
app_lat_ns_bucket{le="1024"} 3
app_lat_ns_bucket{le="+Inf"} 3
app_lat_ns_sum 1004
app_lat_ns_count 3
app_lat_ns_p50 2.8284271247461903
app_lat_ns_p95 724.0773439350247
app_lat_ns_p99 724.0773439350247
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestGoldenJSON(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
  "metrics": [
    {
      "name": "app_depth",
      "kind": "gauge",
      "help": "queue depth",
      "labels": {
        "stage": "fht"
      },
      "value": 2.5
    },
    {
      "name": "app_events_total",
      "kind": "counter",
      "help": "events",
      "value": 3
    },
    {
      "name": "app_lat_ns",
      "kind": "histogram",
      "help": "latency",
      "count": 3,
      "sum": 1004,
      "p50": 2.8284271247461903,
      "p95": 724.0773439350247,
      "p99": 724.0773439350247,
      "buckets": [
        {
          "le": "1",
          "count": 1
        },
        {
          "le": "4",
          "count": 1
        },
        {
          "le": "1024",
          "count": 1
        }
      ]
    }
  ]
}
`
	if sb.String() != want {
		t.Errorf("JSON mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// BenchmarkTelemetryOverhead proves the nil-registry wiring contract: the
// un-instrumented path must cost a nil check and nothing else (<5 ns/op,
// zero allocations).
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var r *Registry
		c := r.Counter("x_total", "")
		g := r.Gauge("x", "")
		h := r.Histogram("x_ns", "")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.SetMax(float64(i))
			h.Observe(float64(i))
			h.Start().Stop()
		}
	})
	b.Run("live", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("x_total", "")
		g := r.Gauge("x", "")
		h := r.Histogram("x_ns", "")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.SetMax(float64(i))
			h.Observe(float64(i))
		}
	})
}

func TestTraceIDString(t *testing.T) {
	cases := []struct {
		id   TraceID
		want string
	}{
		{0, ""},
		{0xabc, "0000000000000abc"},
		{0xdeadbeefcafe0123, "deadbeefcafe0123"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("TraceID(%#x).String() = %q, want %q", uint64(c.id), got, c.want)
		}
		if got := c.id.LogValue().String(); got != c.want {
			t.Errorf("TraceID(%#x).LogValue() = %q, want %q", uint64(c.id), got, c.want)
		}
		var back TraceID
		if text, _ := c.id.MarshalText(); back.UnmarshalText(text) != nil || back != c.id {
			t.Errorf("TraceID(%#x) text round trip = %#x", uint64(c.id), uint64(back))
		}
	}
	var bad TraceID
	if err := bad.UnmarshalText([]byte("not-hex")); err == nil {
		t.Error("UnmarshalText accepted a non-hex id")
	}
}
