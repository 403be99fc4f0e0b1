// histogram.go: the distribution metric — a fixed set of log-scale
// (power-of-two) buckets updated with lock-free atomics — plus the span
// timer that feeds wall-clock durations into one.
package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram.  Bucket 0 holds
// observations <= 1; bucket i (1 <= i < NumBuckets-1) holds observations in
// (2^(i-1), 2^i]; the last bucket holds everything larger (the +Inf
// bucket).  The range therefore spans 1 .. 2^38 — nanosecond latencies up
// to ~4.5 minutes, byte sizes up to 256 GiB, queue depths, cycle counts.
const NumBuckets = 40

// BucketUpperBound returns the inclusive upper bound of bucket i
// (math.Inf(1) for the last bucket).
func BucketUpperBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i)
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if !(v > 1) { // also catches NaN, zero and negatives
		return 0
	}
	e := math.Ilogb(v) // floor(log2 v)
	i := e
	if math.Ldexp(1, e) < v {
		i++ // not an exact power of two: round the bound up
	}
	if i >= NumBuckets-1 {
		return NumBuckets - 1
	}
	return i
}

// Histogram counts observations into fixed log-scale buckets and tracks
// their sum.  The zero value is ready to use; methods on a nil *Histogram
// are no-ops.  The observation count is always derivable as the sum of the
// bucket counts, so snapshots are internally consistent by construction.
// Alongside the cumulative state, a rotation ring of bucket snapshots
// (window.go) serves rolling-window reads — WindowCounts, WindowQuantile —
// without ever being touched by Observe.
//
// A histogram can additionally retain one exemplar per bucket — the most
// recent trace id, value and timestamp that landed there — after
// EnableExemplars; see ObserveExemplar.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sumBits atomic.Uint64
	win     histWindow
	ex      atomic.Pointer[exemplarSet]
}

// Exemplar is one retained observation joining a histogram bucket to the
// trace that produced it: the trace id, the observed value, and when it
// was observed.  The zero Exemplar (TraceID 0) means "none retained".
type Exemplar struct {
	// TraceID is the trace identity of the retained observation.
	TraceID uint64
	// Value is the observed value.
	Value float64
	// UnixNano is when the observation was recorded.
	UnixNano int64
}

// exemplarSet is the per-bucket exemplar storage: three parallel atomic
// arrays (trace id, value bits, timestamp).  The three stores per capture
// are individually atomic but not joint — under write contention on one
// bucket a reader may pair a trace id with a neighbouring capture's value
// or timestamp.  All candidates are recent observations of the same
// bucket, so the join an exemplar exists for (trace id → span tree) is
// never misled, and the hot path stays free of locks and allocations.
type exemplarSet struct {
	ids  [NumBuckets]atomic.Uint64
	vals [NumBuckets]atomic.Uint64
	ts   [NumBuckets]atomic.Int64
}

// EnableExemplars switches on per-bucket exemplar retention and returns
// the histogram for chaining.  Call it once at wiring time, before the
// histogram is shared; histograms that never enable it pay only an atomic
// nil-check per ObserveExemplar.  No-op on a nil receiver.
func (h *Histogram) EnableExemplars() *Histogram {
	if h != nil && h.ex.Load() == nil {
		h.ex.Store(&exemplarSet{})
	}
	return h
}

// ObserveExemplar records one observation like Observe and, when exemplar
// retention is enabled and traceID is nonzero, swaps the observation in as
// its bucket's exemplar.  The capture path performs only atomic stores —
// zero allocations (gated by the allocgate suite).
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if ex := h.ex.Load(); ex != nil && traceID != 0 {
		ex.capture(v, traceID, time.Now().UnixNano())
	}
}

// ObserveExemplarAt is ObserveExemplar with the capture time given, in
// Unix nanoseconds: a caller observing several values of one event stamps
// them all with one clock reading.
func (h *Histogram) ObserveExemplarAt(v float64, traceID uint64, unixNano int64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if ex := h.ex.Load(); ex != nil && traceID != 0 {
		ex.capture(v, traceID, unixNano)
	}
}

// capture swaps one observation in as its bucket's exemplar.
func (ex *exemplarSet) capture(v float64, traceID uint64, unixNano int64) {
	i := bucketIndex(v)
	ex.ids[i].Store(traceID)
	ex.vals[i].Store(math.Float64bits(v))
	ex.ts[i].Store(unixNano)
}

// Exemplars copies the retained per-bucket exemplars.  Buckets without a
// capture (and every bucket of a histogram that never enabled retention,
// or a nil receiver) read as the zero Exemplar.
func (h *Histogram) Exemplars() [NumBuckets]Exemplar {
	var out [NumBuckets]Exemplar
	if h == nil {
		return out
	}
	ex := h.ex.Load()
	if ex == nil {
		return out
	}
	for i := range out {
		id := ex.ids[i].Load()
		if id == 0 {
			continue
		}
		out[i] = Exemplar{
			TraceID:  id,
			Value:    math.Float64frombits(ex.vals[i].Load()),
			UnixNano: ex.ts[i].Load(),
		}
	}
	return out
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counts returns a copy of the per-bucket counts.
func (h *Histogram) Counts() [NumBuckets]int64 {
	var out [NumBuckets]int64
	if h == nil {
		return out
	}
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts,
// returning the geometric midpoint of the bucket holding the quantile — a
// within-2x estimate by construction of the power-of-two buckets.  It is
// total on its domain: an empty or nil histogram yields 0 (never NaN or
// ±Inf), q outside [0,1] is clamped, and a NaN q reads as 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return QuantileOfCounts(h.Counts(), q)
}

// QuantileOfCounts estimates the q-quantile of an arbitrary bucket-count
// vector laid out like a Histogram's (see NumBuckets).  Callers that need
// the quantile of a sub-interval of a long-lived histogram can snapshot
// Counts before and after, subtract, and pass the difference here (or use
// Histogram.WindowCounts, which maintains those snapshots itself).  Like
// Quantile it is total: empty counts yield 0, never NaN or ±Inf; q is
// clamped to [0,1] and a NaN q reads as 0.
func QuantileOfCounts(counts [NumBuckets]int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			switch i {
			case 0:
				return 1
			case NumBuckets - 1:
				return math.Ldexp(1, NumBuckets-2) // lower bound of the overflow bucket
			default:
				lo := math.Ldexp(1, i-1)
				hi := math.Ldexp(1, i)
				return math.Sqrt(lo * hi)
			}
		}
	}
	return 0
}

// Span is an in-flight timing measurement feeding a Histogram of
// nanosecond durations.  The zero Span (and any Span started from a nil
// Histogram) is inert: Stop does nothing.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start begins timing a span.  On a nil histogram it returns an inert Span
// without reading the clock.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// Stop ends the span, recording the elapsed wall time in nanoseconds.
func (s Span) Stop() {
	if s.h == nil {
		return
	}
	s.h.Observe(float64(time.Since(s.start).Nanoseconds()))
}

// CounterSpan is an in-flight timing measurement whose elapsed nanoseconds
// accumulate into a Counter (cumulative busy time rather than a latency
// distribution).  The zero CounterSpan is inert.
type CounterSpan struct {
	c     *Counter
	start time.Time
}

// StartSpan begins timing an interval that Stop will add to the counter in
// nanoseconds.  On a nil counter it returns an inert span without reading
// the clock.
func (c *Counter) StartSpan() CounterSpan {
	if c == nil {
		return CounterSpan{}
	}
	return CounterSpan{c: c, start: time.Now()}
}

// Stop ends the interval, adding the elapsed nanoseconds to the counter.
func (s CounterSpan) Stop() {
	if s.c == nil {
		return
	}
	s.c.Add(time.Since(s.start).Nanoseconds())
}
