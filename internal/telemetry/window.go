// window.go: rolling-window views of a Histogram — a rotating ring of
// cumulative bucket snapshots from which "last N seconds" counts are
// derived by subtraction.  The Observe hot path never touches the ring
// (rotation happens only at read time, under a mutex nothing hot ever
// takes), so the lock-free, zero-allocation Observe contract of
// histogram.go is preserved bit for bit.
package telemetry

import (
	"sync"
	"time"
)

// WindowSlotDuration is the minimum spacing between two ring snapshots: a
// read-side rotation is a no-op until the newest slot is at least this
// old.  Windows are therefore resolved to ~10 s granularity.
const WindowSlotDuration = 10 * time.Second

// WindowSlots is the ring capacity.  64 slots at 10 s spacing retain a
// little over ten minutes of history — enough for the slow (10 m) burn
// window of internal/telemetry/health on top of the exported 60 s view.
const WindowSlots = 64

// ExportWindow is the rolling window reported by Snapshot exports (the
// wcount/wp50/wp95/wp99 JSON fields and the *_window_* Prometheus
// series): the last minute, to slot granularity.
const ExportWindow = 60 * time.Second

// WindowRing is the rotation ring behind every rolling window: up to
// WindowSlots timestamped readings of some cumulative state, at most one
// per WindowSlotDuration, from which "the last N seconds" is a
// subtraction.  Histograms keep their bucket counts in one, the health
// evaluator its ratio SLOs' counter readings.  The zero value is an empty
// ring; callers serialize access.
type WindowRing[T any] struct {
	n    int // valid slots, ≤ WindowSlots
	head int // index of the most recent slot (meaningless while n == 0)
	// slots are the readings, each stamped with when it was taken.
	slots [WindowSlots]struct {
		when time.Time
		v    T
	}
}

// Push claims a slot for the reading at now when the ring is empty or its
// newest reading is at least WindowSlotDuration old, and returns the slot
// for the caller to fill; otherwise (the newest is fresh enough, or the
// clock went backwards) it returns nil.
func (r *WindowRing[T]) Push(now time.Time) *T {
	if r.n > 0 && now.Sub(r.slots[r.head].when) < WindowSlotDuration {
		return nil
	}
	idx := 0
	if r.n > 0 {
		idx = (r.head + 1) % WindowSlots
	}
	r.slots[idx].when = now
	r.head = idx
	if r.n < WindowSlots {
		r.n++
	}
	return &r.slots[idx].v
}

// Baseline returns the reading closest to (now − window) from below — the
// newest one old enough to cover the window — falling back to the oldest
// when the ring is younger than the window, together with when it was
// taken.  It returns nil on an empty ring.
func (r *WindowRing[T]) Baseline(now time.Time, window time.Duration) (*T, time.Time) {
	if r.n == 0 {
		return nil, time.Time{}
	}
	cutoff := now.Add(-window)
	j := (r.head - (r.n - 1) + WindowSlots) % WindowSlots // the oldest
	for i := 0; i < r.n; i++ {
		k := (r.head - i + WindowSlots) % WindowSlots
		if !r.slots[k].when.After(cutoff) {
			j = k
			break
		}
	}
	return &r.slots[j].v, r.slots[j].when
}

// histWindow is a histogram's rotation ring of cumulative bucket counts.
// Its zero value is ready to use (an empty ring), keeping the zero
// Histogram usable.  Only read-side paths (Snapshot, WindowCounts, health
// evaluation) take the mutex.
type histWindow struct {
	mu sync.Mutex
	WindowRing[[NumBuckets]int64]
}

// WindowCounts returns the per-bucket observation counts over
// approximately the trailing window ending at now, together with the
// duration the returned counts actually cover (the age of the baseline
// snapshot used — shorter than window while history is still
// accumulating, 0 when no history exists yet).  Calling it also advances
// the rotation ring, so any periodic reader (a scrape, the health
// evaluator, the ops console) keeps windows fresh for everyone.  A nil
// receiver returns zero counts and 0.
func (h *Histogram) WindowCounts(now time.Time, window time.Duration) (counts [NumBuckets]int64, covered time.Duration) {
	if h == nil {
		return counts, 0
	}
	h.win.mu.Lock()
	if s := h.win.Push(now); s != nil {
		for i := range h.buckets {
			s[i] = h.buckets[i].Load()
		}
	}
	basep, when := h.win.Baseline(now, window)
	if basep == nil {
		h.win.mu.Unlock()
		return counts, 0
	}
	base := *basep // copy before unlocking: a later rotation may reuse the slot
	h.win.mu.Unlock()
	for i := range h.buckets {
		d := h.buckets[i].Load() - base[i]
		if d < 0 {
			d = 0 // snapshot raced a concurrent Observe; clamp, never go negative
		}
		counts[i] = d
	}
	covered = now.Sub(when)
	if covered < 0 {
		covered = 0
	}
	return counts, covered
}

// WindowQuantile estimates the q-quantile of the observations in the
// trailing window ending at now (see Quantile for the estimation
// contract).  It returns 0 when the window is empty or the receiver nil.
func (h *Histogram) WindowQuantile(now time.Time, window time.Duration, q float64) float64 {
	counts, _ := h.WindowCounts(now, window)
	return QuantileOfCounts(counts, q)
}
