package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestPacerMeasuresFromDueInstant plays a client against a fake clock and a
// server that answers in 1 ms except for one 50 ms stall.  Paced at one
// request per 10 ms, the four requests that came due during the stall must
// report the time they waited behind it; unpaced, every request reports its
// own service time.
func TestPacerMeasuresFromDueInstant(t *testing.T) {
	const ms = time.Millisecond
	service := []time.Duration{ms, 50 * ms, ms, ms, ms, ms, ms, ms}
	for _, tc := range []struct {
		name     string
		interval time.Duration
		want     []time.Duration
	}{
		{"paced", 10 * ms, []time.Duration{ms, 50 * ms, 41 * ms, 32 * ms, 23 * ms, 14 * ms, 5 * ms, ms}},
		{"unpaced", 0, service},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(1000, 0)
			pace := pacer{
				paced: tc.interval > 0,
				now:   func() time.Time { return clock },
				sleep: func(d time.Duration) { clock = clock.Add(d) },
			}
			for i, busy := range service {
				start := pace.wait(tc.interval)
				clock = clock.Add(busy) // the stubbed request
				if got := clock.Sub(start); got != tc.want[i] {
					t.Errorf("request %d: latency %v, want %v", i, got, tc.want[i])
				}
			}
		})
	}
}

// TestBudgetFromSnapshot merges acq_stage_ns over compute paths: each
// stage's quantiles from the summed buckets, its share of the summed round
// trips; a bucket bound that no registry writes (below 1, not a power of
// two) lands in the nearest bucket instead of indexing out of range.
func TestBudgetFromSnapshot(t *testing.T) {
	stage := func(st, path string, sum float64, buckets ...telemetry.Bucket) telemetry.Metric {
		return telemetry.Metric{Name: "acq_stage_ns", Kind: "histogram", Sum: sum,
			Labels: map[string]string{"stage": st, "path": path}, Buckets: buckets}
	}
	b := func(le float64, n int64) telemetry.Bucket { return telemetry.Bucket{UpperBound: le, Count: n} }
	snap := telemetry.Snapshot{Metrics: []telemetry.Metric{
		stage("read", "cpu", 300, b(128, 3)),
		stage("read", "hybrid", 100, b(1024, 1)),
		stage("wal", "cpu", 0, b(1, 3)),
		stage("remainder", "cpu", 2, b(0.5, 1), b(math.Inf(1), 1)),
		stage("roundtrip", "cpu", 600, b(256, 3)),
		stage("roundtrip", "hybrid", 200, b(256, 1)),
	}}
	got := budgetFromSnapshot(snap)
	if r := got["read"]; r.P50Ns != math.Sqrt(64*128) || r.P90Ns != math.Sqrt(512*1024) || r.Share != 0.5 {
		t.Errorf("read %+v, want p50 in (64,128], p90 in (512,1024], share 0.5", r)
	}
	if w := got["wal"]; w.P50Ns != 0 || w.P90Ns != 0 || w.Share != 0 {
		t.Errorf("wal %+v, want zeros", w)
	}
	if r := got["remainder"]; r.P50Ns != 0 || r.Share != 2.0/800 {
		t.Errorf("remainder %+v, want p50 0 and share %v", r, 2.0/800)
	}
	if budgetFromSnapshot(telemetry.Snapshot{}) != nil {
		t.Error("a daemon that answered no frame has a budget")
	}
}
