package main

import (
	"testing"
	"time"
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
