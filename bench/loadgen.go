package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/acqserver"
)

// clock is the generator's view of time, injectable so the open-loop
// accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// doFunc sends pool frame `frame` on connection `conn` and classifies the
// answer.  The Result is nil unless the outcome is outcomeOK.
type doFunc func(conn, frame int) (outcome, *acqserver.Result)

// scheduled is one open-loop arrival: when it is due (offset from the
// phase start) and which pool frame it carries.
type scheduled struct {
	due   time.Duration
	frame int
}

// buildSchedule precomputes an open-loop phase: rate arrivals per second
// for d, in groups of burst sharing one due instant (burst 1 = evenly
// spaced), frames drawn from the seed.  The schedule depends on nothing
// measured.
func buildSchedule(seed int64, rate float64, burst int, d time.Duration, poolSize int) []scheduled {
	if burst < 1 {
		burst = 1
	}
	rng := rand.New(rand.NewSource(seed))
	period := time.Duration(float64(burst) / rate * float64(time.Second))
	var out []scheduled
	for due := time.Duration(0); due < d; due += period {
		for b := 0; b < burst; b++ {
			out = append(out, scheduled{due: due, frame: rng.Intn(poolSize)})
		}
	}
	return out
}

// sample is one completed request.  Offsets are from the phase start.
type sample struct {
	due, sent, done time.Duration
	frame           int
	outcome         outcome
	res             *acqserver.Result
}

// latency is measured from the instant the request was due, not from the
// instant it was sent: a stall is charged to everything queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// openWindow bounds the open-loop requests outstanding on one connection.
// It sits below the server's shard queue depth (16), so when the host
// stalls, the arrivals that pile up wait in the generator — late, and
// charged for it — instead of overflowing a queue and being shed.
const openWindow = 12

// runOpen plays a schedule: arrival i goes out at its due instant on
// connection i mod conns, whether or not earlier ones have completed,
// unless window requests are already outstanding on that connection; then
// it waits its turn.  A late send is never skipped and never re-timed.
// spawn runs each send; the generator passes a goroutine launcher so sends
// do not wait for each other, tests pass a synchronous one to make the run
// deterministic.
func runOpen(clk clock, spawn func(func()), sched []scheduled, conns, window int, do doFunc) []sample {
	samples := make([]sample, len(sched))
	slots := make([]chan struct{}, conns)
	for c := range slots {
		slots[c] = make(chan struct{}, window) // counting semaphore
	}
	start := clk.Now()
	var wg sync.WaitGroup
	for i, s := range sched {
		clk.SleepUntil(start.Add(s.due))
		i, s := i, s
		wg.Add(1)
		spawn(func() {
			defer wg.Done()
			slot := slots[i%conns]
			slot <- struct{}{}
			sent := clk.Now().Sub(start)
			out, res := do(i%conns, s.frame)
			<-slot
			samples[i] = sample{due: s.due, sent: sent, done: clk.Now().Sub(start), frame: s.frame, outcome: out, res: res}
		})
	}
	wg.Wait()
	return samples
}

func spawnGoroutine(f func()) { go f() }

// maxLate is how far behind its schedule the generator ran.
func maxLate(samples []sample) time.Duration {
	var worst time.Duration
	for _, s := range samples {
		if late := s.sent - s.due; late > worst {
			worst = late
		}
	}
	return worst
}

// runClosed keeps inflight requests outstanding on each of conns
// connections for d from start: a slot sends its next request when the
// previous one completes.  Frames are taken round robin from the pool.
func runClosed(clk clock, start time.Time, d time.Duration, conns, inflight, poolSize int, do doFunc) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		for k := 0; k < inflight; k++ {
			wg.Add(1)
			go func(c, slot int) {
				defer wg.Done()
				var mine []sample
				for n := 0; ; n++ {
					sent := clk.Now().Sub(start)
					if sent >= d {
						break
					}
					frame := (slot + n*conns*inflight) % poolSize
					out, res := do(c, frame)
					mine = append(mine, sample{due: sent, sent: sent, done: clk.Now().Sub(start), frame: frame, outcome: out, res: res})
				}
				mu.Lock()
				all = append(all, mine...)
				mu.Unlock()
			}(c, c*inflight+k)
		}
	}
	wg.Wait()
	return all
}

// cpuTick is the process CPU time read at one slice boundary.
type cpuTick struct {
	at  time.Duration // since the phase start
	cpu time.Duration
}

// sampleCPU reads the process CPU clock at the start of a phase and at the
// end of each of its slices.  It returns when the phase is over.
func sampleCPU(clk clock, start time.Time, d time.Duration, slices int, cpu func() time.Duration) []cpuTick {
	ticks := []cpuTick{{0, cpu()}}
	for i := 1; i <= slices; i++ {
		clk.SleepUntil(start.Add(d * time.Duration(i) / time.Duration(slices)))
		ticks = append(ticks, cpuTick{clk.Now().Sub(start), cpu()})
	}
	return ticks
}
