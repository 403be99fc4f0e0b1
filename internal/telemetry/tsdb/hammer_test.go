package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestHistoryQueryDuringSamplingRace hammers /metrics/history while the
// sampler is appending and the registry is being written — the live-drain
// shape: queries read chunk files through their own fds while Append
// rotates and seals them under the store mutex.  Run under -race (make
// check does) this proves the reader/writer split is sound; the final
// section exercises the graceful-drain sequence (Stop, one last sample,
// Close) with a query still in flight.
func TestHistoryQueryDuringSamplingRace(t *testing.T) {
	store := testStore(t)
	reg := telemetry.NewRegistry()
	sp := NewSampler(reg, store, time.Second)
	h := store.Handler()
	base := time.Unix(1_700_000_000, 0)
	// Ticks an eighth of maxChunkAge apart: the raw level rotates every
	// eighth one, so queries cross seals.
	const ticks, tick = 200, maxChunkAge / 8
	until := base.Add(ticks * tick)

	var stop atomic.Bool
	var wg sync.WaitGroup

	hist := reg.Histogram("acq_process_ns", "", telemetry.L("path", "hybrid"))
	frames := reg.Counter("acq_frames_total", "")
	depth := reg.Gauge("acq_queue_depth", "")

	// A concurrent producer keeps the registry hot while ticks run; the
	// main loop below also writes each tick so the stored increase is
	// guaranteed even if the scheduler starves this goroutine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			hist.Observe(1e6 + float64(i%1000))
			frames.Add(1)
			depth.Set(float64(i % 32))
		}
	}()

	// Query hammers: valid and invalid requests interleaved.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				url := fmt.Sprintf("/metrics/history?family=acq_process_ns&quantile=0.99&since=%d&until=%d&step=%s",
					base.Unix(), until.Unix(), tick)
				if i%5 == q { // a bad request now and then
					url = "/metrics/history?quantile=2"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 && rec.Code != 400 {
					t.Errorf("query status %d: %s", rec.Code, rec.Body.String())
					return
				}
				if rec.Code == 200 {
					var qr QueryResult
					if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
						t.Errorf("query body undecodable: %v", err)
						return
					}
				}
			}
		}(q)
	}

	// The sampler itself: synthetic time so agg windows and rotations
	// fire; 200 ticks cross every 1m and 10m window and 25 raw chunks.
	for i := 0; i < ticks; i++ {
		frames.Add(1)
		hist.Observe(2e6)
		sp.SampleOnce(base.Add(time.Duration(i) * tick))
	}
	stop.Store(true)
	wg.Wait()

	// Graceful drain with a straggler query in flight.
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET",
			fmt.Sprintf("/metrics/history?family=acq_frames_total&since=%d&until=%d",
				base.Unix(), until.Unix()), nil))
	}()
	sp.Stop()
	sp.SampleOnce(until)
	qwg.Wait()
	if err := store.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}

	// Reopen read-only style and confirm the drained data is all there.
	store2, err := Open(Config{Dir: store.Dir()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	// Since reaches back one 10m window: downsampled points are stamped at
	// their window START, and base is mid-window, so a query from base
	// exactly would exclude the aggregate covering it.
	res, err := store2.Query(QueryOptions{
		Family: "acq_frames_total", Since: base.Add(-10 * time.Minute), Until: until,
		Step: 900 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) == 0 || res.Series[0].Points[0].Value <= 0 {
		t.Fatalf("post-drain history = %+v, want the hammered counter increase", res)
	}
}

// benchRegistry builds a registry shaped like a busy imsd: a few dozen
// series across kinds, the histograms hot.
func benchRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	for s := 0; s < 8; s++ {
		l := telemetry.L("shard", fmt.Sprintf("%d", s))
		h := reg.Histogram("acq_process_ns", "", l)
		for i := 0; i < 256; i++ {
			h.Observe(1e5 * float64(1+i%7))
		}
		reg.Counter("acq_frames_total", "", l).Add(int64(1000 + s))
		reg.Gauge("acq_queue_depth", "", l).Set(float64(s))
	}
	reg.Counter("acq_shed_total", "").Add(3)
	reg.Gauge("health_status", "").Set(0)
	return reg
}

// TestSamplerSampleOnceUnderMillisecond is the PR's overhead proof: one
// snapshot-diff-append tick over a realistically shaped registry must cost
// well under a millisecond.  Best-of-N defeats scheduler noise — the claim
// is about the code path, not the worst-case timeslice.
func TestSamplerSampleOnceUnderMillisecond(t *testing.T) {
	store := testStore(t)
	reg := benchRegistry()
	sp := NewSampler(reg, store, time.Second)
	base := time.Unix(1_700_000_000, 0)
	sp.SampleOnce(base) // baseline tick: everything gets defined/interned

	best := time.Duration(1 << 62)
	for i := 1; i <= 50; i++ {
		// Touch the registry so every tick has deltas to encode.
		for s := 0; s < 8; s++ {
			reg.Histogram("acq_process_ns", "", telemetry.L("shard", fmt.Sprintf("%d", s))).Observe(1e6)
			reg.Counter("acq_frames_total", "", telemetry.L("shard", fmt.Sprintf("%d", s))).Add(5)
		}
		t0 := time.Now()
		sp.SampleOnce(base.Add(time.Duration(i) * time.Second))
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if best >= time.Millisecond {
		t.Fatalf("best-of-50 SampleOnce = %v, want < 1ms", best)
	}
	t.Logf("best-of-50 SampleOnce = %v", best)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSamplerSampleOnce measures one sampler tick end to end:
// Registry.Snapshot, diff against the previous tick, encode and append
// the delta batch to the raw chunk plus the two agg levels.
func BenchmarkSamplerSampleOnce(b *testing.B) {
	dir := b.TempDir()
	store, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	reg := benchRegistry()
	sp := NewSampler(reg, store, time.Second)
	base := time.Unix(1_700_000_000, 0)
	sp.SampleOnce(base)
	counters := make([]*telemetry.Counter, 8)
	hists := make([]*telemetry.Histogram, 8)
	for s := 0; s < 8; s++ {
		l := telemetry.L("shard", fmt.Sprintf("%d", s))
		counters[s] = reg.Counter("acq_frames_total", "", l)
		hists[s] = reg.Histogram("acq_process_ns", "", l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 8; s++ {
			counters[s].Add(3)
			hists[s].Observe(1e6)
		}
		sp.SampleOnce(base.Add(time.Duration(i+1) * time.Second))
	}
}
