package tsdb

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// testStore opens a store in a fresh temp dir, logging to the test.
func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// TestChunkRoundTrip appends batches across rotations and reads every
// sample back bit-exact through a fresh store's query path.
func TestChunkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Batches a sixteenth of maxChunkAge apart: every sixteenth one rotates,
	// and all fifty (about 94 minutes) stay inside retainRaw.
	const n, every = 50, maxChunkAge / 16
	base := time.Now().Add(-n * every).Truncate(time.Second)
	gid := s.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	cid := s.SeriesID(Series{Family: "c", Kind: telemetry.KindCounter, Labels: []telemetry.Label{telemetry.L("path", "cpu")}})
	hid := s.SeriesID(Series{Family: "h", Kind: telemetry.KindHistogram})
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * every)
		gv := math.Sin(float64(i) / 3)
		var hp Point
		hp.HCount = int64(i%3 + 1)
		hp.HSum = float64(i) * 1.5
		hp.HBuckets[i%telemetry.NumBuckets] = hp.HCount
		err := s.Append(ts, []Sample{
			{SeriesID: gid, Point: Point{Count: 1, Min: gv, Max: gv, Sum: gv}},
			{SeriesID: cid, Point: Point{Count: 1, Min: 2, Max: 2, Sum: 2}},
			{SeriesID: hid, Point: hp},
		})
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Multiple chunks must exist after forced rotation.
	names, err := chunkFormat.List(filepath.Join(dir, ResRaw))
	if err != nil || len(names) < 2 {
		t.Fatalf("want >=2 raw chunks, got %d (%v)", len(names), err)
	}

	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q.Close()
	res, err := q.Query(QueryOptions{
		Family:     "g",
		Since:      base.Add(-time.Second),
		Until:      base.Add(n * every),
		Step:       every,
		Resolution: ResRaw,
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Series) != 1 {
		t.Fatalf("want 1 gauge series, got %d", len(res.Series))
	}
	pts := res.Series[0].Points
	if len(pts) != n {
		t.Fatalf("want %d gauge points, got %d", n, len(pts))
	}
	for i, p := range pts {
		want := math.Sin(float64(i) / 3)
		if p.Value != want {
			t.Fatalf("point %d: value %v != %v (XOR round-trip must be bit-exact)", i, p.Value, want)
		}
	}

	// Counter: each step holds one 2.0 increase.
	res, err = q.Query(QueryOptions{
		Family: "c", Since: base.Add(-time.Second), Until: base.Add(n * every),
		Step: every, Resolution: ResRaw,
	})
	if err != nil {
		t.Fatalf("counter query: %v", err)
	}
	if len(res.Series) != 1 || res.Series[0].Labels["path"] != "cpu" {
		t.Fatalf("counter series/labels wrong: %+v", res.Series)
	}
	for i, p := range res.Series[0].Points {
		if p.Value != 2 {
			t.Fatalf("counter step %d: increase %v != 2", i, p.Value)
		}
	}

	// Histogram: whole-range quantile over merged buckets is computable.
	res, err = q.Query(QueryOptions{
		Family: "h", Since: base, Until: base.Add(n * every),
		Step: n * every, Quantile: 0.99, Resolution: ResRaw,
	})
	if err != nil {
		t.Fatalf("histogram query: %v", err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("histogram result shape wrong: %+v", res)
	}
	if res.Series[0].Points[0].Count == 0 || res.Series[0].Points[0].Value <= 0 {
		t.Fatalf("histogram quantile point empty: %+v", res.Series[0].Points[0])
	}
}

// TestReopenTruncatesTornTail simulates a SIGKILL by corrupting the tail
// of an unsealed chunk: reopen must keep every intact batch, drop the
// torn one, and continue appending into a fresh chunk so history spans
// the "restart".
func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := time.Now().Add(-5 * time.Minute).Truncate(time.Second)
	id := s.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	for i := 0; i < 10; i++ {
		v := float64(i)
		if err := s.Append(base.Add(time.Duration(i)*time.Second), []Sample{{SeriesID: id, Point: Point{Count: 1, Min: v, Max: v, Sum: v}}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Abandon without sealing (crash), then tear the last record.
	s.mu.Lock()
	raw := s.levels[0]
	path := raw.w.path
	if err := raw.w.abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	raw.w = nil
	s.closed = true
	s.mu.Unlock()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	// The recovered chunk must now be sealed with 9 intact batches.
	seg, err := chunkFormat.Open(path, os.O_RDONLY)
	if err != nil {
		t.Fatalf("open recovered chunk: %v", err)
	}
	res, err := scanChunk(seg, nil)
	seg.Close()
	if err != nil {
		t.Fatalf("scan recovered chunk: %v", err)
	}
	if seg.Footer == nil || res.batches != 9 {
		t.Fatalf("recovered chunk: sealed=%v batches=%d, want sealed with 9", seg.Footer != nil, res.batches)
	}
	// Appends continue in a new chunk; the query spans both lifetimes.
	id2 := r.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	for i := 10; i < 15; i++ {
		v := float64(i)
		if err := r.Append(base.Add(time.Duration(i)*time.Second), []Sample{{SeriesID: id2, Point: Point{Count: 1, Min: v, Max: v, Sum: v}}}); err != nil {
			t.Fatalf("post-recovery Append: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer q.Close()
	out, err := q.Query(QueryOptions{
		Family: "g", Since: base.Add(-time.Second), Until: base.Add(20 * time.Second),
		Step: time.Second, Resolution: ResRaw,
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(out.Series) != 1 {
		t.Fatalf("want 1 series, got %d", len(out.Series))
	}
	if got := len(out.Series[0].Points); got != 14 { // 9 recovered + 5 new
		t.Fatalf("want 14 points across the restart, got %d", got)
	}
}

// TestDownsampleQuantileAgreement is the downsampled-vs-raw golden: over
// aligned windows, a histogram quantile computed from the 1m level must
// equal the same window recomputed from raw points, because bucket-merge
// downsampling is lossless for bucketed quantiles.
func TestDownsampleQuantileAgreement(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Aligned to a 10-minute boundary so 1m windows fill deterministically.
	base := time.Now().Add(-30 * time.Minute).Truncate(10 * time.Minute)
	id := s.SeriesID(Series{Family: "lat", Kind: telemetry.KindHistogram})
	// 10 minutes of 5s ticks with a shifting latency distribution.
	for i := 0; i < 120; i++ {
		ts := base.Add(time.Duration(i) * 5 * time.Second)
		var p Point
		for j := 0; j < 20; j++ {
			b := (i/12 + j%7) % telemetry.NumBuckets
			p.HBuckets[b]++
			p.HCount++
			p.HSum += telemetry.BucketUpperBound(b)
		}
		if err := s.Append(ts, []Sample{{SeriesID: id, Point: p}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	q, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q.Close()
	since, until := base, base.Add(10*time.Minute)
	for _, quant := range []float64{0.5, 0.95, 0.99} {
		raw, err := q.Query(QueryOptions{Family: "lat", Since: since, Until: until,
			Step: time.Minute, Quantile: quant, Resolution: ResRaw})
		if err != nil {
			t.Fatalf("raw query: %v", err)
		}
		ds, err := q.Query(QueryOptions{Family: "lat", Since: since, Until: until,
			Step: time.Minute, Quantile: quant, Resolution: Res1m})
		if err != nil {
			t.Fatalf("1m query: %v", err)
		}
		if len(raw.Series) != 1 || len(ds.Series) != 1 {
			t.Fatalf("series count: raw %d, 1m %d", len(raw.Series), len(ds.Series))
		}
		rp, dp := raw.Series[0].Points, ds.Series[0].Points
		if len(dp) == 0 {
			t.Fatalf("no downsampled points")
		}
		byT := map[int64]QueryPoint{}
		for _, p := range rp {
			byT[p.T] = p
		}
		for _, p := range dp {
			r, ok := byT[p.T]
			if !ok {
				t.Fatalf("q%.2f: 1m point at t=%d has no raw counterpart", quant, p.T)
			}
			if r.Value != p.Value || r.Count != p.Count {
				t.Fatalf("q%.2f at t=%d: raw (%v, %d) != 1m (%v, %d)",
					quant, p.T, r.Value, r.Count, p.Value, p.Count)
			}
		}
	}
}

// TestRetentionJanitor proves sealed chunks wholly older than the horizon
// are deleted and newer ones survive.
func TestRetentionJanitor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id := s.SeriesID(Series{Family: "g", Kind: telemetry.KindGauge})
	add := func(ts time.Time) {
		t.Helper()
		if err := s.Append(ts, []Sample{{SeriesID: id, Point: Point{Count: 1, Sum: 1, Min: 1, Max: 1}}}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Batches maxChunkAge apart each seal the chunk before: three sealed
	// chunks wholly older than retainRaw, then one an hour old.
	old := time.Now().Add(-retainRaw - 3*maxChunkAge)
	for i := 0; i < 3; i++ {
		add(old.Add(time.Duration(i) * maxChunkAge))
	}
	add(time.Now().Add(-time.Hour))
	recent := time.Now().Add(-time.Minute)
	for i := 0; i < 8; i++ {
		add(recent.Add(time.Duration(i) * time.Second))
	}
	s.mu.Lock()
	s.janitorLocked()
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, err := chunkFormat.List(filepath.Join(dir, ResRaw))
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, n := range names {
		ts, _ := chunkFormat.Key(n)
		if time.Since(time.Unix(0, int64(ts))) > retainRaw {
			t.Fatalf("janitor left expired chunk %s", n)
		}
	}
	if len(names) != 2 {
		t.Fatalf("janitor left %d raw chunks, want the hour-old one and the active one: %v", len(names), names)
	}
}

// TestSamplerDiff exercises the snapshot-diff semantics: baselines on the
// first tick, per-interval counter increases, gauge change/heartbeat
// gating, histogram bucket deltas.
func TestSamplerDiff(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := testStore(t)
	defer s.Close()
	sp := NewSampler(reg, s, time.Second)

	c := reg.Counter("req_total", "")
	g := reg.Gauge("depth", "")
	h := reg.Histogram("lat_ns", "")

	now := time.Now().Add(-time.Minute)
	c.Add(5)
	g.Set(3)
	h.Observe(100)
	// Counters and histograms only baseline on the first tick; the gauge
	// emits immediately (it is a point sample, not a diff).
	if n := sp.SampleOnce(now); n != 1 {
		t.Fatalf("first tick: want only the gauge sample, emitted %d", n)
	}
	c.Add(2)
	h.Observe(200)
	h.Observe(300)
	if n := sp.SampleOnce(now.Add(time.Second)); n == 0 {
		t.Fatalf("second tick emitted nothing")
	}
	// Unchanged gauge + idle counter within heartbeat: nothing to say.
	if n := sp.SampleOnce(now.Add(2 * time.Second)); n != 0 {
		t.Fatalf("idle tick emitted %d samples", n)
	}

	res, err := s.Query(QueryOptions{Family: "req_total", Since: now.Add(-time.Second),
		Until: now.Add(10 * time.Second), Step: 20 * time.Second, Resolution: ResRaw})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Series) != 1 || res.Series[0].Points[0].Value != 2 {
		t.Fatalf("counter increase: want one series with value 2, got %+v", res.Series)
	}
	res, err = s.Query(QueryOptions{Family: "lat_ns", Since: now.Add(-time.Second),
		Until: now.Add(10 * time.Second), Step: 20 * time.Second, Resolution: ResRaw})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Series) != 1 || res.Series[0].Points[0].Count != 2 {
		t.Fatalf("histogram delta: want 2 new observations, got %+v", res.Series)
	}
}

// TestHistoryHandler exercises the HTTP surface end to end, including
// the nil-store 404 contract and parameter validation.
func TestHistoryHandler(t *testing.T) {
	var nilStore *Store
	rr := httptest.NewRecorder()
	nilStore.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history?family=x", nil))
	if rr.Code != 404 {
		t.Fatalf("nil store: want 404, got %d", rr.Code)
	}

	reg := telemetry.NewRegistry()
	s := testStore(t)
	defer s.Close()
	sp := NewSampler(reg, s, time.Second)
	g := reg.Gauge("acq_queue_depth", "", telemetry.L("shard", "0"))
	base := time.Now().Add(-time.Minute)
	for i := 0; i < 5; i++ {
		g.Set(float64(i))
		sp.SampleOnce(base.Add(time.Duration(i) * time.Second))
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history?family=acq_queue_depth&match=shard=0&since=-5m&step=1s&res=raw", nil))
	if rr.Code != 200 {
		t.Fatalf("query: %d %s", rr.Code, rr.Body.String())
	}
	body := rr.Body.String()
	for _, want := range []string{`"family": "acq_queue_depth"`, `"kind": "gauge"`, `"shard": "0"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("response missing %q:\n%s", want, body)
		}
	}

	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history", nil))
	if rr.Code != 400 {
		t.Fatalf("missing family: want 400, got %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics/history?family=x&quantile=1.5", nil))
	if rr.Code != 400 {
		t.Fatalf("bad quantile: want 400, got %d", rr.Code)
	}
}
