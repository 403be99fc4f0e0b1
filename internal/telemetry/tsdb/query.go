// query.go: range reads over the store — scan the chunk files of one
// resolution level, filter by family and label matchers, bucket points
// into fixed steps, and evaluate a per-kind value (counter increase,
// gauge average, histogram quantile).  Queries never touch writer state:
// they open chunk files through their own descriptors, so they are safe
// concurrently with the sampler and against a directory whose store has
// closed (or crashed — an unsealed chunk reads up to its torn tail).
package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// QueryOptions selects and shapes a range read.
type QueryOptions struct {
	// Family is the metric family to read (exact name, required).
	Family string
	// Matchers restrict results to series whose labels include every
	// listed key=value pair.
	Matchers []telemetry.Label
	// Since and Until bound the range (Until zero means now).
	Since, Until time.Time
	// Step is the output bucket width; zero picks a width that yields
	// roughly 100 points over the range (floored at the store resolution).
	Step time.Duration
	// Quantile, when in (0,1), evaluates histogram series to that
	// windowed quantile per step; zero yields the per-step mean.
	Quantile float64
	// Resolution names the level to read (ResRaw, Res1m, Res10m); empty
	// or "auto" picks the finest level whose retention covers Since.
	Resolution string
}

// QueryPoint is one evaluated output step.
type QueryPoint struct {
	// T is the step's start, unix seconds.
	T int64 `json:"t"`
	// Value is the per-kind evaluation: counter increase over the step,
	// gauge average, histogram quantile (or mean when no quantile was
	// requested).
	Value float64 `json:"value"`
	// Count is the raw-sample (scalar) or observation (histogram) count
	// merged into the step.
	Count int64 `json:"count,omitempty"`
	// Min and Max bound the gauge/counter samples inside the step
	// (omitted for histograms).
	Min float64 `json:"min,omitempty"`
	// Max is the step's maximum sampled value.
	Max float64 `json:"max,omitempty"`
}

// SeriesResult is one matched series' evaluated points.
type SeriesResult struct {
	// Labels identify the series instance.
	Labels map[string]string `json:"labels,omitempty"`
	// Points are the non-empty steps, time-ascending.
	Points []QueryPoint `json:"points"`
}

// QueryResult is a full range-read response (the /metrics/history body).
type QueryResult struct {
	// Family is the queried family name.
	Family string `json:"family"`
	// Kind is the family's kind ("counter", "gauge", "histogram").
	Kind string `json:"kind"`
	// Resolution names the level that served the read.
	Resolution string `json:"resolution"`
	// StepS is the output step width in seconds.
	StepS float64 `json:"step_s"`
	// Quantile echoes the evaluated quantile (0 when none).
	Quantile float64 `json:"quantile,omitempty"`
	// Series lists every matched series with at least one point.
	Series []SeriesResult `json:"series"`
}

// matchSeries reports whether sr belongs to the query.
func matchSeries(sr Series, opts *QueryOptions) bool {
	if sr.Family != opts.Family {
		return false
	}
	for _, m := range opts.Matchers {
		found := false
		for _, l := range sr.Labels {
			if l.Key == m.Key {
				found = l.Value == m.Value
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// stepAgg accumulates one series' samples inside one output step.
type stepAgg struct {
	point Point
	kind  telemetry.Kind
}

// Query evaluates a range read.  See QueryOptions for semantics.
func (s *Store) Query(opts QueryOptions) (*QueryResult, error) {
	if s == nil {
		return nil, fmt.Errorf("tsdb: store disabled")
	}
	if opts.Family == "" {
		return nil, fmt.Errorf("tsdb: query requires a family")
	}
	if opts.Until.IsZero() {
		opts.Until = time.Now()
	}
	if opts.Since.IsZero() {
		opts.Since = opts.Until.Add(-15 * time.Minute)
	}
	if !opts.Since.Before(opts.Until) {
		return nil, fmt.Errorf("tsdb: empty range (since %s >= until %s)", opts.Since.Format(time.RFC3339), opts.Until.Format(time.RFC3339))
	}
	if opts.Quantile < 0 || opts.Quantile >= 1 {
		return nil, fmt.Errorf("tsdb: quantile must be in [0,1), got %g", opts.Quantile)
	}
	s.mu.Lock()
	lv, err := s.pickResolution(opts.Resolution, opts.Since)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	step := opts.Step
	if step <= 0 {
		step = opts.Until.Sub(opts.Since) / 100
	}
	if lv.window > 0 && step < lv.window {
		step = lv.window
	}
	if step < time.Second {
		step = time.Second
	}

	sinceNs, untilNs := opts.Since.UnixNano(), opts.Until.UnixNano()
	stepNs := int64(step)

	// seriesKey -> (stepStart -> agg); keys keep output deterministic.
	acc := map[string]map[int64]*stepAgg{}
	labelsOf := map[string]map[string]string{}

	names, err := chunkFormat.List(lv.dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if firstTs, _ := chunkFormat.Key(name); int64(firstTs) > untilNs {
			continue
		}
		seg, err := chunkFormat.Open(lv.dir+"/"+name, os.O_RDONLY)
		if errors.Is(err, seglog.ErrNotSegment) {
			continue // being created: no magic yet, so no batch either
		}
		if err != nil {
			return nil, err
		}
		// Skip chunks that end before the range using the sealed footer
		// (unsealed chunks are scanned regardless — they are the newest).
		if seg.Footer != nil && decodeChunkFooter(seg.Footer).lastTs < sinceNs {
			seg.Close()
			continue
		}
		_, err = scanChunk(seg, func(series map[uint32]Series, b Batch) error {
			if b.Ts > untilNs {
				return seglog.ErrStop
			}
			if b.Ts < sinceNs {
				return nil
			}
			for i := range b.Samples {
				sm := &b.Samples[i]
				sr, ok := series[sm.SeriesID]
				if !ok || !matchSeries(sr, &opts) {
					continue
				}
				key := sr.Key()
				steps := acc[key]
				if steps == nil {
					steps = map[int64]*stepAgg{}
					acc[key] = steps
					lm := map[string]string{}
					for _, l := range sr.Labels {
						lm[l.Key] = l.Value
					}
					labelsOf[key] = lm
				}
				stepStart := sinceNs + (b.Ts-sinceNs)/stepNs*stepNs
				ag := steps[stepStart]
				if ag == nil {
					ag = &stepAgg{kind: sr.Kind}
					steps[stepStart] = ag
				}
				ag.point.merge(&sm.Point, sr.Kind)
			}
			return nil
		})
		seg.Close()
		if err != nil {
			return nil, err
		}
	}

	var kind telemetry.Kind
	res := &QueryResult{
		Family:     opts.Family,
		Resolution: lv.name,
		StepS:      step.Seconds(),
		Quantile:   opts.Quantile,
		Series:     []SeriesResult{},
	}
	keys := make([]string, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		steps := acc[key]
		starts := make([]int64, 0, len(steps))
		for st := range steps {
			starts = append(starts, st)
		}
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		sr := SeriesResult{Labels: labelsOf[key]}
		for _, st := range starts {
			ag := steps[st]
			kind = ag.kind
			sr.Points = append(sr.Points, evalPoint(st, ag, opts.Quantile))
		}
		res.Series = append(res.Series, sr)
	}
	res.Kind = kind.String()
	if len(res.Series) == 0 {
		res.Kind = ""
	}
	return res, nil
}

// evalPoint turns one step aggregate into an output point.
func evalPoint(startNs int64, ag *stepAgg, q float64) QueryPoint {
	p := QueryPoint{T: startNs / int64(time.Second)}
	if ag.kind == telemetry.KindHistogram {
		p.Count = ag.point.HCount
		switch {
		case q > 0 && ag.point.HCount > 0:
			p.Value = telemetry.QuantileOfCounts(ag.point.HBuckets, q)
		case ag.point.HCount > 0:
			p.Value = ag.point.HSum / float64(ag.point.HCount)
		}
		return p
	}
	p.Count = ag.point.Count
	p.Min, p.Max = ag.point.Min, ag.point.Max
	if ag.kind == telemetry.KindCounter {
		// Counters store per-interval increases; the step value is their sum.
		p.Value = ag.point.Sum
	} else if ag.point.Count > 0 {
		p.Value = ag.point.Sum / float64(ag.point.Count)
	}
	return p
}

// parseTimeParam parses a query time parameter: RFC3339, unix seconds,
// unix nanoseconds, or a relative offset like "-15m" against now.
func parseTimeParam(v string, now time.Time) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if strings.HasPrefix(v, "-") {
		d, err := time.ParseDuration(v)
		if err != nil {
			return time.Time{}, fmt.Errorf("bad relative time %q: %w", v, err)
		}
		return now.Add(d), nil
	}
	if n, err := strconv.ParseInt(v, 10, 64); err == nil {
		// Heuristic: values past the year ~2262 in seconds are nanos.
		if n > 1e15 {
			return time.Unix(0, n), nil
		}
		return time.Unix(n, 0), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad time %q (want RFC3339, unix, or -duration)", v)
	}
	return t, nil
}

// ParseQuery builds QueryOptions from /metrics/history URL parameters:
// family (required), match=k=v (repeatable), since, until, step,
// quantile, res.
func ParseQuery(r *http.Request) (QueryOptions, error) {
	var opts QueryOptions
	q := r.URL.Query()
	opts.Family = q.Get("family")
	if opts.Family == "" {
		return opts, fmt.Errorf("missing required parameter: family")
	}
	for _, m := range q["match"] {
		k, v, ok := strings.Cut(m, "=")
		if !ok || k == "" {
			return opts, fmt.Errorf("bad match %q (want key=value)", m)
		}
		opts.Matchers = append(opts.Matchers, telemetry.L(k, v))
	}
	now := time.Now()
	var err error
	if opts.Since, err = parseTimeParam(q.Get("since"), now); err != nil {
		return opts, err
	}
	if opts.Until, err = parseTimeParam(q.Get("until"), now); err != nil {
		return opts, err
	}
	if sv := q.Get("step"); sv != "" {
		d, err := time.ParseDuration(sv)
		if err != nil || d <= 0 {
			return opts, fmt.Errorf("bad step %q", sv)
		}
		opts.Step = d
	}
	if qv := q.Get("quantile"); qv != "" {
		f, err := strconv.ParseFloat(qv, 64)
		if err != nil || f < 0 || f >= 1 || math.IsNaN(f) {
			return opts, fmt.Errorf("bad quantile %q (want [0,1))", qv)
		}
		opts.Quantile = f
	}
	opts.Resolution = q.Get("res")
	return opts, nil
}

// Handler serves /metrics/history range reads as JSON.  A nil store
// serves 404 "history disabled", so callers can mount unconditionally.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.Error(w, "history disabled (run with -history)", http.StatusNotFound)
			return
		}
		opts, err := ParseQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := s.Query(opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	})
}
