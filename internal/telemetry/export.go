// export.go: snapshot-consistent reads of a Registry and their two
// serializations — Prometheus-style text exposition and JSON.  Output
// ordering is deterministic (families sorted by name, instances by label
// signature) so both formats are golden-testable.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below UpperBound, non-cumulative (each observation appears in
// exactly one bucket).
type Bucket struct {
	// UpperBound is the inclusive upper edge of the bucket; the final
	// bucket's bound serializes as "+Inf".
	UpperBound float64 `json:"le"`
	// Count is the number of observations that landed in this bucket.
	Count int64 `json:"count"`
	// ExemplarTraceID is the most recent trace id retained for this
	// bucket, as 16 lowercase hex digits (empty when the histogram does
	// not retain exemplars or none landed here yet).
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
	// ExemplarValue is the retained exemplar's observed value.
	ExemplarValue float64 `json:"exemplar_value,omitempty"`
	// ExemplarUnixNano is when the retained exemplar was observed.
	ExemplarUnixNano int64 `json:"exemplar_unix_nano,omitempty"`
}

// MarshalJSON renders the +Inf bound as the string "+Inf" (JSON has no
// infinity literal).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if b.UpperBound < inf() {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE               string  `json:"le"`
		Count            int64   `json:"count"`
		ExemplarTraceID  string  `json:"exemplar_trace_id,omitempty"`
		ExemplarValue    float64 `json:"exemplar_value,omitempty"`
		ExemplarUnixNano int64   `json:"exemplar_unix_nano,omitempty"`
	}{le, b.Count, b.ExemplarTraceID, b.ExemplarValue, b.ExemplarUnixNano})
}

// UnmarshalJSON is the inverse of MarshalJSON, so consumers of
// /metrics.json (cmd/imstop, scripts) can decode a Snapshot with the
// stdlib json package; the "+Inf" bound round-trips to math.Inf(1).
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE               string  `json:"le"`
		Count            int64   `json:"count"`
		ExemplarTraceID  string  `json:"exemplar_trace_id,omitempty"`
		ExemplarValue    float64 `json:"exemplar_value,omitempty"`
		ExemplarUnixNano int64   `json:"exemplar_unix_nano,omitempty"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.UpperBound = inf()
	} else {
		v, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bucket bound %q: %w", raw.LE, err)
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	b.ExemplarTraceID = raw.ExemplarTraceID
	b.ExemplarValue = raw.ExemplarValue
	b.ExemplarUnixNano = raw.ExemplarUnixNano
	return nil
}

func inf() float64 { return BucketUpperBound(NumBuckets - 1) }

// Metric is one metric instance in a snapshot.
type Metric struct {
	// Name is the family name.
	Name string `json:"name"`
	// Kind is "counter", "gauge" or "histogram".
	Kind string `json:"kind"`
	// Help is the family description.
	Help string `json:"help,omitempty"`
	// Labels are the instance's dimensions.
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge reading (absent for histograms).
	Value *float64 `json:"value,omitempty"`
	// Count and Sum summarize a histogram (absent otherwise).
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	// P50, P95 and P99 are quantile estimates derived from the log-scale
	// buckets (geometric bucket midpoints, within 2x by construction);
	// present only for non-empty histograms.
	P50 float64 `json:"p50,omitempty"`
	P95 float64 `json:"p95,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// WindowS is the duration actually covered by the rolling-window
	// fields below, in seconds — at most ExportWindow, shorter while
	// history is still accumulating, absent before the first rotation.
	WindowS float64 `json:"window_s,omitempty"`
	// WCount is the observation count inside the rolling window.
	WCount int64 `json:"wcount,omitempty"`
	// WP50, WP95 and WP99 are the rolling-window quantile estimates
	// (same estimator as P50/P95/P99); present only when the window holds
	// observations.
	WP50 float64 `json:"wp50,omitempty"`
	WP95 float64 `json:"wp95,omitempty"`
	WP99 float64 `json:"wp99,omitempty"`
	// Buckets are the non-empty histogram buckets.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	// Metrics lists every instance, sorted by family name then label
	// signature.
	Metrics []Metric `json:"metrics"`
}

// Snapshot copies the registry's current state as of time.Now; see
// SnapshotAt.
func (r *Registry) Snapshot() Snapshot {
	return r.SnapshotAt(time.Now())
}

// SnapshotAt copies the registry's current state, resolving rolling
// windows against the given instant (tests pass a fixed clock; everything
// else goes through Snapshot).  It first runs the registered OnSnapshot
// collectors, then reads every family.  It is safe under concurrent
// updates; histograms are internally consistent (count equals the sum of
// bucket counts by construction) and their rolling-window fields cover the
// trailing ExportWindow to WindowSlotDuration granularity.  A nil registry
// yields an empty snapshot.
func (r *Registry) SnapshotAt(now time.Time) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.instances))
		for k := range f.instances {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			in := f.instances[k]
			m := Metric{Name: f.name, Kind: f.kind.String(), Help: f.help}
			if len(in.labels) > 0 {
				m.Labels = map[string]string{}
				for _, l := range in.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(in.c.Value())
				m.Value = &v
			case KindGauge:
				v := in.g.Value()
				m.Value = &v
			case KindHistogram:
				counts := in.h.Counts()
				exemplars := in.h.Exemplars()
				for i, c := range counts {
					m.Count += c
					if c != 0 {
						b := Bucket{UpperBound: BucketUpperBound(i), Count: c}
						if e := exemplars[i]; e.TraceID != 0 {
							b.ExemplarTraceID = TraceID(e.TraceID).String()
							b.ExemplarValue = e.Value
							b.ExemplarUnixNano = e.UnixNano
						}
						m.Buckets = append(m.Buckets, b)
					}
				}
				m.Sum = in.h.Sum()
				if m.Count > 0 {
					m.P50 = QuantileOfCounts(counts, 0.50)
					m.P95 = QuantileOfCounts(counts, 0.95)
					m.P99 = QuantileOfCounts(counts, 0.99)
				}
				wcounts, covered := in.h.WindowCounts(now, ExportWindow)
				if covered > 0 {
					m.WindowS = covered.Seconds()
					for _, c := range wcounts {
						m.WCount += c
					}
					if m.WCount > 0 {
						m.WP50 = QuantileOfCounts(wcounts, 0.50)
						m.WP95 = QuantileOfCounts(wcounts, 0.95)
						m.WP99 = QuantileOfCounts(wcounts, 0.99)
					}
				}
			}
			s.Metrics = append(s.Metrics, m)
		}
	}
	return s
}

// FilterPrefix returns the snapshot restricted to metrics whose family
// name starts with any of the given prefixes (order preserved).  Empty
// prefixes are ignored; no usable prefix returns the snapshot unchanged.
func (s Snapshot) FilterPrefix(prefixes ...string) Snapshot {
	var keep []string
	for _, p := range prefixes {
		if p = strings.TrimSpace(p); p != "" {
			keep = append(keep, p)
		}
	}
	if len(keep) == 0 {
		return s
	}
	out := Snapshot{Metrics: make([]Metric, 0, len(s.Metrics))}
	for _, m := range s.Metrics {
		for _, p := range keep {
			if strings.HasPrefix(m.Name, p) {
				out.Metrics = append(out.Metrics, m)
				break
			}
		}
	}
	return out
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON snapshots the registry and serializes it as indented JSON.
// A nil registry writes an empty metrics list.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatLabels renders {k="v",...} (empty string for no labels), with an
// optional extra label appended (used for histogram "le").
func formatLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, escapeLabel(labels[k])))
	}
	if extraKey != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extraKey, extraVal))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value in the shortest round-trippable form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exemplarSuffix renders a bucket's retained exemplar in the OpenMetrics
// exemplar syntax — " # {trace_id=\"...\"} value timestamp" — or "" when
// the bucket holds none.
func exemplarSuffix(b Bucket) string {
	if b.ExemplarTraceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s",
		b.ExemplarTraceID,
		formatValue(b.ExemplarValue),
		strconv.FormatFloat(float64(b.ExemplarUnixNano)/1e9, 'f', 3, 64))
}

// WritePrometheus serializes the snapshot in the Prometheus text
// exposition format (# HELP / # TYPE lines, cumulative histogram buckets
// with an explicit +Inf bound, _sum and _count series).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range s.Metrics {
		if m.Name != lastFamily {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			lastFamily = m.Name
		}
		switch m.Kind {
		case "histogram":
			var cum int64
			for _, b := range m.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.UpperBound < inf() {
					le = formatValue(b.UpperBound)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", m.Name, formatLabels(m.Labels, "le", le), cum, exemplarSuffix(b)); err != nil {
					return err
				}
			}
			// Always close the series with the +Inf bound.
			if len(m.Buckets) == 0 || m.Buckets[len(m.Buckets)-1].UpperBound < inf() {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, formatLabels(m.Labels, "le", "+Inf"), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, formatLabels(m.Labels, "", ""), formatValue(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, formatLabels(m.Labels, "", ""), m.Count); err != nil {
				return err
			}
			if m.Count > 0 {
				for _, q := range []struct {
					suffix string
					value  float64
				}{{"p50", m.P50}, {"p95", m.P95}, {"p99", m.P99}} {
					if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", m.Name, q.suffix, formatLabels(m.Labels, "", ""), formatValue(q.value)); err != nil {
						return err
					}
				}
			}
			if m.WindowS > 0 {
				window := [][2]string{
					{"window_seconds", formatValue(m.WindowS)},
					{"window_count", strconv.FormatInt(m.WCount, 10)},
				}
				if m.WCount > 0 {
					window = append(window,
						[2]string{"window_p50", formatValue(m.WP50)},
						[2]string{"window_p95", formatValue(m.WP95)},
						[2]string{"window_p99", formatValue(m.WP99)})
				}
				for _, q := range window {
					if _, err := fmt.Fprintf(w, "%s_%s%s %s\n", m.Name, q[0], formatLabels(m.Labels, "", ""), q[1]); err != nil {
						return err
					}
				}
			}
		default:
			var v float64
			if m.Value != nil {
				v = *m.Value
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, formatLabels(m.Labels, "", ""), formatValue(v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus snapshots the registry and serializes it in the text
// exposition format.  A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}
