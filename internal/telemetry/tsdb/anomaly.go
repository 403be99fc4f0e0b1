// anomaly.go: a robust-statistics anomaly detector over sampled series.
// Each Target tracks an EWMA of its value (the level) and an EWMA of the
// absolute deviation from that level (a streaming stand-in for the MAD);
// the anomaly score of a new value is its deviation in robust sigmas,
// |v − level| / (1.4826·mad + ε), with ε floored at a few percent of the
// level so quiet series don't alarm on noise.  Scores are computed on
// every sampler tick that observed the target; a Target flips active
// after anomalyHold consecutive ticks over AnomalyThreshold and adapts
// only slowly while active (the baseline is mostly frozen), so a genuine
// regression stays flagged instead of being absorbed.
//
// The detector registers anomaly_score / anomaly_active /
// anomaly_events_total gauge+counter families (so anomaly state is
// itself sampled into history) and exposes a health burn source per
// target, letting an anomaly participate in the SLO evaluator exactly
// like a latency or ratio objective — OnTransition fires, the flight
// recorder dumps, degraded mode sheds.
//
// On restart, WarmupFromStore replays stored raw history through the
// baseline (without scoring), so the detector resumes with yesterday's
// notion of normal instead of re-learning from scratch.
package tsdb

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Target is one series (or label-matched slice of a family) to watch.
type Target struct {
	// Name labels the target in anomaly_* metrics and health SLOs.
	Name string
	// Family is the metric family to evaluate.
	Family string
	// Matchers restrict which instances of the family contribute.
	Matchers []telemetry.Label
	// Quantile, for histogram families, evaluates each tick's merged
	// bucket deltas to this quantile (e.g. 0.99).  Zero on a histogram
	// evaluates the tick mean; ignored for counters (per-tick increase)
	// and gauges (sampled value).
	Quantile float64
}

// AnomalyThreshold is the robust-sigma score at which a tick counts as
// anomalous.
const AnomalyThreshold = 4

// The rest of the detector's fixed policy.
const (
	// anomalyWarmup is how many ticks a target must observe before it is
	// scored.
	anomalyWarmup = 12
	// anomalyHold is how many consecutive anomalous ticks flip a target
	// active.
	anomalyHold = 2
	// anomalyAlpha is the EWMA smoothing factor.
	anomalyAlpha = 0.2
	// warmupLookback is how much stored raw history WarmupFromStore
	// replays.
	warmupLookback = 30 * time.Minute
)

// DetectorConfig wires a Detector.
type DetectorConfig struct {
	// Targets are the watched series.
	Targets []Target
	// Metrics receives the anomaly_* families (nil is a no-op).
	Metrics *telemetry.Registry
}

// targetState is one target's streaming baseline.
type targetState struct {
	t Target

	n      int
	level  float64
	mad    float64
	score  float64
	streak int
	active bool
	reason string

	scoreG  *telemetry.Gauge
	activeG *telemetry.Gauge
	eventsC *telemetry.Counter
}

// Detector scores sampler ticks against per-target baselines.
type Detector struct {
	store *Store

	mu      sync.Mutex
	targets []*targetState
}

// NewDetector builds a detector over the given store's series.
func NewDetector(cfg DetectorConfig, store *Store) *Detector {
	d := &Detector{store: store}
	for _, t := range cfg.Targets {
		d.targets = append(d.targets, &targetState{
			t:       t,
			scoreG:  cfg.Metrics.Gauge("anomaly_score", "Latest robust-sigma anomaly score, by target.", telemetry.L("target", t.Name)),
			activeG: cfg.Metrics.Gauge("anomaly_active", "1 while the target is in an anomalous episode, by target.", telemetry.L("target", t.Name)),
			eventsC: cfg.Metrics.Counter("anomaly_events_total", "Anomalous episodes entered, by target.", telemetry.L("target", t.Name)),
		})
	}
	return d
}

// Observe scores one sampler tick; wire it via Sampler.OnSample.
func (d *Detector) Observe(ts time.Time, samples []Sample) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.targets {
		v, ok := d.tickValue(st.t, samples)
		if !ok {
			continue
		}
		d.score(st, v, true)
	}
}

// tickValue extracts a target's value from one tick's samples: merged
// bucket quantile (or mean) for histograms, summed increase for
// counters, mean sampled value for gauges.  ok is false when no sample
// matched.
func (d *Detector) tickValue(t Target, samples []Sample) (float64, bool) {
	var agg Point
	var kind telemetry.Kind
	matched := false
	for i := range samples {
		sm := &samples[i]
		sr, ok := d.store.lookupSeries(sm.SeriesID)
		if !ok || !matchSeries(sr, &QueryOptions{Family: t.Family, Matchers: t.Matchers}) {
			continue
		}
		kind = sr.Kind
		agg.merge(&sm.Point, sr.Kind)
		matched = true
	}
	if !matched {
		return 0, false
	}
	return pointValue(&agg, kind, t.Quantile), true
}

// pointValue evaluates an aggregate point per target semantics.
func pointValue(p *Point, kind telemetry.Kind, q float64) float64 {
	if kind == telemetry.KindHistogram {
		if p.HCount <= 0 {
			return 0
		}
		if q > 0 {
			return telemetry.QuantileOfCounts(p.HBuckets, q)
		}
		return p.HSum / float64(p.HCount)
	}
	if kind == telemetry.KindCounter {
		return p.Sum
	}
	if p.Count > 0 {
		return p.Sum / float64(p.Count)
	}
	return 0
}

// score folds one observation into a target's baseline and, when live,
// updates the anomaly state and metrics.  Warmup replays call it with
// live=false: baseline only, no scoring.
func (d *Detector) score(st *targetState, v float64, live bool) {
	alpha := anomalyAlpha
	if st.n == 0 {
		st.level, st.mad = v, 0
		st.n++
		return
	}
	dev := math.Abs(v - st.level)
	eps := 0.05 * math.Abs(st.level)
	if eps == 0 {
		eps = 1e-9
	}
	score := dev / (1.4826*st.mad + eps)
	anomalous := live && st.n >= anomalyWarmup && score >= AnomalyThreshold
	if anomalous {
		// Mostly freeze the baseline during an episode so a sustained
		// shift stays flagged; adapt at alpha/8 so it eventually resets.
		alpha /= 8
	}
	st.level += alpha * (v - st.level)
	st.mad += alpha * (dev - st.mad)
	st.n++
	if !live {
		return
	}
	st.score = score
	if anomalous {
		st.streak++
	} else {
		st.streak = 0
	}
	wasActive := st.active
	st.active = anomalous && (st.streak >= anomalyHold || wasActive)
	if st.active {
		st.reason = fmt.Sprintf("%s=%.3g is %.1f robust sigmas from level %.3g", st.t.Family, v, score, st.level)
	} else {
		st.reason = ""
	}
	if st.active && !wasActive {
		st.eventsC.Add(1)
	}
	st.scoreG.Set(score)
	if st.active {
		st.activeG.Set(1)
	} else {
		st.activeG.Set(0)
	}
}

// WarmupFromStore replays the last warmupLookback of stored raw history
// through every target's baseline without scoring, so a restarted process
// resumes with its pre-restart notion of normal.  Errors are ignored (an
// empty store warms nothing).
func (d *Detector) WarmupFromStore() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.targets {
		res, err := d.store.Query(QueryOptions{
			Family:     st.t.Family,
			Matchers:   st.t.Matchers,
			Since:      time.Now().Add(-warmupLookback),
			Quantile:   st.t.Quantile,
			Resolution: ResRaw,
		})
		if err != nil {
			continue
		}
		// Merge the matched series per step (the query already aggregated
		// within each series; cross-series merge uses the evaluated values).
		for _, sr := range res.Series {
			for _, p := range sr.Points {
				d.score(st, p.Value, false)
			}
		}
	}
}

// Status reports one target's current state (for health sources): the
// latest score, whether an episode is active, and a human-readable reason
// while one is.
func (d *Detector) Status(name string) (score float64, active bool, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range d.targets {
		if st.t.Name == name {
			return st.score, st.active, st.reason
		}
	}
	return 0, false, ""
}

// TargetNames lists the configured target names in order.
func (d *Detector) TargetNames() []string {
	names := make([]string, 0, len(d.targets))
	for _, st := range d.targets {
		names = append(names, st.t.Name)
	}
	return names
}
