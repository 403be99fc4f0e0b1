// Package health turns raw telemetry into an admission decision: a set of
// declarative SLOs (latency objectives over windowed histograms, bad/total
// ratio budgets over counters) evaluated with multi-window burn rates —
// fast (1 m) to catch a regression as it happens, slow (10 m) to separate
// a blip from a sustained breach — yielding OK / DEGRADED / UNHEALTHY
// with a per-SLO reason an operator can act on.
//
// The burn-rate math follows the SRE error-budget playbook: with budget b
// (the tolerated bad fraction, e.g. 0.01 for a 99% objective) and observed
// bad fraction f over a window, the burn rate is f/b — 1 means the budget
// is being consumed exactly as fast as it accrues.  Status per SLO:
//
//	UNHEALTHY  when both the fast and slow windows burn at or above
//	           unhealthyBurn — the breach is severe and sustained;
//	           /readyz goes non-200 so load balancers stop sending traffic
//	DEGRADED   when the fast window burns at or above degradedBurn —
//	           the serving layer should tighten admission (acqserver halves
//	           its effective queue depth) while the budget is burning
//	OK         otherwise, including "insufficient data" (fewer than
//	           minEvents events in the fast window)
//
// The overall status is the worst per-SLO status.  Evaluation is pull
// driven: Tick (or the Run loop) samples counters into a
// telemetry.WindowRing and reads Histogram.WindowCounts — the same ring
// type and scrape-time rotation that feed the /metrics windowed families —
// so the evaluator adds no load to any hot path.
package health

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Status is a three-state health verdict, ordered by severity.
type Status int

// The three verdicts: Statuses order by severity so the overall status is
// a max over SLOs.
const (
	// OK means every objective is inside budget (or lacks data).
	OK Status = iota
	// Degraded means a fast-window burn: tighten admission, keep serving.
	Degraded
	// Unhealthy means a severe, sustained burn: stop sending traffic.
	Unhealthy
)

// String returns the operator-facing verdict name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Unhealthy:
		return "unhealthy"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// MarshalJSON renders the verdict as its lower-case name, so /readyz and
// imsload -json reports read naturally.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the verdict names written by MarshalJSON (unknown
// names read as OK so old consumers tolerate new states).
func (s *Status) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"degraded"`:
		*s = Degraded
	case `"unhealthy"`:
		*s = Unhealthy
	default:
		*s = OK
	}
	return nil
}

// The burn-rate policy every evaluator applies.
const (
	// fastWindow is the burn window that catches regressions as they
	// happen.
	fastWindow = time.Minute
	// slowWindow confirms a breach is sustained; the telemetry window
	// ring retains a little more than it (WindowSlots × WindowSlotDuration).
	slowWindow = 10 * time.Minute
	// degradedBurn is the fast-window burn rate at which an SLO turns
	// DEGRADED: budget consumed twice as fast as it accrues.
	degradedBurn = 2
	// unhealthyBurn is the burn rate that, sustained across both windows,
	// turns an SLO UNHEALTHY.
	unhealthyBurn = 10
	// minEvents is the fast-window event count below which an SLO reports
	// OK with reason "insufficient data" instead of flapping on a handful
	// of samples.
	minEvents = 20
)

// Config wires the evaluator.
type Config struct {
	// Metrics, when non-nil, receives the health_* gauge families
	// (health_status, health_slo_status, health_slo_burn) on every Tick,
	// so health rides the same /metrics surface as everything else.
	Metrics *telemetry.Registry
	// OnTransition, when non-nil, is called from Tick whenever the overall
	// status changes, outside the evaluator's lock (the callback may call
	// Status or Report freely).  The daemon wires the flight recorder's
	// black-box dump here, so every slide into DEGRADED/UNHEALTHY leaves
	// an incident file (see internal/telemetry/flightrec).
	OnTransition func(from, to Status, rep Report)
}

// LatencySLO declares a latency objective: at least Target of the
// observations across Hists must land at or under ThresholdNs.  The
// threshold rounds up to the enclosing power-of-two bucket bound (the
// within-2x granularity of telemetry histograms).
type LatencySLO struct {
	// Name identifies the SLO in reports and metric labels.
	Name string
	// Hists are the latency histograms pooled into one objective (e.g.
	// acq_stage_ns{stage="compute"} for both compute paths).
	Hists []*telemetry.Histogram
	// ThresholdNs is the latency objective in nanoseconds.
	ThresholdNs float64
	// Target is the required fraction of observations within threshold,
	// in (0,1) — e.g. 0.99; the error budget is 1−Target.
	Target float64
}

// RatioSLO declares a budget on a bad/total event ratio sampled from
// cumulative counter readings (shed rate, error rate).
type RatioSLO struct {
	// Name identifies the SLO in reports and metric labels.
	Name string
	// Bad returns the cumulative bad-event count (e.g. summed shed
	// counters).  Sampled on every Tick.
	Bad func() int64
	// Total returns the cumulative event count the budget is over.
	Total func() int64
	// Budget is the tolerated bad fraction in (0,1) — e.g. 0.05.
	Budget float64
}

// AnomalySLO declares an anomaly-detector-backed objective (see
// internal/telemetry/tsdb): Source is polled on every Tick and reports
// the detector's normalized burn (1.0 = the detector threshold), whether
// an anomalous episode is currently active, and a reason while one is.
// An active episode turns the SLO DEGRADED — anomalies tighten admission
// and trip OnTransition (flight-recorder dumps) but never force
// UNHEALTHY on their own, because a statistical detector should shed
// load, not take a backend out of rotation.
type AnomalySLO struct {
	// Name identifies the SLO in reports and metric labels.
	Name string
	// Source reports (burn, active, reason) for the current instant.
	Source func() (burn float64, active bool, reason string)
}

// ratioSample is one Tick's cumulative counter reading.
type ratioSample struct {
	bad, total int64
}

// slo is one registered objective plus its evaluation state.
type slo struct {
	name    string
	budget  float64
	latency *LatencySLO                       // nil unless a latency SLO
	ratio   *RatioSLO                         // nil unless a ratio SLO
	anomaly *AnomalySLO                       // nil unless an anomaly SLO
	ring    telemetry.WindowRing[ratioSample] // ratio SLOs only
	cur     ratioSample                       // the current Tick's fresh counter reading

	statusG   *telemetry.Gauge
	burnFastG *telemetry.Gauge
	burnSlowG *telemetry.Gauge
}

// SLOReport is one objective's verdict in a Report.
type SLOReport struct {
	// Name is the SLO's declared name.
	Name string `json:"name"`
	// Status is the per-SLO verdict.
	Status Status `json:"status"`
	// Reason explains a non-OK verdict (or notes insufficient data).
	Reason string `json:"reason,omitempty"`
	// BurnFast and BurnSlow are the budget burn rates over the two
	// windows (1 = consuming budget exactly as fast as it accrues).
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// BadFast and TotalFast are the fast-window event counts behind
	// BurnFast.
	BadFast   int64 `json:"bad_fast"`
	TotalFast int64 `json:"total_fast"`
}

// Report is one evaluation's full outcome.
type Report struct {
	// Status is the overall verdict: the worst per-SLO status.
	Status Status `json:"status"`
	// SLOs lists every objective in registration order.
	SLOs []SLOReport `json:"slos"`
}

// Evaluator holds the declared SLOs and their last verdict.  Construct
// with New, add objectives, then drive with Tick or Run.  Safe for
// concurrent use; Status and Report are cheap enough for per-request
// admission checks.
type Evaluator struct {
	cfg Config

	mu   sync.Mutex
	slos []*slo
	last Report

	overallG *telemetry.Gauge
}

// New builds an evaluator wired as cfg says.
func New(cfg Config) *Evaluator {
	e := &Evaluator{cfg: cfg}
	e.overallG = cfg.Metrics.Gauge("health_status",
		"overall health verdict: 0 ok, 1 degraded, 2 unhealthy")
	e.last = Report{Status: OK}
	return e
}

// newSLO wires the shared per-SLO state and gauges.
func (e *Evaluator) newSLO(name string, budget float64) *slo {
	l := telemetry.L("slo", name)
	return &slo{
		name:    name,
		budget:  budget,
		statusG: e.cfg.Metrics.Gauge("health_slo_status", "per-SLO verdict: 0 ok, 1 degraded, 2 unhealthy", l),
		burnFastG: e.cfg.Metrics.Gauge("health_slo_burn", "error-budget burn rate per window",
			l, telemetry.L("window", "fast")),
		burnSlowG: e.cfg.Metrics.Gauge("health_slo_burn", "error-budget burn rate per window",
			l, telemetry.L("window", "slow")),
	}
}

// AddLatency registers a latency objective.  Invalid declarations (no
// histograms, Target outside (0,1)) panic: SLOs are wired at startup and a
// bad one is a programming error.
func (e *Evaluator) AddLatency(s LatencySLO) {
	if len(s.Hists) == 0 || s.Target <= 0 || s.Target >= 1 || s.ThresholdNs <= 0 {
		panic(fmt.Sprintf("health: invalid latency SLO %q", s.Name))
	}
	decl := s
	sl := e.newSLO(s.Name, 1-s.Target)
	sl.latency = &decl
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slos = append(e.slos, sl)
}

// AddRatio registers a bad/total ratio budget.  Invalid declarations (nil
// samplers, Budget outside (0,1)) panic.
func (e *Evaluator) AddRatio(s RatioSLO) {
	if s.Bad == nil || s.Total == nil || s.Budget <= 0 || s.Budget >= 1 {
		panic(fmt.Sprintf("health: invalid ratio SLO %q", s.Name))
	}
	decl := s
	sl := e.newSLO(s.Name, s.Budget)
	sl.ratio = &decl
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slos = append(e.slos, sl)
}

// AddAnomaly registers an anomaly-detector-backed objective.  A nil
// Source panics, matching the other Add* validations.
func (e *Evaluator) AddAnomaly(s AnomalySLO) {
	if s.Source == nil {
		panic(fmt.Sprintf("health: invalid anomaly SLO %q", s.Name))
	}
	decl := s
	sl := e.newSLO(s.Name, 1)
	sl.anomaly = &decl
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slos = append(e.slos, sl)
}

// latencyThresholdBucket returns the first bucket index whose upper bound
// covers the threshold; observations in later buckets count against the
// budget.
func latencyThresholdBucket(thresholdNs float64) int {
	for i := 0; i < telemetry.NumBuckets; i++ {
		if telemetry.BucketUpperBound(i) >= thresholdNs {
			return i
		}
	}
	return telemetry.NumBuckets - 1
}

// window computes one SLO's (bad, total) over a window ending at now.
func (sl *slo) window(now time.Time, w time.Duration) (bad, total int64) {
	switch {
	case sl.latency != nil:
		cut := latencyThresholdBucket(sl.latency.ThresholdNs)
		for _, h := range sl.latency.Hists {
			counts, _ := h.WindowCounts(now, w)
			for i, c := range counts {
				total += c
				if i > cut {
					bad += c
				}
			}
		}
	case sl.ratio != nil:
		base, _ := sl.ring.Baseline(now, w)
		if base == nil {
			return 0, 0
		}
		bad = sl.cur.bad - base.bad
		total = sl.cur.total - base.total
		if bad < 0 {
			bad = 0
		}
		if total < 0 {
			total = 0
		}
	}
	return bad, total
}

// Tick samples every SLO's sources, evaluates burn rates against both
// windows as of now, stores and returns the Report, and refreshes the
// health_* gauges.  When the overall status changes, Config.OnTransition
// fires after the lock is released.  Drive it from Run or call it directly
// (tests pass a synthetic clock).
func (e *Evaluator) Tick(now time.Time) Report {
	e.mu.Lock()
	rep := Report{Status: OK, SLOs: make([]SLOReport, 0, len(e.slos))}
	for _, sl := range e.slos {
		if sl.ratio != nil {
			sl.cur = ratioSample{bad: sl.ratio.Bad(), total: sl.ratio.Total()}
			if s := sl.ring.Push(now); s != nil {
				*s = sl.cur
			}
		}
		sr := e.evaluate(sl, now)
		if sr.Status > rep.Status {
			rep.Status = sr.Status
		}
		sl.statusG.Set(float64(sr.Status))
		sl.burnFastG.Set(sr.BurnFast)
		sl.burnSlowG.Set(sr.BurnSlow)
		rep.SLOs = append(rep.SLOs, sr)
	}
	e.overallG.Set(float64(rep.Status))
	prev := e.last.Status
	e.last = rep
	e.mu.Unlock()
	if rep.Status != prev && e.cfg.OnTransition != nil {
		e.cfg.OnTransition(prev, rep.Status, rep)
	}
	return rep
}

// evaluate computes one SLO's verdict at now.  The caller holds e.mu.
func (e *Evaluator) evaluate(sl *slo, now time.Time) SLOReport {
	if sl.anomaly != nil {
		burn, active, reason := sl.anomaly.Source()
		sr := SLOReport{Name: sl.name, BurnFast: burn, BurnSlow: burn}
		if active {
			sr.Status = Degraded
			sr.Reason = reason
			if sr.Reason == "" {
				sr.Reason = fmt.Sprintf("anomaly detector active (burn %.1fx)", burn)
			}
		}
		return sr
	}
	badFast, totalFast := sl.window(now, fastWindow)
	badSlow, totalSlow := sl.window(now, slowWindow)
	sr := SLOReport{Name: sl.name, BadFast: badFast, TotalFast: totalFast}
	if totalFast > 0 {
		sr.BurnFast = (float64(badFast) / float64(totalFast)) / sl.budget
	}
	if totalSlow > 0 {
		sr.BurnSlow = (float64(badSlow) / float64(totalSlow)) / sl.budget
	}
	switch {
	case totalFast < minEvents:
		sr.Status = OK
		sr.Reason = fmt.Sprintf("insufficient data (%d events in fast window)", totalFast)
	case sr.BurnFast >= unhealthyBurn && sr.BurnSlow >= unhealthyBurn:
		sr.Status = Unhealthy
		sr.Reason = fmt.Sprintf("budget burning %.1fx fast / %.1fx slow (threshold %.1fx sustained)",
			sr.BurnFast, sr.BurnSlow, float64(unhealthyBurn))
	case sr.BurnFast >= degradedBurn:
		sr.Status = Degraded
		sr.Reason = fmt.Sprintf("budget burning %.1fx over the fast window (threshold %.1fx)",
			sr.BurnFast, float64(degradedBurn))
	default:
		sr.Status = OK
	}
	return sr
}

// Report returns the most recent Tick's outcome (an all-OK empty report
// before the first Tick).
func (e *Evaluator) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// Status returns the most recent overall verdict — cheap enough to call
// per admission decision.
func (e *Evaluator) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last.Status
}

// Run ticks the evaluator every interval until ctx is cancelled — the
// daemon's health loop.  It ticks once immediately so /readyz has a
// verdict before the first interval elapses.
func (e *Evaluator) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	e.Tick(time.Now())
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			e.Tick(now)
		}
	}
}
