// Package flightrec is the wide-event flight recorder: a lock-free ring
// holding one structured event per completed request — trace identity,
// session, queue shard, stage durations, routing attribution, frame-log
// sequence, outcome — emitted by acqserver and the gateway at
// response-write time.  Where a metric says "the p99 went red" and a trace
// says "this request spent 80 ms in the queue", the flight recorder is the
// joining layer: the last N requests, each as one row with every dimension
// attached, queryable live over /debug/events and dumped to disk as a
// black-box file when an incident trips (SLO transition to
// DEGRADED/UNHEALTHY, panic isolation).
//
// The ring is a fixed slice of atomic pointers indexed by a monotonically
// increasing sequence: writers claim a slot with one atomic add and
// publish an immutable *Event with one atomic store, so recording never
// blocks a worker and readers never observe a torn event (they may see a
// slot mid-overwrite as either generation, both complete).  Overwritten
// events are simply lost — the recorder is a black box, not a log; the
// frame log (internal/framelog) is the durable record.
//
// Families registered here (see docs/OBSERVABILITY.md): flightrec_events_total,
// flightrec_dumps_total, flightrec_dump_errors_total.
package flightrec

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Event is one wide event: everything known about one completed request,
// flattened into a single row.  Zero-valued fields are omitted from JSON,
// so acqserver events carry shard/queue/WAL dimensions and gateway events
// carry backend/attempt dimensions without either polluting the other.
type Event struct {
	// Seq is the recorder-assigned sequence number (1-based, monotonic);
	// filled by Record.
	Seq uint64 `json:"seq"`
	// UnixNano is when the event was recorded; filled by Record when zero.
	UnixNano int64 `json:"unix_nano"`
	// Source names the emitting tier: "acqserver" or "gateway".
	Source string `json:"source"`
	// TraceID is the request's trace identity as telemetry.TraceID spells
	// it (16 lowercase hex digits, as /debug/traces, the exemplars and the
	// logs do), empty when tracing was off.
	TraceID string `json:"trace_id,omitempty"`
	// Session is the emitting tier's session id.
	Session uint64 `json:"session"`
	// ReqID is the client-assigned request id within the session.
	ReqID uint64 `json:"req_id"`
	// Order is the PRS (m-sequence) order served, acqserver events only.
	Order int `json:"prs_order,omitempty"`
	// Shard is the queue shard that served the frame (acqserver only).
	Shard int `json:"shard,omitempty"`
	// Path is the compute path ("hybrid", "cpu"), acqserver events only.
	Path string `json:"path,omitempty"`
	// QueueWaitNs is the time the frame sat in its shard queue.
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	// ProcessNs is the deconvolution (decode) wall time.
	ProcessNs int64 `json:"process_ns,omitempty"`
	// WriteNs is the response write time.
	WriteNs int64 `json:"write_ns,omitempty"`
	// TotalNs is the request's end-to-end time.  acqserver sets it to the
	// round trip, from the FRAME's first payload byte read to its response
	// written (to the answer, for a response never written); Record
	// derives it from Start when zero (the gateway's accept to response).
	TotalNs int64 `json:"total_ns,omitempty"`
	// Backend is the 1-based fleet member id that served the request
	// (gateway events; matches the RESULT routing trailer).
	Backend uint16 `json:"backend,omitempty"`
	// BackendAddr is the serving backend's address (gateway events).
	BackendAddr string `json:"backend_addr,omitempty"`
	// Attempts counts upstream attempts including sibling retries.
	Attempts uint8 `json:"attempts,omitempty"`
	// WALSeq is the frame-log sequence the frame was appended under
	// (0 = not logged).
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Outcome is the response status code string ("OK", "INTERNAL", ...).
	Outcome string `json:"outcome"`
	// ShedReason names the load-shedding reason when the request was shed
	// ("queue_full", "degraded", "draining", "no_backend").
	ShedReason string `json:"shed_reason,omitempty"`
	// Detail carries the error message of a non-OK outcome, truncated.
	Detail string `json:"detail,omitempty"`
	// CoalesceBatch is how many frames were gathered into this frame's
	// batch (0 or 1 = served alone; acqserver events only).
	CoalesceBatch int `json:"coalesce_batch,omitempty"`
	// CoalesceWaitNs is the time from the frame's pickup to its own
	// compute: the gather for batch-mates, and any computed before it.
	CoalesceWaitNs int64 `json:"coalesce_wait_ns,omitempty"`

	// Start, when non-zero, is the request's accept time; Record derives
	// TotalNs from it.  Never serialized.
	Start time.Time `json:"-"`
}

// maxDetailLen bounds Event.Detail so one pathological error message
// cannot bloat the ring or a dump.
const maxDetailLen = 256

// RingSize is the recorder's capacity in events.
const RingSize = 4096

// What the recorder fixes about its black-box dumps: how many files it
// keeps (the oldest beyond are deleted after each dump), and the rate
// limit — a Dump within minDumpInterval of the previous one is skipped.
// Incidents arrive in bursts: one black box per burst is the point, a dump
// per panic is an outage amplifier.
const (
	dumpRetain      = 16
	minDumpInterval = 10 * time.Second
)

// Config wires a Recorder.
type Config struct {
	// Metrics, when non-nil, receives the flightrec_* families.
	Metrics *telemetry.Registry
	// DumpDir, when set, is where Dump writes black-box files; empty
	// disables dumping (Dump becomes a counted no-op).
	DumpDir string
	// Logger, when non-nil, receives dump lifecycle events.
	Logger *slog.Logger
}

// Recorder is the lock-free wide-event ring.  Methods on a nil *Recorder
// are no-ops, so call sites wire it unconditionally like every other
// telemetry handle.
type Recorder struct {
	slots [RingSize]atomic.Pointer[Event]
	head  atomic.Uint64 // last claimed sequence (0 = nothing recorded)

	dumpDir  string
	lastDump atomic.Int64 // unix nanos of the last accepted Dump
	dumpMu   sync.Mutex   // serializes dump file writes + retention
	log      *slog.Logger

	events     *telemetry.Counter
	dumps      *telemetry.Counter
	dumpErrors *telemetry.Counter
}

// New builds a recorder wired as cfg says.
func New(cfg Config) *Recorder {
	return &Recorder{
		dumpDir:    cfg.DumpDir,
		log:        cfg.Logger,
		events:     cfg.Metrics.Counter("flightrec_events_total", "wide events recorded into the flight-recorder ring"),
		dumps:      cfg.Metrics.Counter("flightrec_dumps_total", "black-box dump files written on incident trips"),
		dumpErrors: cfg.Metrics.Counter("flightrec_dump_errors_total", "flight-recorder dumps that failed or were rate-limited"),
	}
}

// Record publishes one event into the ring: assigns its sequence, stamps
// its time and total duration when unset, truncates the detail, and stores
// it.  One atomic add plus one atomic store; safe from any goroutine.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	now := time.Now()
	e.Seq = r.head.Add(1)
	if e.UnixNano == 0 {
		e.UnixNano = now.UnixNano()
	}
	if e.TotalNs == 0 && !e.Start.IsZero() {
		e.TotalNs = now.Sub(e.Start).Nanoseconds()
	}
	e.Start = time.Time{}
	if len(e.Detail) > maxDetailLen {
		e.Detail = e.Detail[:maxDetailLen]
	}
	r.slots[e.Seq%RingSize].Store(&e)
	r.events.Inc()
}

// LastSeq returns the most recently assigned sequence (0 before the first
// Record, 0 on a nil receiver).
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Filter selects events out of a Snapshot; the zero Filter selects all.
type Filter struct {
	// SinceSeq drops events at or below this sequence.
	SinceSeq uint64
	// Since drops events recorded before this instant (zero = no bound).
	Since time.Time
	// Outcome, when non-empty, keeps only events with this outcome code
	// (case-insensitive).
	Outcome string
	// MinTotal keeps only events whose TotalNs meets this duration.
	MinTotal time.Duration
	// Source, when non-empty, keeps only events from this tier.
	Source string
	// Limit keeps only the newest N matching events (≤0 = all).
	Limit int
}

// Snapshot copies the ring's current matching events, oldest first.  It
// reads each slot once; events overwritten mid-iteration appear as either
// generation, never torn.  Nil receivers return nil.
func (r *Recorder) Snapshot(f Filter) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		ep := r.slots[i].Load()
		if ep == nil {
			continue
		}
		e := *ep
		if e.Seq <= f.SinceSeq {
			continue
		}
		if !f.Since.IsZero() && e.UnixNano < f.Since.UnixNano() {
			continue
		}
		if f.Outcome != "" && !strings.EqualFold(e.Outcome, f.Outcome) {
			continue
		}
		if f.MinTotal > 0 && e.TotalNs < f.MinTotal.Nanoseconds() {
			continue
		}
		if f.Source != "" && e.Source != f.Source {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// dumpFile is the on-disk shape of one black-box dump.
type dumpFile struct {
	// Reason names the incident that tripped the dump.
	Reason string `json:"reason"`
	// UnixNano is when the dump was written.
	UnixNano int64 `json:"unix_nano"`
	// LastSeq is the newest sequence assigned at dump time.
	LastSeq uint64 `json:"last_seq"`
	// Events is the full ring content, oldest first.
	Events []Event `json:"events"`
}

// Dump writes the ring's full content as a black-box JSON file named
// flightrec-<reason>-<unixnano>.json under the configured dump directory,
// then prunes dumps beyond the newest dumpRetain.  Dumps within
// minDumpInterval of the previous accepted one are skipped (counted under
// flightrec_dump_errors_total), as are dumps with no directory configured.
// It returns the written path ("" when skipped).
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil || r.dumpDir == "" {
		return "", nil
	}
	now := time.Now()
	last := r.lastDump.Load()
	if last != 0 && now.UnixNano()-last < minDumpInterval.Nanoseconds() {
		r.dumpErrors.Inc()
		return "", nil
	}
	if !r.lastDump.CompareAndSwap(last, now.UnixNano()) {
		r.dumpErrors.Inc()
		return "", nil // concurrent trip won the race; one black box suffices
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if err := os.MkdirAll(r.dumpDir, 0o755); err != nil {
		r.dumpErrors.Inc()
		return "", err
	}
	d := dumpFile{
		Reason:   sanitizeReason(reason),
		UnixNano: now.UnixNano(),
		LastSeq:  r.LastSeq(),
		Events:   r.Snapshot(Filter{}),
	}
	path := filepath.Join(r.dumpDir, fmt.Sprintf("flightrec-%s-%d.json", d.Reason, d.UnixNano))
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		r.dumpErrors.Inc()
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		r.dumpErrors.Inc()
		return "", err
	}
	r.dumps.Inc()
	if r.log != nil {
		r.log.Info("flight recorder dumped", "reason", d.Reason, "path", path, "events", len(d.Events))
	}
	r.prune()
	return path, nil
}

// sanitizeReason makes an incident reason safe as a filename fragment.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	return strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		}
		return '_'
	}, reason)
}

// prune deletes the oldest dump files beyond the newest dumpRetain.  The
// caller holds dumpMu.
func (r *Recorder) prune() {
	matches, err := filepath.Glob(filepath.Join(r.dumpDir, "flightrec-*.json"))
	if err != nil || len(matches) <= dumpRetain {
		return
	}
	// Reasons vary in length, so sort by the embedded unix-nano suffix
	// rather than lexically: age order regardless of reason.
	sort.Slice(matches, func(i, j int) bool { return dumpStamp(matches[i]) < dumpStamp(matches[j]) })
	for _, old := range matches[:len(matches)-dumpRetain] {
		if err := os.Remove(old); err == nil && r.log != nil {
			r.log.Debug("flight recorder dump pruned", "path", old)
		}
	}
}

// dumpStamp extracts the unix-nano suffix of a dump filename (0 when the
// name does not parse, sorting unparseable files first for deletion).
func dumpStamp(path string) int64 {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	i := strings.LastIndexByte(base, '-')
	if i < 0 {
		return 0
	}
	var n int64
	for _, c := range base[i+1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}
