// Package acqserver is the frame-acquisition service: the network layer
// that turns the repository's in-process hybrid pipeline into a daemon
// serving many concurrent clients.  It speaks the IMSP/1 length-prefixed
// protocol over TCP (wire.go); per-client sessions decode frameio-encoded
// frames straight off the socket and enqueue them into N sharded, bounded
// work queues feeding worker pools that run the modeled FPGA offload
// (hybrid.Offloader.DeconvolveProfileInto) or the CPU path, selectable per
// request.  Both answer with a frame's drift profile: the hybrid path
// reduces each modeled tile into it, and the CPU path transforms the
// frame's row sums once (hadamard.FHTDecoder.DecodeTo), since every
// decoder is linear.  No output frame is taken, stored or re-read.
//
// The data plane allocates nothing payload-sized in steady state: input
// frames are decoded by frameio.ReadCounts straight into frames from a
// sync.Pool-backed instrument.FramePool — int32 counts for every integral
// frame (4 bytes a cell), float cells for the rest — each worker keeps its
// own CPU-path decoder, the hybrid path's offloaders are borrowed per task
// from a pool, and large messages leave through writev instead of being
// copied behind their header.  The garbage collector can empty every pool, so an
// idle daemon retains none of it (ownership rules: docs/PERFORMANCE.md).
//
// The serving stack is explicit about its unhappy paths: full shard queues
// shed load with RESOURCE_EXHAUSTED instead of blocking, per-request
// deadlines cancel in-flight work through context propagation, slow
// readers are cut off by write timeouts, idle or half-dead connections by
// read timeouts, a recovered panic answers INTERNAL and never takes the
// daemon down, and SIGTERM triggers a graceful drain that completes queued
// frames before closing sessions.  Every stage is wired into
// internal/telemetry under the acq_* metric families (docs/OBSERVABILITY.md).
package acqserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// Config tunes the daemon.  The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Shards is the number of independent bounded work queues.  A session
	// is pinned to shard (session id mod Shards), so one hot client
	// cannot starve every queue.
	Shards int
	// QueueDepth bounds each shard's queue; an enqueue against a full
	// queue is shed with RESOURCE_EXHAUSTED.  Queued frames are already
	// decoded, so worst-case queue memory is
	// Shards × QueueDepth × (8 × drift bins × TOF bins) bytes — half that
	// when every frame is integral and held as int32 counts.
	QueueDepth int
	// WorkersPerShard is each shard's worker-pool size.
	WorkersPerShard int
	// Order is the m-sequence order served; frames must arrive with
	// drift bins = 2^Order − 1 or are rejected with INVALID_ARGUMENT.
	Order int
	// MaxTOFBins caps the m/z axis of accepted frames.
	MaxTOFBins int
	// MaxPayloadBytes caps one message payload on the wire.
	MaxPayloadBytes uint32
	// ReadIdleTimeout bounds the wait for the next message header and the
	// read of one message body; an idle or half-dead connection is closed
	// when it expires.
	ReadIdleTimeout time.Duration
	// WriteTimeout bounds one response write; a slow reader whose socket
	// stays full past it has its session torn down.
	WriteTimeout time.Duration
	// SessionBuffer bounds each session's pending-response queue.
	SessionBuffer int
	// CPUWorkersPerFrame was the column parallelism of the CPU path's
	// tile decode.
	//
	// Deprecated: serving ignores it — the CPU path is one transform of a
	// frame's row sums per worker.  It stays only for callers that still
	// read it, and goes with the benchmark's re-base (ROADMAP item 1A).
	CPUWorkersPerFrame int
	// CoalesceWindow enables server-side gathering when positive: a worker
	// that picks up a CPU-path frame waits up to this long for same-shard
	// frames from other sessions, then serves the gathered frames one after
	// another, each checked against its own deadline just before its own
	// compute.  Zero disables gathering and preserves the frame-at-a-time
	// worker loop.
	CoalesceWindow time.Duration
	// CoalesceFillTarget dispatches a gathering batch early once it holds
	// this many frames (the window is the latency bound, the fill target
	// the throughput bound).  Must be >= 2 when CoalesceWindow is set.
	CoalesceFillTarget int
	// MinSNR is the peak-detection threshold for result summaries.
	MinSNR float64
	// MaxPeaks caps the peak list carried in one RESULT (≤ 64).
	MaxPeaks int
	// Metrics, when non-nil, receives the acq_* families.
	Metrics *telemetry.Registry
	// DegradedMode, when non-nil, is polled on every enqueue; while it
	// reports true the server tightens load shedding by halving each
	// shard's effective queue depth, trading throughput for latency so an
	// already-burning error budget recovers instead of compounding.  The
	// health evaluator's Status is the intended source (see
	// internal/telemetry/health).  Frames shed this way are counted under
	// acq_shed_total{reason="degraded"}.
	DegradedMode func() bool
	// Trace, when non-nil, records a span tree per frame (socket read,
	// queue wait, worker, modeled FPGA stages, response write).  Nil
	// disables tracing at nil-check cost per span site.
	Trace *trace.Tracer
	// Logger, when non-nil, receives structured session/frame events with
	// trace and request ids attached.  Nil discards them.
	Logger *slog.Logger
	// Offload configures the modeled FPGA backend.  Its Order and Metrics
	// are overridden by the fields above.
	Offload hybrid.OffloadConfig
	// FrameLog, when non-nil, is the durable write-ahead log: every
	// accepted frame's verbatim payload is appended before the frame is
	// enqueued, completions are marked as workers finish, and Shutdown
	// seals the log after the drain.  When the log's fsync policy is not
	// "always", results carry ResultFlagNotDurable.  The server does not
	// own the log's lifecycle beyond Shutdown's close.
	FrameLog *framelog.Log
	// FlightRecorder, when non-nil, receives one wide event per answered
	// frame — recorded at response-write time with the full request
	// anatomy (shard, queue wait, decode time, write time, WAL sequence,
	// outcome, shed reason) — and a black-box dump request on every
	// recovered panic.  Nil disables recording at nil-check cost.
	FlightRecorder *flightrec.Recorder

	// processHook, when non-nil, replaces the compute step — a test seam
	// for deterministic shedding, drain and panic-isolation tests.  It must
	// be set before NewServer so the worker pools observe it.
	processHook func(*task) (*Result, error)
}

// DefaultConfig returns production-shaped defaults: 4 shards × depth 16,
// 2 workers each, the paper's order-9 sequence, 16 MiB payload bound and
// second-scale timeouts.
func DefaultConfig() Config {
	return Config{
		Shards:             4,
		QueueDepth:         16,
		WorkersPerShard:    2,
		Order:              9,
		MaxTOFBins:         4096,
		MaxPayloadBytes:    16 << 20,
		ReadIdleTimeout:    30 * time.Second,
		WriteTimeout:       10 * time.Second,
		SessionBuffer:      32,
		CPUWorkersPerFrame: 2,
		MinSNR:             5,
		MaxPeaks:           16,
		CoalesceFillTarget: 8,
		Offload:            hybrid.DefaultOffloadConfig(),
	}
}

// Validate reports the first unusable setting.
func (c Config) Validate() error {
	if c.Shards < 1 || c.QueueDepth < 1 || c.WorkersPerShard < 1 {
		return fmt.Errorf("acqserver: shards/depth/workers must be positive (%d/%d/%d)",
			c.Shards, c.QueueDepth, c.WorkersPerShard)
	}
	if c.Order < 2 || c.Order > 20 {
		return fmt.Errorf("acqserver: order %d out of [2,20]", c.Order)
	}
	if c.MaxTOFBins < 1 {
		return fmt.Errorf("acqserver: max TOF bins %d must be positive", c.MaxTOFBins)
	}
	if c.MaxPayloadBytes < 64 {
		return fmt.Errorf("acqserver: max payload %d bytes is too small to carry a frame", c.MaxPayloadBytes)
	}
	if c.ReadIdleTimeout <= 0 || c.WriteTimeout <= 0 {
		return fmt.Errorf("acqserver: timeouts must be positive")
	}
	if c.SessionBuffer < 1 {
		return fmt.Errorf("acqserver: session buffer %d must be positive", c.SessionBuffer)
	}
	if c.CoalesceWindow < 0 {
		return fmt.Errorf("acqserver: coalesce window %v must not be negative", c.CoalesceWindow)
	}
	if c.CoalesceWindow > 0 && (c.CoalesceFillTarget < 2 || c.CoalesceFillTarget > 256) {
		return fmt.Errorf("acqserver: coalesce fill target %d out of [2,256]", c.CoalesceFillTarget)
	}
	if c.MinSNR <= 0 {
		return fmt.Errorf("acqserver: min SNR %g must be positive", c.MinSNR)
	}
	if c.MaxPeaks < 0 || c.MaxPeaks > maxResultPeaks {
		return fmt.Errorf("acqserver: max peaks %d out of [0,%d]", c.MaxPeaks, maxResultPeaks)
	}
	return nil
}

// task is one accepted frame waiting for (or undergoing) deconvolution.
// A nil sess marks a frame re-enqueued from the frame log by crash
// recovery: it has no client to answer, only a completion to mark.
type task struct {
	sess     *session
	reqID    uint64
	traceID  uint64
	in       input // the decoded frame; held until finish
	path     Path
	deadline time.Time // zero = none
	enqueued time.Time
	root     trace.Span // frame root; ended by the write loop
	qspan    trace.Span // queue_wait; ended when a worker picks the task up

	// walSeq is the frame's frame-log sequence number (0 = not logged);
	// walNotDurable records that the append was acknowledged before fsync.
	walSeq        uint64
	walNotDurable bool

	// picked is when a worker claimed the task (pickup) and qwait the queue
	// wait measured then; both are zero on a frame shed at the door.  cspan
	// is the member's coalesce_wait span (inert unless the server coalesces)
	// and wspan its worker span while a run computes it.
	picked time.Time
	qwait  time.Duration
	cspan  trace.Span
	wspan  trace.Span
}

// errQueueFull, errDraining and errDegraded discriminate enqueue
// rejections.
var (
	errQueueFull = errors.New("acqserver: shard queue full")
	errDraining  = errors.New("acqserver: draining")
	errDegraded  = errors.New("acqserver: degraded, shedding early")
)

// shard is one bounded work queue plus its depth gauge.
type shard struct {
	id     int
	mu     sync.RWMutex
	closed bool
	ch     chan *task
	depth  *telemetry.Gauge
}

// enqueue hands a task to the shard without blocking: a full queue is an
// explicit rejection, never a stalled reader.  maxDepth is the effective
// occupancy bound for this enqueue — when health degrades it is lowered
// below the channel's capacity, and an enqueue that would exceed it is
// rejected with errDegraded even though buffer space remains.  The
// occupancy check is advisory (len on a channel races with concurrent
// enqueues), which is fine: shedding is approximate by design.
func (sh *shard) enqueue(t *task, maxDepth int) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return errDraining
	}
	if maxDepth < cap(sh.ch) && len(sh.ch) >= maxDepth {
		return errDegraded
	}
	select {
	case sh.ch <- t:
		sh.depth.Set(float64(len(sh.ch)))
		return nil
	default:
		return errQueueFull
	}
}

// close marks the shard drained-and-closed; subsequent enqueues fail with
// errDraining while workers finish whatever is already queued.
func (sh *shard) close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.closed {
		sh.closed = true
		close(sh.ch)
	}
}

// serverMetrics bundles the acq_* telemetry handles, resolved once at
// construction (all nil on a nil registry — free to update).
type serverMetrics struct {
	sessionsTotal  *telemetry.Counter
	sessionsActive *telemetry.Gauge
	framesByPath   map[Path]*telemetry.Counter
	responses      map[Code]*telemetry.Counter
	shedByReason   map[string]*telemetry.Counter
	queueWait      *telemetry.Histogram
	processByPath  map[Path]*telemetry.Histogram
	readFrame      *telemetry.Histogram
	write          *telemetry.Histogram
	bytesIn        *telemetry.Counter
	bytesOut       *telemetry.Counter
	panics         map[string]*telemetry.Counter
	protocolErrs   *telemetry.Counter
	recovered      map[string]*telemetry.Counter

	coalesceBatches map[string]*telemetry.Counter
	coalesceFill    *telemetry.Histogram
	coalesceWait    *telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) serverMetrics {
	m := serverMetrics{
		sessionsTotal:  reg.Counter("acq_sessions_total", "client sessions accepted by the daemon"),
		sessionsActive: reg.Gauge("acq_sessions_active", "currently open client sessions"),
		queueWait:      reg.Histogram("acq_queue_wait_ns", "time a frame sat in its shard queue, nanoseconds").EnableExemplars(),
		readFrame:      reg.Histogram("acq_read_frame_ns", "time to stream-decode one frame off the socket, nanoseconds").EnableExemplars(),
		write:          reg.Histogram("acq_write_ns", "time to write one response message, nanoseconds").EnableExemplars(),
		bytesIn:        reg.Counter("acq_bytes_in_total", "wire bytes received (headers + payloads)"),
		bytesOut:       reg.Counter("acq_bytes_out_total", "wire bytes sent (headers + payloads)"),
		protocolErrs:   reg.Counter("acq_protocol_errors_total", "malformed messages and framing violations"),
		framesByPath:   map[Path]*telemetry.Counter{},
		responses:      map[Code]*telemetry.Counter{},
		shedByReason:   map[string]*telemetry.Counter{},
		processByPath:  map[Path]*telemetry.Histogram{},
		panics:         map[string]*telemetry.Counter{},
	}
	for _, p := range []Path{PathHybrid, PathCPU} {
		l := telemetry.L("path", p.String())
		m.framesByPath[p] = reg.Counter("acq_frames_total", "frames accepted for processing per compute path", l)
		m.processByPath[p] = reg.Histogram("acq_process_ns", "deconvolution wall time per compute path, nanoseconds", l).EnableExemplars()
	}
	for _, c := range []Code{CodeOK, CodeInvalidArgument, CodeResourceExhausted,
		CodeDeadlineExceeded, CodeUnavailable, CodeInternal, CodeTooLarge} {
		m.responses[c] = reg.Counter("acq_responses_total", "responses sent per status code",
			telemetry.L("code", c.String()))
	}
	for _, r := range []string{"queue_full", "draining", "degraded"} {
		m.shedByReason[r] = reg.Counter("acq_shed_total", "frames rejected by load shedding, per reason",
			telemetry.L("reason", r))
	}
	for _, w := range []string{"session", "worker"} {
		m.panics[w] = reg.Counter("acq_panics_total", "panics recovered without killing the daemon, per site",
			telemetry.L("where", w))
	}
	m.recovered = map[string]*telemetry.Counter{}
	for _, o := range []string{"ok", "error"} {
		m.recovered[o] = reg.Counter("acq_recovered_frames_total",
			"frames replayed from the frame log after a restart, per outcome",
			telemetry.L("outcome", o))
	}
	m.coalesceBatches = map[string]*telemetry.Counter{}
	for _, tr := range []string{"fill", "window", "drain"} {
		m.coalesceBatches[tr] = reg.Counter("acq_coalesce_batches_total",
			"coalesced batches dispatched, per dispatch trigger",
			telemetry.L("trigger", tr))
	}
	m.coalesceFill = reg.Histogram("acq_coalesce_batch_fill",
		"frames in one coalesced batch at dispatch")
	m.coalesceWait = reg.Histogram("acq_coalesce_wait_ns",
		"time a dispatched batch spent gathering batch-mates, nanoseconds")
	return m
}

// Server is the acquisition daemon: the shared IMSP core's accept loop,
// per-session read and write goroutines, and sharded worker pools.
type Server struct {
	Core // listener, session reader, message writer (core.go)

	cfg     Config
	offload hybrid.OffloadConfig
	seqLen  int
	limits  frameio.Limits
	m       serverMetrics
	tracer  *trace.Tracer
	log     *slog.Logger

	shards     []*shard
	workerWG   sync.WaitGroup
	framePool  instrument.FramePool // input frames only: filled by frameio.ReadCounts, returned by finish
	offloaders sync.Pool            // *hybrid.Offloader, one per hybrid compute call
	profiles   sync.Pool            // *[]float64: seqLen words, a compute call's drift profile; summarize's scratch

	degraded func() bool
	wal      *framelog.Log
	flight   *flightrec.Recorder

	sessMu    sync.Mutex
	sessions  map[*session]struct{}
	sessWG    sync.WaitGroup
	nextSess  atomic.Uint64
	shutdownc chan struct{}

	// processHook mirrors Config.processHook (test seam).
	processHook func(*task) (*Result, error)
}

// NewServer validates the config and builds the daemon (shards, workers
// and telemetry handles); call Serve to start it.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seqLen := 1<<cfg.Order - 1
	offload := cfg.Offload
	offload.Order = cfg.Order
	offload.Metrics = cfg.Metrics
	off, err := hybrid.NewOffloader(offload)
	if err != nil {
		return nil, err
	}
	if widest := off.MaxProfileColumns(); cfg.MaxTOFBins > widest {
		return nil, fmt.Errorf("acqserver: offload format %v sums at most %d TOF columns exactly, max TOF bins is %d",
			offload.Format, widest, cfg.MaxTOFBins)
	}
	s := &Server{
		cfg:     cfg,
		offload: offload,
		seqLen:  seqLen,
		limits: frameio.Limits{
			MaxHeaderBytes: 4096,
			MaxDriftBins:   uint32(seqLen),
			MaxTOFBins:     uint32(cfg.MaxTOFBins),
			MaxCells:       uint64(seqLen) * uint64(cfg.MaxTOFBins),
		},
		m:           newServerMetrics(cfg.Metrics),
		tracer:      cfg.Trace,
		log:         cfg.Logger,
		sessions:    map[*session]struct{}{},
		shutdownc:   make(chan struct{}),
		degraded:    cfg.DegradedMode,
		wal:         cfg.FrameLog,
		flight:      cfg.FlightRecorder,
		processHook: cfg.processHook,
	}
	s.Core = Core{
		Accept:          s.startSession,
		MaxPayloadBytes: cfg.MaxPayloadBytes,
		ReadIdleTimeout: cfg.ReadIdleTimeout,
		WriteTimeout:    cfg.WriteTimeout,
		BytesIn:         s.m.bytesIn,
		BytesOut:        s.m.bytesOut,
		ProtocolErrs:    s.m.protocolErrs,
	}
	s.profiles.New = func() any { return new([]float64) }
	s.offloaders.Put(off)
	if s.log == nil {
		s.log = telemetry.DiscardLogger()
	}
	workers := make([]*workerState, cfg.Shards*cfg.WorkersPerShard)
	for i := range workers {
		if workers[i], err = s.newWorkerState(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id: i,
			ch: make(chan *task, cfg.QueueDepth),
			depth: cfg.Metrics.Gauge("acq_queue_depth", "instantaneous shard queue occupancy, frames",
				telemetry.L("shard", fmt.Sprintf("%d", i))),
		}
		s.shards = append(s.shards, sh)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			s.workerWG.Add(1)
			go s.workerLoop(sh, workers[i*cfg.WorkersPerShard+w])
		}
	}
	return s, nil
}

// effectiveDepth is the shard-queue occupancy bound for the next enqueue:
// the configured depth normally, half of it (rounded up) while
// Config.DegradedMode reports true.
func (s *Server) effectiveDepth() int {
	if s.degraded != nil && s.degraded() {
		return (s.cfg.QueueDepth + 1) / 2
	}
	return s.cfg.QueueDepth
}

// Shutdown drains the daemon: stop accepting, reject new frames with
// UNAVAILABLE, let workers complete every queued frame, flush each
// session's pending responses, then close the connections.  It returns nil
// on a complete drain, or ctx.Err() after force-closing everything when
// the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.StartDrain() {
		<-s.shutdownc // concurrent call: wait for the first to finish
		return nil
	}
	defer close(s.shutdownc)

	for _, sh := range s.shards {
		sh.close()
	}
	workersDone := make(chan struct{})
	go func() { s.workerWG.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-ctx.Done():
		s.forceCloseSessions()
		_ = s.closeWAL()
		return ctx.Err()
	}

	s.sessMu.Lock()
	for sess := range s.sessions {
		sess.startDrain()
	}
	s.sessMu.Unlock()

	sessDone := make(chan struct{})
	go func() { s.sessWG.Wait(); close(sessDone) }()
	select {
	case <-sessDone:
		return s.closeWAL()
	case <-ctx.Done():
		s.forceCloseSessions()
		_ = s.closeWAL()
		return ctx.Err()
	}
}

// closeWAL flushes completion marks and seals the frame log; the drain is
// not reported clean until the log is safely on disk.
func (s *Server) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Close(); err != nil {
		s.log.Error("framelog close failed", "err", err)
		return err
	}
	return nil
}

// forceCloseSessions tears every live session down.  teardown takes sessMu
// itself to unregister the session, so the set is copied out first.
func (s *Server) forceCloseSessions() {
	s.sessMu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.sessMu.Unlock()
	for _, sess := range live {
		sess.teardown()
	}
}

// workerState is the per-worker machinery that survives across tasks: the
// slice gather fills and the CPU path's transform.  Workers never share
// it, so no locking is needed.
type workerState struct {
	batch []*task
	dec   *hadamard.FHTDecoder
}

// newWorkerState builds one worker's machinery.
func (s *Server) newWorkerState() (*workerState, error) {
	dec, err := hadamard.NewFHTDecoder(s.cfg.Order)
	if err != nil {
		return nil, err
	}
	return &workerState{dec: dec}, nil
}

// workerLoop drains one shard until its queue is closed: gather picks up
// what to serve next (one task, or a gathered batch), serve answers every
// member with a RESULT or a typed ERROR.  The whole loop runs under pprof
// labels (stage=worker, shard=N), so every sample a continuous CPU
// profile catches in the compute path is attributable to its shard —
// `go tool pprof -tags` breaks a capture down by exactly these labels.
func (s *Server) workerLoop(sh *shard, ws *workerState) {
	defer s.workerWG.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "worker", "shard", strconv.Itoa(sh.id)), func(context.Context) {
		for t := range sh.ch {
			s.serve(sh, ws, s.gather(sh, ws, t))
		}
	})
}

// pickup marks a task as claimed by a worker: the shard's depth gauge drops,
// the queue_wait span ends and the measured wait is recorded on the task for
// every later consumer (the RESULT's QueueWaitNs, the wide event, the
// queue-wait histogram).
func (s *Server) pickup(sh *shard, t *task) {
	sh.depth.Set(float64(len(sh.ch)))
	t.qspan.End()
	t.picked = time.Now()
	t.qwait = t.picked.Sub(t.enqueued)
	s.m.queueWait.ObserveExemplar(float64(t.qwait.Nanoseconds()), t.traceID)
}

// expired reports whether the task carries a deadline that has passed at now.
func (t *task) expired(now time.Time) bool {
	return !t.deadline.IsZero() && !now.Before(t.deadline)
}

// serve answers every member of one gathered batch, in order, each through
// its own compute.  A member whose deadline has lapsed by its turn — in
// the queue, the gather, or behind a batch-mate's compute — is answered
// without compute.
func (s *Server) serve(sh *shard, ws *workerState, batch []*task) {
	dispatched := time.Now()
	for _, t := range batch {
		o := outcome{group: len(batch), dispatched: dispatched}
		if now := time.Now(); t.expired(now) {
			o.code = CodeDeadlineExceeded
			o.detail = fmt.Sprintf("deadline expired after %v before compute, %v of it in queue", now.Sub(t.enqueued), t.qwait)
			s.finish(t, sh.id, o)
			continue
		}
		s.run(sh, ws, t, o)
	}
	clear(batch) // an idle worker must not pin its last tasks' sessions
}

// run computes one task and finishes it, o carrying how it was gathered.
// It is the only place with panic isolation (a panicking compute path
// answers INTERNAL, the flight recorder keeps the event and dumps a black
// box, and the worker lives on), the worker span, the deadline context and
// the error-code mapping.
func (s *Server) run(sh *shard, ws *workerState, t *task, o outcome) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.m.panics["worker"].Inc()
		s.log.Error("worker panic recovered", "shard", sh.id,
			"req_id", t.reqID, "trace_id", telemetry.TraceID(t.traceID), "panic", fmt.Sprint(r))
		if !t.in.held() {
			return // finish already answered it
		}
		o.code, o.detail, o.panicked = CodeInternal, fmt.Sprintf("worker panic: %v", r), true
		// The event is recorded here, not at write time, so that the black
		// box written next includes it.
		if ev := s.event(t, sh.id, o); ev != nil {
			s.flight.Record(*ev)
		}
		if _, err := s.flight.Dump("panic"); err != nil {
			s.log.Error("flight recorder dump failed", "err", err)
		}
		s.finish(t, sh.id, o)
	}()

	t.wspan = t.root.Child("worker")
	t.wspan.SetInt("shard", int64(sh.id))
	if o.group > 1 {
		t.wspan.SetInt("coalesce_batch", int64(o.group))
	}
	ctx := trace.ContextWithSpan(context.Background(), t.wspan)
	if !t.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, t.deadline)
		defer cancel()
	}
	start := time.Now()
	res, err := s.compute(ctx, ws, t)
	o.process = time.Since(start)
	t.wspan.End()
	switch {
	case err == nil:
		res.ProcessNs = uint64(o.process.Nanoseconds())
		o.res = &res
	case errors.Is(err, context.DeadlineExceeded):
		o.code, o.detail = CodeDeadlineExceeded, err.Error()
	case errors.Is(err, context.Canceled):
		o.code, o.detail = CodeUnavailable, err.Error()
	default:
		o.code, o.detail = CodeInternal, err.Error()
		s.log.Error("frame failed", "shard", sh.id,
			"req_id", t.reqID, "trace_id", telemetry.TraceID(t.traceID), "err", err)
	}
	s.m.processByPath[t.path].ObserveExemplar(float64(o.process.Nanoseconds()), t.traceID)
	s.finish(t, sh.id, o)
}

// outcome is how a task ended — what finish needs to answer it.
type outcome struct {
	code     Code
	detail   string        // the ERROR's message and the wide event's detail
	shed     string        // load-shedding reason when the frame was rejected at the door
	res      *Result       // the answer when code is CodeOK
	process  time.Duration // compute time attributed to the task; 0 when it never ran
	panicked bool          // ended by a recovered panic: event already recorded, frame left to the GC

	// group is how many tasks were gathered together; two or more put the
	// coalescer's fields on the wide event, with dispatched (when the batch
	// left the gather) closing the member's coalesce wait.
	group      int
	dispatched time.Time
}

// event builds the wide event for one ended task: everything known before
// the response write (the write loop fills WriteNs and the recorder derives
// TotalNs from Start).  Nil when no recorder is wired.
func (s *Server) event(t *task, shardID int, o outcome) *flightrec.Event {
	if s.flight == nil {
		return nil
	}
	ev := &flightrec.Event{
		Source:      "acqserver",
		TraceID:     telemetry.TraceID(t.traceID).String(),
		ReqID:       t.reqID,
		Order:       s.cfg.Order,
		Shard:       shardID,
		Path:        t.path.String(),
		QueueWaitNs: t.qwait.Nanoseconds(),
		ProcessNs:   o.process.Nanoseconds(),
		WALSeq:      t.walSeq,
		Outcome:     o.code.String(),
		ShedReason:  o.shed,
		Detail:      o.detail,
		Start:       t.enqueued,
	}
	if t.sess != nil {
		ev.Session = t.sess.id
	}
	if o.group > 1 {
		ev.CoalesceBatch = o.group
		ev.CoalesceWaitNs = o.dispatched.Sub(t.picked).Nanoseconds()
	}
	return ev
}

// finish is the only way a task ends — shed at the door, expired before
// compute, failed, panicked or decoded; solo, gathered or replayed from the
// frame log.  The frame-log record is marked completed (an answer is owed,
// so a later recovery must not replay it), the input frame goes back to the
// pool — except after a panic, which may have left it half read, so the
// garbage collector gets it — and the RESULT or typed ERROR is queued with
// the task's wide event.
func (s *Server) finish(t *task, shardID int, o outcome) {
	if t.walSeq != 0 && s.wal != nil {
		s.wal.MarkCompleted(t.walSeq)
	}
	if !o.panicked {
		s.release(t.in)
	}
	t.in = input{}
	var payload []byte
	if o.code == CodeOK {
		o.res.Shard = uint16(shardID)
		o.res.QueueWaitNs = uint64(t.qwait.Nanoseconds())
		if t.walNotDurable {
			o.res.Flags |= ResultFlagNotDurable
		}
		var err error
		if payload, err = EncodeResult(o.res); err != nil {
			o.code, o.detail = CodeInternal, err.Error()
		}
	}
	var ev *flightrec.Event
	if !o.panicked {
		ev = s.event(t, shardID, o)
	}
	if o.code != CodeOK {
		s.respondError(t.sess, t.reqID, t.traceID, o.code, o.detail, t.root, ev)
		return
	}
	s.respond(t.sess, outMsg{typ: MsgResult, reqID: t.reqID, traceID: t.traceID, payload: payload, root: t.root, ev: ev}, CodeOK)
}

// compute runs one task down to its drift profile and summarizes it; run
// stamps ProcessNs.  Neither path materializes a deconvolved frame: the CPU
// path transforms the frame's row sums (computeCPU), the hybrid path
// reduces into a pooled profile buffer through an offloader borrowed for
// the call, so idle workers hold no fixed-point work tiles.  The input
// frame stays the task's.
func (s *Server) compute(ctx context.Context, ws *workerState, t *task) (Result, error) {
	switch {
	case s.processHook != nil:
		res, err := s.processHook(t)
		if err != nil {
			return Result{}, err
		}
		return *res, nil
	case t.path == PathCPU:
		return s.computeCPU(ws.dec, t)
	case t.path == PathHybrid:
		off, _ := s.offloaders.Get().(*hybrid.Offloader)
		if off == nil {
			var err error
			if off, err = hybrid.NewOffloader(s.offload); err != nil {
				return Result{}, err
			}
		}
		defer s.offloaders.Put(off)
		buf := s.profileBuf(s.seqLen)
		defer s.profiles.Put(buf)
		var hr *hybrid.HybridResult
		var err error
		if c := t.in.counts; c != nil {
			hr, err = off.DeconvolveCountsProfileInto(ctx, *buf, c)
		} else {
			hr, err = off.DeconvolveProfileInto(ctx, *buf, t.in.frame)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{
			SimulatedNs: uint64(hr.SimulatedTimeS * 1e9),
			Saturations: uint64(hr.Saturations),
			Peaks:       s.summarize(*buf),
		}, nil
	}
	return Result{}, fmt.Errorf("acqserver: unknown path %v", t.path)
}

// input is one frame as frameio.ReadCounts decodes it: int32 counts when
// every cell is one, else float cells — exactly one of the two is set
// while a session, a recovery pass or a task holds it.
type input struct {
	counts *instrument.Counts
	frame  *instrument.Frame
}

// held reports whether a frame is held.
func (in input) held() bool { return in.counts != nil || in.frame != nil }

// driftBins and tofBins are the frame's geometry.
func (in input) driftBins() int {
	if in.counts != nil {
		return in.counts.DriftBins
	}
	return in.frame.DriftBins
}

func (in input) tofBins() int {
	if in.counts != nil {
		return in.counts.TOFBins
	}
	return in.frame.TOFBins
}

// readInput decodes one frame from r into the server's frame pool.
func (s *Server) readInput(r io.Reader) (input, error) {
	c, f, _, err := frameio.ReadCounts(r, s.limits, &s.framePool)
	return input{counts: c, frame: f}, err
}

// release returns a frame to the pool; nothing may read it afterwards.
func (s *Server) release(in input) {
	s.framePool.PutCounts(in.counts)
	s.framePool.Put(in.frame)
}

// profileBuf borrows n words of drift-profile buffer from the server's pool;
// the caller Puts it back once summarize (which copies what it keeps) is done.
func (s *Server) profileBuf(n int) *[]float64 {
	buf := s.profiles.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// computeCPU is the CPU path, written once for solo, gathered and
// WAL-replayed tasks: the task's drift profile (driftProfile) into a pooled
// buffer, under a cpu_decode span, then its peaks.
func (s *Server) computeCPU(dec *hadamard.FHTDecoder, t *task) (Result, error) {
	span := t.wspan.Child("cpu_decode")
	span.SetInt("columns", int64(t.in.tofBins()))
	buf := s.profileBuf(s.seqLen)
	defer s.profiles.Put(buf)
	err := driftProfile(dec, t.in, *buf)
	span.End()
	if err != nil {
		return Result{}, err
	}
	return Result{Peaks: s.summarize(*buf)}, nil
}

// driftProfile writes the drift profile of in's decode into dst (Len()
// words): the profile of the decoded frame, Σ_t Decode(col_t), computed as
// Decode(Σ_t col_t) — one transform of the frame's row sums, since the
// decoder is linear.
//
// A counts frame's row sums are exact in int64 (Counts.DriftProfileInto).
// Every transform word is then a ±1-signed sum of them, so while
// Len·TOFBins·Bound < 2^53 every word is an exact integer and the
// power-of-two scale is exact too: dst equals, under ==, DriftProfileInto
// of the frame decoded column by column with DecodeTo (both are the exact
// rational answer; a zero bin may come out −0 here where that sum has +0).
//
// A float frame's rows are summed left to right (Frame.DriftProfileInto),
// so the two orders round differently.  With L1 = Σ|cell| over the whole
// frame and |Scale| = 2/(Len+1), each is within (TOFBins−1 + Order)·2^−53
// ·|Scale|·L1 of the exact answer, to first order, so
//
//	|dst[d] − column-by-column[d]| <= (TOFBins + Order)·2^−52·|Scale|·L1.
func driftProfile(dec *hadamard.FHTDecoder, in input, dst []float64) error {
	if in.counts != nil {
		in.counts.DriftProfileInto(dst)
	} else {
		in.frame.DriftProfileInto(dst)
	}
	return dec.DecodeTo(dst, dst)
}

// summarize detects the strongest peaks of a deconvolved frame's drift
// profile, height-descending, capped at MaxPeaks.  It keeps no reference
// to profile.  The noise estimate's scratch is a pooled profile buffer.
func (s *Server) summarize(profile []float64) []PeakSummary {
	if s.cfg.MaxPeaks == 0 {
		return nil
	}
	scratch := s.profileBuf(len(profile))
	found, err := peaks.DetectWith(profile, s.cfg.MinSNR, *scratch)
	s.profiles.Put(scratch)
	if err != nil || len(found) == 0 {
		return nil
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Height > found[j].Height })
	if len(found) > s.cfg.MaxPeaks {
		found = found[:s.cfg.MaxPeaks]
	}
	out := make([]PeakSummary, len(found))
	for i, p := range found {
		out[i] = PeakSummary{Centroid: p.Centroid, Height: p.Height, Area: p.Area, SNR: p.SNR}
	}
	return out
}

// respond queues a message on the session's write loop and counts it.  A
// nil session is a recovered frame replayed from the frame log: there is
// no client to answer, so the outcome is counted, the trace closed, and
// the wide event (which the write loop would otherwise record) recorded
// here without a write duration.
func (s *Server) respond(sess *session, m outMsg, code Code) {
	if sess == nil {
		outcome := "ok"
		if code != CodeOK {
			outcome = "error"
		}
		s.m.recovered[outcome].Inc()
		m.root.End()
		if m.ev != nil {
			s.flight.Record(*m.ev)
		}
		return
	}
	s.m.responses[code].Inc()
	sess.send(m)
}

// respondError queues a typed ERROR.  The trace id is echoed on the wire
// (version-2 sessions) so the client can tell exactly which frame failed;
// root, when active, is closed by the write loop after the error goes out.
// ev, when non-nil, is the frame's wide event, recorded once the write
// completes; protocol-level errors with no accepted frame pass nil.
func (s *Server) respondError(sess *session, reqID, traceID uint64, code Code, msg string, root trace.Span, ev *flightrec.Event) {
	root.SetStr("error", code.String())
	s.respond(sess, outMsg{
		typ: MsgError, reqID: reqID, traceID: traceID,
		payload: EncodeError(code, msg), root: root, ev: ev,
	}, code)
}
