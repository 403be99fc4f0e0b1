// Package acqserver is the frame-acquisition service: the network layer
// that turns the repository's in-process hybrid pipeline into a daemon
// serving many concurrent clients.  It speaks the IMSP/1 length-prefixed
// protocol over TCP (wire.go); per-client sessions decode frameio-encoded
// frames straight off the socket and enqueue them into N sharded, bounded
// work queues feeding worker pools that run the modeled FPGA offload or the
// CPU path, selectable per request.  Both answer with a frame's drift
// profile, from its row sums, which one reader writes straight off the
// socket (frameio.ReadRowSums).  The CPU path transforms them once
// (hadamard.FHTDecoder.DecodeTo), since every decoder is linear.  The
// hybrid path also reads the frame's count bound: a frame the Q-format
// proof clears (fpga.FHTCore.ProvedCounts) is answered from its row sums
// (hybrid.Offloader.DeconvolveRowSumsInto), any other is re-decoded from
// the captured bytes into float cells for the word model
// (hybrid.Offloader.DeconvolveProfileInto).  No output frame is taken,
// stored or re-read.
//
// A served frame allocates nothing in steady state; of a round trip only
// the Response a Client returns, its Result and peaks, are allocated.  A pooled
// task holds its row sums in a pooled buffer (a hybrid frame past the
// proof, its cells in a pooled instrument.Frame) and its Result, in storage
// it keeps; each worker keeps its decoder and peak scratch, offloaders are
// pooled, and each connection frames messages in its own MessageWriter (a
// large payload leaves through writev, uncopied).  The garbage collector
// can empty every pool, so an idle daemon retains none of it (ownership
// rules: docs/PERFORMANCE.md).
//
// The serving stack is explicit about its unhappy paths: full shard queues
// shed load with RESOURCE_EXHAUSTED instead of blocking, per-request
// deadlines cancel in-flight work through context propagation, slow
// readers are cut off by a 10 s write timeout, idle or half-dead
// connections by a 30 s read timeout, a recovered panic answers INTERNAL
// and never takes the daemon down, and SIGTERM triggers a graceful drain
// that completes queued frames before closing sessions.  Every stage is
// wired into internal/telemetry under the acq_* metric families
// (docs/OBSERVABILITY.md).
//
// Config holds only what a deployment or the benchmark sets.  The session
// bounds are NewCore's, shared with the gateway, and the modeled FPGA
// backend is hybrid.DefaultOffloadConfig at the served order: the paper's
// one design point, the Q23.8 core behind RapidArray DMA.
package acqserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fpga"
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
	// read, so worst-case queue memory is 8 × drift bins bytes per frame,
	// its row sums, and Shards × QueueDepth × (8 × drift bins × TOF bins)
	// bytes when every queued frame is a hybrid one past the fixed-point
	// proof, held as float cells.
	QueueDepth int
	// WorkersPerShard is each shard's worker-pool size.
	WorkersPerShard int
	// Order is the m-sequence order served; frames must arrive with
	// drift bins = 2^Order − 1 or are rejected with INVALID_ARGUMENT.
	Order int
	// MaxTOFBins caps the m/z axis of accepted frames.  The hybrid path
	// sums at most hybrid.Offloader.MaxProfileColumns columns exactly, so
	// NewServer refuses a larger value.
	MaxTOFBins int
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
	// clock, when non-nil, replaces the stage clock: a test seam for the
	// stamps every timing surface derives from (never decreasing, never 0).
	clock func() int64
}

// sessionBuffer bounds each session's pending-response queue.
const sessionBuffer = 32

// DefaultConfig returns production-shaped defaults: 4 shards × depth 16,
// 2 workers each and the paper's order-9 sequence.  What no deployment
// sets is fixed: the session bounds (NewCore), a 32-response session
// queue, and the modeled FPGA backend, hybrid.DefaultOffloadConfig at the
// served Order.
func DefaultConfig() Config {
	return Config{
		Shards:             4,
		QueueDepth:         16,
		WorkersPerShard:    2,
		Order:              9,
		MaxTOFBins:         4096,
		CPUWorkersPerFrame: 2,
		MinSNR:             5,
		MaxPeaks:           16,
		CoalesceFillTarget: 8,
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
// recovery: it has no client to answer, only a completion to mark.  Tasks
// come from the server's pool and go back once their response is written
// and recorded (retire).
type task struct {
	sess    *session
	reqID   uint64
	traceID uint64
	in      input // the decoded frame; held until finish
	path    Path
	root    trace.Span // frame root; ended by the write loop
	wspan   trace.Span // the worker span while a run computes the task

	res  Result // the answer once compute succeeds; its peaks' storage outlives reuse
	keep bool   // never back to the pool: a panic may have left it half written

	// walSeq is the frame's frame-log sequence number (0 = not logged);
	// walNotDurable records that the append was acknowledged before fsync.
	walSeq        uint64
	walNotDurable bool

	// deadline is the stage-clock reading by which compute must start (0 =
	// none); st are the frame's stage boundaries.
	deadline int64
	st       stamps
}

// stamps are a frame's stage boundaries, one stage-clock reading each, in
// order: FRAME entry, read end, frame-log append end (= readEnd when not
// logged; all three the re-enqueue for a recovered frame), pickup, compute
// start and end (equal when it expired first), write start and end.  A
// boundary not reached is 0.
type stamps struct {
	read, readEnd, walEnd, pickup, computeStart, computeEnd, writeStart, writeEnd int64
}

// stageNames are acq_stage_ns's stages, in the order stages reports them.
var stageNames = [...]string{"read", "wal", "queue", "compute", "reply", "write", "roundtrip", "remainder"}

// stages are the frame's acq_stage_ns values once its response is written:
// the gaps between consecutive boundaries, the round trip, and the one gap
// no stage names, pickup to compute (the gather, batch-mates computed
// first), as the remainder, so stages plus remainder are the round trip.
func (st *stamps) stages() [len(stageNames)]int64 {
	return [...]int64{st.readEnd - st.read, st.walEnd - st.readEnd, st.pickup - st.walEnd,
		st.computeEnd - st.computeStart, st.writeStart - st.computeEnd, st.writeEnd - st.writeStart,
		st.writeEnd - st.read, st.computeStart - st.pickup}
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
	stages         [2][len(stageNames)]*telemetry.Histogram // by Path, then stage
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
		bytesIn:        reg.Counter("acq_bytes_in_total", "wire bytes received (headers + payloads)"),
		bytesOut:       reg.Counter("acq_bytes_out_total", "wire bytes sent (headers + payloads)"),
		protocolErrs:   reg.Counter("acq_protocol_errors_total", "malformed messages and framing violations"),
		framesByPath:   map[Path]*telemetry.Counter{},
		responses:      map[Code]*telemetry.Counter{},
		shedByReason:   map[string]*telemetry.Counter{},
		panics:         map[string]*telemetry.Counter{},
	}
	for _, p := range []Path{PathHybrid, PathCPU} {
		l := telemetry.L("path", p.String())
		m.framesByPath[p] = reg.Counter("acq_frames_total", "frames accepted for processing per compute path", l)
		for i, st := range stageNames {
			m.stages[p][i] = reg.Histogram("acq_stage_ns", "a served frame's time per stage of its round trip, nanoseconds",
				l, telemetry.L("stage", st)).EnableExemplars()
		}
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
	proof      *fpga.FHTCore        // the hybrid path's read-time decision (ProvedCounts); read only
	framePool  instrument.FramePool // hybrid frames past the proof: filled by readCells, returned by finish
	offloaders sync.Pool            // *hybrid.Offloader, one per hybrid compute call
	profiles   sync.Pool            // *[]float64: seqLen words, a task's row sums, a word-model call's drift profile
	tasks      sync.Pool            // *task, cleared, with room for MaxPeaks peaks; taken per frame, put back by retire

	degraded func() bool
	wal      *framelog.Log
	flight   *flightrec.Recorder

	sessMu    sync.Mutex
	sessions  map[*session]struct{}
	sessWG    sync.WaitGroup
	nextSess  atomic.Uint64
	shutdownc chan struct{}

	// clock reads the stage clock, in nanoseconds: by default the monotonic
	// time since epoch, when the server was built.
	clock func() int64
	epoch time.Time
}

// NewServer validates the config and builds the daemon (shards, workers
// and telemetry handles); call Serve to start it.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seqLen := 1<<cfg.Order - 1
	offload := hybrid.DefaultOffloadConfig()
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
	proof, err := fpga.NewFHTCore(offload.Order, offload.Format, offload.Growth, offload.ButterflyUnits, offload.MemPorts)
	if err != nil {
		return nil, err
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
		m:         newServerMetrics(cfg.Metrics),
		proof:     proof,
		tracer:    cfg.Trace,
		log:       cfg.Logger,
		sessions:  map[*session]struct{}{},
		shutdownc: make(chan struct{}),
		degraded:  cfg.DegradedMode,
		wal:       cfg.FrameLog,
		flight:    cfg.FlightRecorder,
		clock:     cfg.clock,
		epoch:     time.Now(),
	}
	if s.clock == nil {
		s.clock = func() int64 { return int64(time.Since(s.epoch)) }
	}
	s.Core = NewCore(s.startSession, s.m.bytesIn, s.m.bytesOut, s.m.protocolErrs)
	s.profiles.New = func() any { return new([]float64) }
	s.tasks.New = func() any { return &task{res: Result{Peaks: make([]PeakSummary, 0, cfg.MaxPeaks)}} }
	s.offloaders.Put(off)
	if s.log == nil {
		s.log = telemetry.DiscardLogger()
	}
	workers := make([]*workerState, cfg.Shards*cfg.WorkersPerShard)
	for i := range workers {
		dec, err := hadamard.NewFHTDecoder(cfg.Order)
		if err != nil {
			return nil, err
		}
		workers[i] = &workerState{dec: dec, noise: make([]float64, seqLen)}
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
	if wait(ctx, &s.workerWG) {
		s.sessMu.Lock()
		for sess := range s.sessions {
			sess.startDrain()
		}
		s.sessMu.Unlock()
		if wait(ctx, &s.sessWG) {
			return s.closeWAL()
		}
	}
	s.forceCloseSessions()
	_ = s.closeWAL()
	return ctx.Err()
}

// wait waits for wg, reporting false if ctx ends first.
func wait(ctx context.Context, wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
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
// slice gather fills, the CPU path's transform and peak detection's
// scratch.  Workers never share it, so no locking is needed.
type workerState struct {
	batch []*task
	dec   *hadamard.FHTDecoder
	found []peaks.Peak
	noise []float64
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

// stageSpan records root's child name over [from, to] of the stage clock
// and returns it, ended, to take attributes.
func (s *Server) stageSpan(root trace.Span, name string, from, to int64) trace.Span {
	sp := root.ChildAt(name, s.epoch.Add(time.Duration(from)))
	sp.EndAfter(time.Duration(to - from))
	return sp
}

// pickup marks a task as claimed by a worker: the shard's depth gauge drops
// and the pickup stamp closes the task's queue_wait span.
func (s *Server) pickup(sh *shard, t *task) {
	sh.depth.Set(float64(len(sh.ch)))
	t.st.pickup = s.clock()
	s.stageSpan(t.root, "queue_wait", t.st.walEnd, t.st.pickup).SetInt("shard", int64(sh.id))
}

// serve answers every member of one gathered batch, in order, each through
// its own compute.  A member whose deadline has lapsed by its turn — in
// the queue, the gather, or behind a batch-mate's compute — is answered
// without compute.
func (s *Server) serve(sh *shard, ws *workerState, batch []*task) {
	for _, t := range batch {
		o := outcome{group: len(batch)}
		t.st.computeStart = s.clock()
		if t.deadline != 0 && t.st.computeStart >= t.deadline {
			t.st.computeEnd = t.st.computeStart
			o.code = CodeDeadlineExceeded
			o.detail = fmt.Sprintf("deadline expired after %v before compute, %v of it in queue",
				time.Duration(t.st.computeStart-t.st.walEnd), time.Duration(t.st.pickup-t.st.walEnd))
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
	finished := false // once finish has t, its writer may retire it for reuse: read t no more
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.m.panics["worker"].Inc()
		if finished {
			s.log.Error("worker panic recovered", "shard", sh.id, "panic", fmt.Sprint(r))
			return
		}
		s.log.Error("worker panic recovered", "shard", sh.id,
			"req_id", t.reqID, "trace_id", telemetry.TraceID(t.traceID), "panic", fmt.Sprint(r))
		t.st.computeEnd = s.clock()
		o.code, o.detail, o.panicked = CodeInternal, fmt.Sprintf("worker panic: %v", r), true
		// The event is recorded here, not at write time, so that the black
		// box written next includes it.
		s.record(outMsg{ev: s.event(t, sh.id, o), t: t})
		if _, err := s.flight.Dump("panic"); err != nil {
			s.log.Error("flight recorder dump failed", "err", err)
		}
		s.finish(t, sh.id, o)
	}()

	t.wspan = t.root.ChildAt("worker", s.epoch.Add(time.Duration(t.st.computeStart)))
	t.wspan.SetInt("shard", int64(sh.id))
	if o.group > 1 {
		t.wspan.SetInt("coalesce_batch", int64(o.group))
	}
	ctx := trace.ContextWithSpan(context.Background(), t.wspan)
	if t.deadline != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t.deadline-t.st.computeStart))
		defer cancel()
	}
	err := s.compute(ctx, ws, t)
	t.st.computeEnd = s.clock()
	t.wspan.EndAfter(time.Duration(t.st.computeEnd - t.st.computeStart))
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		o.code, o.detail = CodeDeadlineExceeded, err.Error()
	case errors.Is(err, context.Canceled):
		o.code, o.detail = CodeUnavailable, err.Error()
	default:
		o.code, o.detail = CodeInternal, err.Error()
		s.log.Error("frame failed", "shard", sh.id,
			"req_id", t.reqID, "trace_id", telemetry.TraceID(t.traceID), "err", err)
	}
	finished = true
	s.finish(t, sh.id, o)
}

// outcome is how a task ended — what finish needs to answer it.
type outcome struct {
	code     Code   // CodeOK: the task's res is the answer
	detail   string // the ERROR's message and the wide event's detail
	shed     string // load-shedding reason when the frame was rejected at the door
	panicked bool   // ended by a recovered panic: event already recorded, frame and task left to the GC
	group    int    // tasks gathered together; two or more put the coalescer's fields on the wide event
}

// event builds the wide event for one ended task: everything known before
// the response write (record fills WriteNs and TotalNs).  Nil when no
// recorder is wired.
func (s *Server) event(t *task, shardID int, o outcome) *flightrec.Event {
	if s.flight == nil {
		return nil
	}
	ev := &flightrec.Event{
		Source:     "acqserver",
		TraceID:    telemetry.TraceID(t.traceID).String(),
		ReqID:      t.reqID,
		Order:      s.cfg.Order,
		Shard:      shardID,
		Path:       t.path.String(),
		ProcessNs:  t.st.computeEnd - t.st.computeStart,
		WALSeq:     t.walSeq,
		Outcome:    o.code.String(),
		ShedReason: o.shed,
		Detail:     o.detail,
	}
	if t.sess != nil {
		ev.Session = t.sess.id
	}
	if t.st.pickup != 0 { // not shed at the door
		ev.QueueWaitNs = t.st.pickup - t.st.walEnd
	}
	if o.group > 1 {
		ev.CoalesceBatch = o.group
		ev.CoalesceWaitNs = t.st.computeStart - t.st.pickup
	}
	return ev
}

// retire ends a response once it is written, or will never be: its wide
// event is recorded and its task, unless kept, goes back to the pool.
func (s *Server) retire(m outMsg) {
	s.record(m)
	if t := m.t; t != nil && !t.keep {
		*t = task{res: Result{Peaks: t.res.Peaks[:0]}}
		s.tasks.Put(t)
	}
}

// record fills the wide event of m, a task's response, with its write and
// round-trip times and records it; a response never written ends now.
func (s *Server) record(m outMsg) {
	if m.ev == nil {
		return
	}
	st := &m.t.st
	end := st.writeEnd
	if end == 0 {
		end = s.clock()
	}
	m.ev.WriteNs = st.writeEnd - st.writeStart
	m.ev.TotalNs = end - st.read
	s.flight.Record(*m.ev)
}

// finish is the only way a task ends — shed at the door, expired before
// compute, failed, panicked or decoded; solo, gathered or replayed from the
// frame log.  The frame-log record is marked completed (an answer is owed,
// so a later recovery must not replay it), the input frame goes back to the
// pool — except after a panic, which may have left it half read, so the
// garbage collector gets it, and the task too — and the RESULT (the task's
// res) or typed ERROR is queued with the task's wide event.
func (s *Server) finish(t *task, shardID int, o outcome) {
	if t.walSeq != 0 && s.wal != nil {
		s.wal.MarkCompleted(t.walSeq)
	}
	if !o.panicked {
		s.release(t.in)
	}
	t.in, t.keep = input{}, t.keep || o.panicked
	m := outMsg{typ: MsgResult, reqID: t.reqID, traceID: t.traceID, root: t.root, t: t}
	if o.code == CodeOK {
		r := &t.res
		r.Shard = uint16(shardID)
		r.QueueWaitNs = uint64(t.st.pickup - t.st.walEnd)
		r.ProcessNs = uint64(t.st.computeEnd - t.st.computeStart)
		if t.walNotDurable {
			r.Flags |= ResultFlagNotDurable
		}
		if err := checkResult(r); err != nil {
			o.code, o.detail = CodeInternal, err.Error()
		}
	}
	if !o.panicked {
		m.ev = s.event(t, shardID, o)
	}
	if o.code != CodeOK {
		t.root.SetStr("error", o.code.String())
		m.typ, m.payload = MsgError, EncodeError(o.code, o.detail)
	}
	s.respond(t.sess, m, o.code)
}

// compute runs one task down to its drift profile and summarizes it into
// t.res; run stamps its bounds.  Neither path materializes a deconvolved
// frame: the CPU path transforms the row sums the reader left in the task
// (computeCPU), the hybrid path answers through an offloader borrowed for
// the call, so idle workers hold no fixed-point work tiles, from the task's
// row sums in place or its cells.  The input stays the task's.
func (s *Server) compute(ctx context.Context, ws *workerState, t *task) error {
	switch {
	case s.cfg.processHook != nil:
		res, err := s.cfg.processHook(t)
		if err != nil {
			return err
		}
		keep := t.res.Peaks[:0]
		t.res = *res
		t.res.Peaks = append(keep, res.Peaks...)
		return nil
	case t.path == PathCPU:
		return s.computeCPU(ws, t)
	case t.path == PathHybrid:
		off, _ := s.offloaders.Get().(*hybrid.Offloader)
		if off == nil {
			var err error
			if off, err = hybrid.NewOffloader(s.offload); err != nil {
				return err
			}
		}
		defer s.offloaders.Put(off)
		var profile []float64
		var hr *hybrid.HybridResult
		var err error
		if f := t.in.frame; f != nil {
			buf := s.profileBuf(s.seqLen)
			defer s.profiles.Put(buf)
			profile = *buf
			hr, err = off.DeconvolveProfileInto(ctx, profile, f)
		} else {
			profile = *t.in.sums
			hr, err = off.DeconvolveRowSumsInto(ctx, profile, t.in.tofBins, t.in.bound)
		}
		if err != nil {
			return err
		}
		t.res.SimulatedNs = uint64(hr.SimulatedTimeS * 1e9)
		t.res.Saturations = uint64(hr.Saturations)
		t.res.Peaks = s.summarize(ws, profile, t.res.Peaks[:0])
		return nil
	}
	return fmt.Errorf("acqserver: unknown path %v", t.path)
}

// input is one frame as its path reads it: its row sums in a pooled
// profile buffer, 8 bytes a drift bin and no cell, or — a hybrid frame
// past the proof — its cells in a pooled frame.  Exactly one of sums and
// frame is set while a session, a recovery pass or a task holds it.
type input struct {
	sums  *[]float64
	bound int64 // a hybrid frame's count bound, which the proof cleared
	frame *instrument.Frame

	driftBins, tofBins int
}

// readInput reads one frame from r into the row sums of a pooled profile
// buffer (a frame with an unknown path is read too, so a malformed one is
// rejected for its bytes first, as before the path).  A hybrid frame is
// read with its count bound; one the proof does not clear is re-decoded
// from replay — the bytes r gave, again — into a frame from the server's
// frame pool, for the word model.
func (s *Server) readInput(p Path, r io.Reader, replay func() io.Reader) (input, error) {
	buf := s.profileBuf(s.seqLen)
	in := input{sums: buf}
	var bound *int64
	if p == PathHybrid {
		bound = &in.bound
	}
	var err error
	in.driftBins, in.tofBins, _, err = frameio.ReadRowSums(r, s.limits, *buf, bound)
	*buf = (*buf)[:in.driftBins]
	if err == nil && p == PathHybrid && !s.proof.ProvedCounts(in.bound) {
		s.profiles.Put(buf)
		in.sums = nil
		in.frame, _, err = frameio.ReadInto(replay(), s.limits, s.framePool.Get)
	}
	if err != nil {
		s.release(in)
		return input{}, err
	}
	return in, nil
}

// release returns a frame to its pool; nothing may read it afterwards.
func (s *Server) release(in input) {
	if in.sums != nil {
		s.profiles.Put(in.sums)
	}
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
// WAL-replayed tasks: under a cpu_decode span, one transform of the task's
// row sums in place — the drift profile of the frame decoded column by
// column, Σ_t Decode(col_t), computed as Decode(Σ_t col_t), since the
// decoder is linear — then its peaks.
//
// On an integral frame the reader's row sums are exact (see
// frameio.ReadRowSums).  Every transform word is then a ±1-signed sum of
// them, so while Len·TOFBins·max|cell| < 2^53 every word is an exact
// integer and the power-of-two scale is exact too: the profile equals,
// under ==, DriftProfileInto of the frame decoded column by column with
// DecodeTo (both are the exact rational answer; a zero bin may come out −0
// here where that sum has +0).
//
// Otherwise the rows are summed left to right, as Frame.DriftProfileInto
// does, so the two orders round differently.  With L1 = Σ|cell| over the
// whole frame and |Scale| = 2/(Len+1), each is within (TOFBins−1 +
// Order)·2^−53·|Scale|·L1 of the exact answer, to first order, so
//
//	|profile[d] − column-by-column[d]| <= (TOFBins + Order)·2^−52·|Scale|·L1.
func (s *Server) computeCPU(ws *workerState, t *task) error {
	span := t.wspan.Child("cpu_decode")
	span.SetInt("columns", int64(t.in.tofBins))
	profile := *t.in.sums
	err := ws.dec.DecodeTo(profile, profile)
	span.End()
	if err != nil {
		return err
	}
	t.res.Peaks = s.summarize(ws, profile, t.res.Peaks[:0])
	return nil
}

// summarize appends to dst the strongest peaks of a deconvolved frame's
// drift profile, height-descending, capped at MaxPeaks.  It keeps no
// reference to profile; detection works in ws's found peaks and noise
// scratch.
func (s *Server) summarize(ws *workerState, profile []float64, dst []PeakSummary) []PeakSummary {
	if s.cfg.MaxPeaks == 0 {
		return dst
	}
	found, err := peaks.DetectWith(ws.found[:0], profile, s.cfg.MinSNR, ws.noise)
	ws.found = found
	if err != nil || len(found) == 0 {
		return dst
	}
	// sort.Slice's order, ties included (the same pdqsort template), without
	// its reflect swapper and closure.
	slices.SortFunc(found, func(a, b peaks.Peak) int {
		if a.Height > b.Height {
			return -1
		}
		if a.Height < b.Height {
			return 1
		}
		return 0
	})
	if len(found) > s.cfg.MaxPeaks {
		found = found[:s.cfg.MaxPeaks]
	}
	for _, p := range found {
		dst = append(dst, PeakSummary{Centroid: p.Centroid, Height: p.Height, Area: p.Area, SNR: p.SNR})
	}
	return dst
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
		s.retire(m)
		return
	}
	s.m.responses[code].Inc()
	sess.send(m)
}

// respondError queues a typed ERROR for a message no task owns: a
// protocol error, or a frame rejected before it became a task.  The trace
// id is echoed on the wire (version-2 sessions) so the client can tell
// exactly which frame failed; root, when active, is closed by the write
// loop after the error goes out.
func (s *Server) respondError(sess *session, reqID, traceID uint64, code Code, msg string, root trace.Span) {
	root.SetStr("error", code.String())
	s.respond(sess, outMsg{
		typ: MsgError, reqID: reqID, traceID: traceID,
		payload: EncodeError(code, msg), root: root,
	}, code)
}
