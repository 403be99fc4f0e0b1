// Package framelog is a segmented, append-only, CRC-verified write-ahead
// log of accepted frames — Kafka-shaped but stdlib-only.  The acquisition
// daemon appends every accepted FRAME payload before enqueueing it for
// processing, so a crash loses no accepted work: on restart, recovery
// scans the newest segment, truncates at the first torn or corrupt
// record, resumes the sequence counter, and re-enqueues every record past
// the last-completed watermark (tracked in a sidecar completion log).
// Captured logs double as reproducible benchmark inputs: `imsload
// -replay` streams them back through IMSP at recorded or multiplied rate.
//
// All writes funnel through a single appender goroutine with group
// commit: concurrent Append calls batch into one buffered write and (per
// policy) one fsync, and the submission path is zero-allocation (pooled
// requests, reusable ack channels) so the serving hot path stays
// allocation-free.  Readers are independent cursors that tail the log at
// their own pace; retention keeps the last K segments and a janitor
// deletes the rest.  Segment files follow internal/seglog; see
// docs/DURABILITY.md for the format and the fsync policies' trade-offs.
package framelog

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seglog"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// FsyncPolicy selects when the appender syncs written records to stable
// storage, trading durability against append latency.
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs on a timer: appends are
	// acknowledged after the OS write but before the sync, so a host crash
	// can lose up to one interval of acknowledged records (a process crash
	// loses nothing).  Acknowledgements carry the not-durable flag.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs every batch before acknowledging it: an
	// acknowledged append survives even a host power loss.  Group commit
	// amortizes the sync across concurrent appenders.
	FsyncAlways
	// FsyncNone never syncs outside segment seals; durability is whatever
	// the OS page cache provides.  For benchmarks and tests.
	FsyncNone
)

// String renders the policy the way the -framelog-fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses a -framelog-fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("framelog: unknown fsync policy %q (want always, interval, or none)", s)
}

// ErrClosed is returned by Append once Close has begun.
var ErrClosed = errors.New("framelog: log closed")

// ErrRecordTooLarge is returned by Append when the payload exceeds
// maxRecordBytes.
var ErrRecordTooLarge = errors.New("framelog: record exceeds 64 MiB")

// What a log fixes rather than takes from its Config: the segment size it
// rotates at and the depth of its append queue.  The record bound
// (maxRecordBytes) and the sparse-index stride (defaultIndexEvery) are
// the segment format's, shared with the standalone scans.
const (
	segmentBytes = 64 << 20
	queueDepth   = 256
)

// writebackBytes is how much of the active segment the appender commits
// before it asks the kernel to start writing it back (seglog.Writeback):
// the range since the last hint, once it reaches this size.  Without the
// hint a 64 MiB segment sits dirty in the page cache until the fsync that
// seals it, and that fsync stalls the appender — every acknowledgement —
// while all 64 MiB go to disk.  With it the seal waits for the last few
// MiB.  Sized on BenchmarkAppendRotating: on ext4 the fsync time per seal
// read about 2 ms at 4 MiB, 5 ms at 8 MiB and 30 ms without hints.
const writebackBytes = 4 << 20

// writeback is seglog.Writeback; tests replace it to record the ranges.
var writeback = seglog.Writeback

// Config parameterizes a Log.  Start from DefaultConfig.
type Config struct {
	// Dir is the log directory (created if absent).
	Dir string
	// Fsync is the durability policy (see FsyncPolicy).
	Fsync FsyncPolicy
	// FsyncInterval is the sync period under FsyncInterval.  Default 50ms.
	FsyncInterval time.Duration
	// RetainSegments keeps the newest K sealed segments and lets the
	// janitor delete older ones.  0 retains everything.
	RetainSegments int
	// JanitorInterval is the retention/completion-flush tick.  Default 10s.
	JanitorInterval time.Duration
	// Metrics receives the framelog_* families (nil = no metrics).
	Metrics *telemetry.Registry
	// Trace emits framelog_fsync spans (nil = no tracing).
	Trace *trace.Tracer
	// Logger receives recovery and janitor logs (nil = slog default).
	Logger *slog.Logger

	// segmentBytes, when nonzero, replaces the 64 MiB rotation size — a
	// test seam for rotation and retention over a few records.
	segmentBytes int64
}

// DefaultConfig returns the production defaults for a log rooted at dir.
func DefaultConfig(dir string) Config {
	return Config{
		Dir:             dir,
		Fsync:           FsyncInterval,
		FsyncInterval:   50 * time.Millisecond,
		JanitorInterval: 10 * time.Second,
	}
}

// validate fills defaults and rejects nonsense.
func (c *Config) validate() error {
	if c.Dir == "" {
		return errors.New("framelog: Config.Dir is required")
	}
	c.segmentBytes = cmp.Or(c.segmentBytes, segmentBytes)
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 50 * time.Millisecond
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = 10 * time.Second
	}
	if c.RetainSegments < 0 {
		return fmt.Errorf("framelog: RetainSegments %d is negative", c.RetainSegments)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return nil
}

// Recovery summarizes what Open found on disk.
type Recovery struct {
	// FirstSeq and LastSeq bound the records present after truncation
	// (0/0 when the log is empty).
	FirstSeq, LastSeq uint64
	// Records is the total verified record count across segments.
	Records uint64
	// Watermark is the highest seq W such that every record at or below W
	// is known completed; replay starts after it.
	Watermark uint64
	// Pending counts records past the watermark with no completion mark —
	// the re-enqueue set.
	Pending int
	// TruncatedBytes is how much torn/corrupt tail data recovery cut off.
	TruncatedBytes int64
	// Segments is the on-disk segment count.
	Segments int
}

// appendReq is one in-flight append, pooled so the submission path does
// not allocate.
type appendReq struct {
	sid     uint64
	payload []byte
	seq     uint64
	err     error
	done    chan struct{} // buffered(1), reused across the pool
}

// logMetrics holds the resolved framelog_* handles (no-ops when the
// registry is nil).
type logMetrics struct {
	appendRecords  *telemetry.Counter
	appendBytes    *telemetry.Counter
	appendErrors   *telemetry.Counter
	appendNs       *telemetry.Histogram
	fsyncNs        *telemetry.Histogram
	fsyncTotal     *telemetry.Counter
	batchRecords   *telemetry.Histogram
	segments       *telemetry.Gauge
	rotations      *telemetry.Counter
	retentionDel   *telemetry.Counter
	completions    *telemetry.Counter
	recovRecords   *telemetry.Gauge
	recovPending   *telemetry.Gauge
	recovTruncated *telemetry.Gauge
}

func newLogMetrics(r *telemetry.Registry) *logMetrics {
	return &logMetrics{
		appendRecords:  r.Counter("framelog_append_records_total", "Records appended to the frame log."),
		appendBytes:    r.Counter("framelog_append_bytes_total", "Bytes appended to the frame log (headers + payloads)."),
		appendErrors:   r.Counter("framelog_append_errors_total", "Appends failed by I/O errors."),
		appendNs:       r.Histogram("framelog_append_ns", "Append call latency (submit to acknowledged), nanoseconds."),
		fsyncNs:        r.Histogram("framelog_fsync_ns", "fsync latency, nanoseconds."),
		fsyncTotal:     r.Counter("framelog_fsync_total", "fsync calls issued by the appender."),
		batchRecords:   r.Histogram("framelog_batch_records", "Records committed per group-commit batch."),
		segments:       r.Gauge("framelog_segments", "Segment files currently on disk."),
		rotations:      r.Counter("framelog_rotations_total", "Segment rotations (seals)."),
		retentionDel:   r.Counter("framelog_retention_deleted_total", "Segments deleted by retention."),
		completions:    r.Counter("framelog_completions_total", "Completion marks recorded."),
		recovRecords:   r.Gauge("framelog_recovery_records", "Records found on disk at the last open."),
		recovPending:   r.Gauge("framelog_recovery_pending", "Uncompleted records pending replay at the last open."),
		recovTruncated: r.Gauge("framelog_recovery_truncated_bytes", "Torn-tail bytes truncated at the last open."),
	}
}

// Log is an open frame log.  Append is safe for concurrent use; readers
// are created with NewReader and advance independently.
type Log struct {
	cfg     Config
	metrics *logMetrics

	// Submission plumbing.  submitMu (reader side) brackets the send into
	// reqc so Close can fence out in-flight submitters with one write
	// lock; closed short-circuits later Appends.
	reqc     chan *appendReq
	stopc    chan struct{}
	donec    chan struct{}
	submitMu sync.RWMutex
	closed   atomic.Bool
	closeErr error
	reqPool  sync.Pool

	// Reader-visible commit state: the active segment and how far into it
	// flushed (whole-record) bytes extend.
	stateMu     sync.Mutex
	activeFirst uint64
	activeEnd   int64
	lastSeqA    atomic.Uint64

	// Completion sidecar.  completed and watermark are frozen at Open;
	// comp accumulates marks made during this run.
	compMu    sync.Mutex
	comp      *completionLog
	completed map[uint64]struct{}
	watermark uint64

	recovery Recovery

	// Appender-goroutine-owned state.
	nextSeq   uint64
	ioErr     error
	f         *os.File
	bufw      *bufio.Writer
	hdr       [recordHeaderSize]byte
	seg       scanResult // the active segment's summary and index
	segOffset int64
	wbOff     int64 // the active segment's bytes before it have been handed to writeback
	ftBuf     []byte
	dirty     bool
	batch     []*appendReq
}

// Open opens (or creates) the log in cfg.Dir, runs crash recovery, and
// starts the appender and janitor.  Inspect RecoveryInfo for what was
// found; Close releases everything.
func Open(cfg Config) (*Log, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:     cfg,
		metrics: newLogMetrics(cfg.Metrics),
		reqc:    make(chan *appendReq, queueDepth),
		stopc:   make(chan struct{}),
		donec:   make(chan struct{}),
		bufw:    bufio.NewWriterSize(nil, 256<<10),
		nextSeq: 1,
		seg:     scanResult{entries: make([]idxEntry, 0, 1024)},
		batch:   make([]*appendReq, 0, 128),
	}
	l.reqPool.New = func() any { return &appendReq{done: make(chan struct{}, 1)} }
	if err := l.recover(); err != nil {
		return nil, err
	}
	if err := l.loadCompletions(); err != nil {
		if l.f != nil {
			l.f.Close()
		}
		return nil, err
	}
	l.metrics.recovRecords.Set(float64(l.recovery.Records))
	l.metrics.recovPending.Set(float64(l.recovery.Pending))
	l.metrics.recovTruncated.Set(float64(l.recovery.TruncatedBytes))
	l.lastSeqA.Store(l.nextSeq - 1)
	go l.runAppender()
	return l, nil
}

// recover lists, verifies, heals, and truncates segments, leaving the
// appender positioned after the last durable record.
func (l *Log) recover() error {
	names, err := segFormat.List(l.cfg.Dir)
	if err != nil {
		return err
	}
	l.metrics.segments.Set(float64(len(names)))
	for i, name := range names {
		newest := i == len(names)-1
		if err := l.recoverSegment(filepath.Join(l.cfg.Dir, name), newest); err != nil {
			return err
		}
	}
	l.recovery.Segments = len(names)
	return nil
}

// recoverSegment verifies one segment.  Sealed segments are trusted via
// their footer; unsealed ones are scanned, their torn tail cut, and —
// unless newest — healed with a fresh footer.  The newest unsealed
// segment is kept open so appends resume into it.
func (l *Log) recoverSegment(path string, newest bool) (err error) {
	seg, err := segFormat.Open(path, os.O_RDWR)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil || l.f != seg.File {
			if cerr := seg.Close(); err == nil {
				err = cerr
			}
		}
	}()
	if seg.Footer != nil {
		ft := decodeFooter(seg.Footer)
		l.noteSegment(ft.firstSeq, ft.lastSeq, ft.records)
		return nil
	}
	// The scan also rebuilds the sparse index in case the segment stays
	// active.
	res, err := scanSegment(seg, nil)
	if err != nil {
		return err
	}
	if res.records == 0 {
		nameSeq, _ := segFormat.Key(filepath.Base(path))
		res.firstSeq, res.lastSeq = nameSeq, nameSeq-1
	}
	l.noteSegment(res.firstSeq, res.lastSeq, res.records)
	var footer []byte
	if !newest {
		// Reseal so readers and later recoveries can trust the footer
		// instead of rescanning.
		l.ftBuf = res.footer(l.ftBuf)
		footer = l.ftBuf
	}
	torn, err := seg.Heal(res.validBytes, footer)
	if err != nil {
		return err
	}
	if torn > 0 {
		l.recovery.TruncatedBytes += torn
		l.cfg.Logger.Warn("framelog: truncating torn segment tail",
			"segment", filepath.Base(path), "torn_bytes", torn, "kept_records", res.records)
	}
	if !newest {
		return nil
	}
	// Keep the newest segment active for appends.
	l.f = seg.File
	l.bufw.Reset(l.f)
	l.seg = res
	l.segOffset = seg.End
	l.wbOff = seg.End
	l.activeFirst = res.firstSeq
	l.activeEnd = seg.End
	return nil
}

// noteSegment folds one verified segment into the recovery summary and
// the resumed sequence counter.
func (l *Log) noteSegment(firstSeq, lastSeq uint64, records uint64) {
	if records > 0 {
		if l.recovery.Records == 0 {
			l.recovery.FirstSeq = firstSeq
		}
		l.recovery.LastSeq = lastSeq
		l.recovery.Records += records
	}
	if lastSeq+1 > l.nextSeq {
		l.nextSeq = lastSeq + 1
	}
	if records == 0 && firstSeq >= l.nextSeq {
		l.nextSeq = firstSeq
	}
}

// loadCompletions loads the sidecar completion log, computes the
// watermark, compacts the file, and counts the pending replay set.
func (l *Log) loadCompletions() error {
	set, err := loadCompletionSet(l.cfg.Dir)
	if err != nil {
		return err
	}
	base, err := loadWatermark(l.cfg.Dir)
	if err != nil {
		return err
	}
	if l.recovery.Records > 0 && l.recovery.FirstSeq > 0 && l.recovery.FirstSeq-1 > base {
		// Records below the oldest retained segment can never replay;
		// treat them as done.
		base = l.recovery.FirstSeq - 1
	}
	l.watermark = completionWatermark(set, base)
	if err := saveWatermark(l.cfg.Dir, l.watermark); err != nil {
		return err
	}
	l.comp, err = compactCompletionSet(l.cfg.Dir, set, l.watermark)
	if err != nil {
		return err
	}
	l.completed = set
	l.recovery.Watermark = l.watermark
	for seq := l.watermark + 1; seq <= l.recovery.LastSeq; seq++ {
		if _, ok := set[seq]; !ok {
			l.recovery.Pending++
		}
	}
	return nil
}

// RecoveryInfo reports what Open found on disk.
func (l *Log) RecoveryInfo() Recovery { return l.recovery }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.cfg.Dir }

// Durable reports whether an acknowledged append is guaranteed on stable
// storage (true only under FsyncAlways).
func (l *Log) Durable() bool { return l.cfg.Fsync == FsyncAlways }

// LastSeq returns the highest committed (reader-visible) seq, 0 when the
// log is empty.
func (l *Log) LastSeq() uint64 { return l.lastSeqA.Load() }

// Completed reports whether seq carried a completion mark at open time
// (or sits at/below the watermark).  It consults state frozen at Open and
// is safe for concurrent use; marks made after Open are not reflected.
func (l *Log) Completed(seq uint64) bool {
	if seq <= l.watermark {
		return true
	}
	_, ok := l.completed[seq]
	return ok
}

// MarkCompleted records that the frame at seq finished processing, so a
// later recovery will not replay it.  Marks are buffered; a crash can
// lose the latest few, which only widens the replay set.
func (l *Log) MarkCompleted(seq uint64) {
	if seq == 0 {
		return
	}
	l.compMu.Lock()
	err := l.comp.mark(seq)
	l.compMu.Unlock()
	if err != nil {
		l.cfg.Logger.Warn("framelog: completion mark failed", "seq", seq, "err", err)
		return
	}
	l.metrics.completions.Inc()
}

// Append writes one record carrying payload (and sid, an opaque source
// id) and returns its seq.  It blocks until the record is committed per
// the fsync policy; under FsyncAlways a returned seq is crash-durable.
// The payload is copied before Append returns.  Safe for concurrent use;
// the submission path does not allocate.
func (l *Log) Append(sid uint64, payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, ErrRecordTooLarge
	}
	t0 := time.Now()
	r := l.reqPool.Get().(*appendReq)
	r.sid, r.payload, r.seq, r.err = sid, payload, 0, nil
	l.submitMu.RLock()
	if l.closed.Load() {
		l.submitMu.RUnlock()
		r.payload = nil
		l.reqPool.Put(r)
		return 0, ErrClosed
	}
	l.reqc <- r
	l.submitMu.RUnlock()
	<-r.done
	seq, err := r.seq, r.err
	r.payload = nil
	l.reqPool.Put(r)
	l.metrics.appendNs.Observe(float64(time.Since(t0).Nanoseconds()))
	return seq, err
}

// Close drains in-flight appends, seals the active segment, flushes the
// completion sidecar, and stops the appender.  Idempotent.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		<-l.donec
		return l.closeErr
	}
	// Fence: wait out submitters that saw closed=false, so everything in
	// reqc is everything there will ever be.
	l.submitMu.Lock()
	l.submitMu.Unlock() //nolint:staticcheck // empty critical section is the fence
	close(l.stopc)
	<-l.donec
	l.compMu.Lock()
	cerr := l.comp.close()
	l.compMu.Unlock()
	if l.closeErr == nil {
		l.closeErr = cerr
	}
	return l.closeErr
}

// runAppender is the single writer goroutine: it group-commits batches
// off reqc, handles interval fsyncs, and runs the retention janitor.
func (l *Log) runAppender() {
	defer close(l.donec)
	hk := time.NewTicker(l.cfg.FsyncInterval)
	jan := time.NewTicker(l.cfg.JanitorInterval)
	defer hk.Stop()
	defer jan.Stop()
	for {
		select {
		case r := <-l.reqc:
			l.collectBatch(r)
			l.runBatch()
		case <-hk.C:
			l.housekeep()
		case <-jan.C:
			l.janitor()
		case <-l.stopc:
			for {
				select {
				case r := <-l.reqc:
					l.collectBatch(r)
					l.runBatch()
					continue
				default:
				}
				break
			}
			l.shutdownAppender()
			return
		}
	}
}

// collectBatch seeds the batch with r and greedily drains whatever else
// is already queued, up to the batch cap.
func (l *Log) collectBatch(r *appendReq) {
	l.batch = append(l.batch[:0], r)
	for len(l.batch) < cap(l.batch) {
		select {
		case r := <-l.reqc:
			l.batch = append(l.batch, r)
		default:
			return
		}
	}
}

// runBatch writes, commits, and (per policy) syncs the collected batch,
// then acknowledges every request.
func (l *Log) runBatch() {
	batchErr := l.ioErr
	var bytes int64
	if batchErr == nil {
		now := time.Now().UnixNano()
		for _, r := range l.batch {
			r.seq = l.nextSeq
			if err := l.writeRecord(r.seq, now, r.sid, r.payload); err != nil {
				batchErr = err
				break
			}
			l.nextSeq++
			bytes += recordHeaderSize + int64(len(r.payload))
		}
		if batchErr == nil {
			batchErr = l.flushCommit()
		}
		if batchErr == nil && l.cfg.Fsync == FsyncAlways {
			batchErr = l.fsync()
		}
	}
	if batchErr != nil {
		if l.ioErr == nil {
			l.ioErr = batchErr
			l.cfg.Logger.Error("framelog: append failed; log is wedged until restart", "err", batchErr)
		}
		for _, r := range l.batch {
			r.err, r.seq = batchErr, 0
		}
		l.metrics.appendErrors.Add(int64(len(l.batch)))
	} else {
		l.metrics.appendRecords.Add(int64(len(l.batch)))
		l.metrics.appendBytes.Add(bytes)
		l.metrics.batchRecords.Observe(float64(len(l.batch)))
	}
	for _, r := range l.batch {
		r.done <- struct{}{}
	}
	l.batch = l.batch[:0]
	if batchErr == nil {
		l.startWriteback()
	}
}

// startWriteback hands the active segment's committed bytes since the
// last hint to writeback once there are writebackBytes of them.  It runs
// after the batch is acknowledged, so no acknowledgement waits for it.
func (l *Log) startWriteback() {
	if n := l.segOffset - l.wbOff; n >= writebackBytes {
		writeback(l.f, l.wbOff, n)
		l.wbOff = l.segOffset
	}
}

// writeRecord appends one record to the active segment, rotating first if
// its size demands it and creating the segment lazily.
func (l *Log) writeRecord(seq uint64, ts int64, sid uint64, payload []byte) error {
	need := int64(recordHeaderSize) + int64(len(payload))
	if l.f != nil && l.seg.records > 0 && l.segOffset+need > l.cfg.segmentBytes {
		if err := l.sealActive(); err != nil {
			return err
		}
	}
	if l.f == nil {
		if err := l.createSegment(seq); err != nil {
			return err
		}
	}
	if l.seg.records%defaultIndexEvery == 0 {
		l.seg.entries = append(l.seg.entries, idxEntry{seq: seq, ts: ts, offset: l.segOffset})
	}
	encodeRecordHeader(&l.hdr, seq, ts, sid, payload)
	if _, err := l.bufw.Write(l.hdr[:]); err != nil {
		return err
	}
	if _, err := l.bufw.Write(payload); err != nil {
		return err
	}
	if l.seg.records == 0 {
		l.seg.firstTs = ts
	}
	l.seg.lastTs = ts
	l.seg.lastSeq = seq
	l.seg.records++
	l.segOffset += need
	return nil
}

// flushCommit pushes buffered writes to the OS and publishes the new
// committed bound (and last seq) to readers.
func (l *Log) flushCommit() error {
	if l.f == nil {
		return nil
	}
	if err := l.bufw.Flush(); err != nil {
		return err
	}
	l.stateMu.Lock()
	l.activeEnd = l.segOffset
	l.stateMu.Unlock()
	l.lastSeqA.Store(l.nextSeq - 1)
	l.dirty = true
	return nil
}

// fsync syncs the active segment if it holds unsynced records.
func (l *Log) fsync() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	return l.syncActive()
}

// syncActive syncs the active segment, recording latency and a trace span.
func (l *Log) syncActive() error {
	span := l.cfg.Trace.StartTrace("framelog_fsync", 0)
	t0 := time.Now()
	err := l.f.Sync()
	d := time.Since(t0)
	span.SetInt("segment_first_seq", int64(l.seg.firstSeq))
	span.End()
	l.metrics.fsyncNs.Observe(float64(d.Nanoseconds()))
	l.metrics.fsyncTotal.Inc()
	if err == nil {
		l.dirty = false
	}
	return err
}

// housekeep runs on the fsync tick: interval-policy syncs.
func (l *Log) housekeep() {
	if l.ioErr != nil {
		return
	}
	if l.cfg.Fsync == FsyncInterval && l.dirty {
		if err := l.fsync(); err != nil {
			l.cfg.Logger.Warn("framelog: interval fsync failed", "err", err)
		}
	}
}

// sealActive flushes the active segment, writes its index footer, syncs,
// and closes it; the next record creates a fresh segment.
func (l *Log) sealActive() error {
	if l.f == nil {
		return nil
	}
	if err := l.bufw.Flush(); err != nil {
		return err
	}
	l.ftBuf = l.seg.footer(l.ftBuf)
	if _, err := l.f.Write(l.ftBuf); err != nil {
		return err
	}
	if err := l.syncActive(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	l.seg.entries = l.seg.entries[:0]
	l.stateMu.Lock()
	l.activeFirst = 0
	l.activeEnd = 0
	l.stateMu.Unlock()
	l.lastSeqA.Store(l.nextSeq - 1)
	l.metrics.rotations.Inc()
	return err
}

// createSegment opens a fresh segment file whose first record will be
// seq.
func (l *Log) createSegment(seq uint64) error {
	f, err := segFormat.Create(l.cfg.Dir, seq)
	if err != nil {
		return err
	}
	l.f = f
	l.bufw.Reset(f)
	l.seg = scanResult{firstSeq: seq, lastSeq: seq - 1, entries: l.seg.entries[:0]}
	l.segOffset = seglog.HeaderSize
	l.wbOff = seglog.HeaderSize
	l.stateMu.Lock()
	l.activeFirst = seq
	l.activeEnd = seglog.HeaderSize
	l.stateMu.Unlock()
	l.metrics.segments.Add(1)
	return nil
}

// janitor flushes buffered completion marks and applies segment
// retention.
func (l *Log) janitor() {
	l.compMu.Lock()
	if err := l.comp.flush(); err != nil {
		l.cfg.Logger.Warn("framelog: completion flush failed", "err", err)
	}
	l.compMu.Unlock()
	if l.cfg.RetainSegments <= 0 {
		return
	}
	names, err := segFormat.List(l.cfg.Dir)
	if err != nil {
		l.cfg.Logger.Warn("framelog: janitor list failed", "err", err)
		return
	}
	// Never delete the active segment; among sealed ones keep the newest K.
	sealed := names
	if l.f != nil && len(sealed) > 0 {
		sealed = sealed[:len(sealed)-1]
	}
	if len(sealed) <= l.cfg.RetainSegments {
		return
	}
	removed, err := seglog.Remove(l.cfg.Dir, sealed[:len(sealed)-l.cfg.RetainSegments]...)
	for _, name := range removed {
		l.metrics.retentionDel.Inc()
		l.metrics.segments.Add(-1)
		l.cfg.Logger.Info("framelog: retention deleted segment", "segment", name)
	}
	if err != nil {
		l.cfg.Logger.Warn("framelog: retention delete failed", "err", err)
	}
}

// shutdownAppender runs on Close after the queue drains: final flush,
// seal, and a last janitor pass for completions.
func (l *Log) shutdownAppender() {
	if err := l.flushCommit(); err != nil && l.closeErr == nil {
		l.closeErr = err
	}
	if err := l.sealActive(); err != nil && l.closeErr == nil {
		l.closeErr = err
	}
	if l.closeErr == nil && l.ioErr != nil {
		l.closeErr = l.ioErr
	}
}

// committedBound reports, for the segment starting at firstSeq, how far a
// reader may read: its committed end and whether it is the active
// segment.  (0, false) means the segment is not active — consult its
// footer instead.
func (l *Log) committedBound(firstSeq uint64) (int64, bool) {
	l.stateMu.Lock()
	defer l.stateMu.Unlock()
	if l.activeFirst != firstSeq || l.activeFirst == 0 {
		return 0, false
	}
	return l.activeEnd, true
}
