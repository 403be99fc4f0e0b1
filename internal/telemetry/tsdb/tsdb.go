// Package tsdb is the embedded metric time-series store: the layer that
// turns the registry's point-in-time snapshots into on-disk history that
// survives restarts.  A Sampler goroutine diffs periodic snapshots into
// per-interval aggregate samples; the Store appends them to CRC32C-checked
// chunk files (see chunk.go) at three resolutions — raw (every sampler
// tick), 1m and 10m — by folding raw samples into coarser windows as they
// arrive.  Because every stored point is an aggregate (min/max/sum/count
// for scalars, mergeable bucket vectors for histograms), downsampling is
// pure summation and windowed quantiles computed from a 10m point agree
// exactly with the same window recomputed from raw points.
//
// Chunks are internal/seglog segment files, as the frame log's are:
// appends land in the OS page cache per batch, chunks seal with a footer on
// rotation and clean close, and Open scans any unsealed chunk record by
// record, truncating a torn tail and sealing what survived — so history
// is continuous across SIGKILL.  A retention janitor deletes sealed
// chunks wholly older than the per-resolution horizon, giving dense
// recent history and sparse long history in bounded space.
package tsdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// Resolution names accepted by queries and used as subdirectory names.
const (
	// ResRaw is the sampler-tick resolution level.
	ResRaw = "raw"
	// Res1m is the one-minute downsampled level.
	Res1m = "1m"
	// Res10m is the ten-minute downsampled level.
	Res10m = "10m"
)

// How far back each resolution keeps data: the janitor deletes sealed
// chunks wholly older than their level's horizon.
const (
	retainRaw = 2 * time.Hour
	retain1m  = 26 * time.Hour
	retain10m = 8 * 24 * time.Hour
)

// When an active chunk rotates: whichever of its batch count, byte size or
// age (from its first batch to the one being appended) trips first.
const (
	maxChunkBatches = 4096
	maxChunkBytes   = 4 << 20
	maxChunkAge     = 30 * time.Minute
)

// Config wires a Store.
type Config struct {
	// Dir is the store's root directory; per-resolution chunk files live
	// in raw/, 1m/ and 10m/ beneath it.  Created if missing.
	Dir string

	// Metrics receives the store's own tsdb_* instrumentation (nil is a
	// no-op, like everywhere else in the telemetry layer).
	Metrics *telemetry.Registry

	// Logf reports recovery and janitor activity (nil discards).
	Logf func(format string, args ...any)
}

// janitorInterval is how often an appending store re-checks retention.
const janitorInterval = time.Minute

// level is one resolution's write state: its directory, the active chunk
// (nil between rotations), and — for downsampled levels — the pending
// aggregate window being folded from raw appends.
type level struct {
	name   string
	dir    string
	window time.Duration // 0 for raw
	retain time.Duration

	w *chunkWriter

	agg      map[uint32]*Point
	aggStart int64

	sealed  *telemetry.Counter
	deleted *telemetry.Counter
	batches *telemetry.Counter
}

// Store is the embedded time-series store.  One goroutine appends (the
// Sampler); any number of goroutines may Query concurrently — queries
// read chunk files through independent descriptors and stop cleanly at
// the active chunk's flushed frontier.
type Store struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	levels [3]*level

	ids    map[string]uint32
	series []Series

	lastJanitor time.Time

	samplesC *telemetry.Counter
	seriesG  *telemetry.Gauge
}

// Open creates or reopens a store rooted at cfg.Dir, recovering any
// chunk left unsealed by a crash: the torn tail (if any) is truncated and
// the surviving prefix sealed, so the new process appends to fresh chunks
// only and history spans the restart.
func Open(cfg Config) (*Store, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Dir == "" {
		return nil, errors.New("tsdb: Config.Dir is required")
	}
	s := &Store{
		cfg: cfg,
		ids: map[string]uint32{},

		samplesC: cfg.Metrics.Counter("tsdb_samples_total", "Samples appended to the raw resolution level."),
		seriesG:  cfg.Metrics.Gauge("tsdb_series", "Distinct time series tracked by the store this process lifetime."),
	}
	defs := []struct {
		name   string
		window time.Duration
		retain time.Duration
	}{
		{ResRaw, 0, retainRaw},
		{Res1m, time.Minute, retain1m},
		{Res10m, 10 * time.Minute, retain10m},
	}
	for i, d := range defs {
		lv := &level{
			name:   d.name,
			dir:    filepath.Join(cfg.Dir, d.name),
			window: d.window,
			retain: d.retain,
			agg:    map[uint32]*Point{},

			sealed:  cfg.Metrics.Counter("tsdb_chunks_sealed_total", "Chunks sealed, by resolution.", telemetry.L("res", d.name)),
			deleted: cfg.Metrics.Counter("tsdb_chunks_deleted_total", "Chunks deleted by the retention janitor, by resolution.", telemetry.L("res", d.name)),
			batches: cfg.Metrics.Counter("tsdb_batches_total", "Sample batches appended, by resolution.", telemetry.L("res", d.name)),
		}
		if err := os.MkdirAll(lv.dir, 0o755); err != nil {
			return nil, err
		}
		if err := s.recoverLevel(lv); err != nil {
			return nil, err
		}
		s.levels[i] = lv
	}
	return s, nil
}

// recoverLevel recovers every chunk in a level directory.
func (s *Store) recoverLevel(lv *level) error {
	names, err := chunkFormat.List(lv.dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := s.recoverChunk(lv, name); err != nil {
			return err
		}
	}
	return nil
}

// recoverChunk seals an unsealed chunk, cutting its torn tail, or removes
// it when no batch survives.  A sealed chunk is trusted as it is.
func (s *Store) recoverChunk(lv *level, name string) error {
	path := filepath.Join(lv.dir, name)
	seg, err := chunkFormat.Open(path, os.O_RDWR)
	if err != nil && !errors.Is(err, seglog.ErrNotSegment) {
		return err
	}
	var res *chunkScan
	if err == nil {
		defer seg.Close()
		if seg.Footer != nil {
			return nil
		}
		res, err = scanChunk(seg, nil)
	}
	switch {
	case err != nil:
		s.cfg.Logf("tsdb: dropping unreadable chunk %s: %v", path, err)
	case res.batches == 0:
		s.cfg.Logf("tsdb: removing empty unsealed chunk %s", path)
	default:
		s.cfg.Logf("tsdb: recovered %s: sealed %d batches (%d samples), truncated torn tail",
			path, res.batches, res.samples)
		if _, err := seg.Heal(res.validBytes, encodeChunkFooter(res.firstTs, res.lastTs, res.batches, res.samples)); err != nil {
			return err
		}
		lv.sealed.Add(1)
		return nil
	}
	_, err = seglog.Remove(lv.dir, name)
	return err
}

// SeriesID interns a series identity, returning the id Append samples
// must carry.  Ids are stable for the store's lifetime (chunks re-declare
// them on disk, so they need not survive restarts).
func (s *Store) SeriesID(sr Series) uint32 {
	key := sr.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[key]; ok {
		return id
	}
	id := uint32(len(s.series))
	s.ids[key] = id
	// Copy labels so callers can reuse their slices.
	cp := sr
	cp.Labels = append([]telemetry.Label(nil), sr.Labels...)
	s.series = append(s.series, cp)
	s.seriesG.Set(float64(len(s.series)))
	return id
}

// lookupSeries resolves an id under s.mu.
func (s *Store) lookupSeries(id uint32) (Series, bool) {
	if int(id) >= len(s.series) {
		return Series{}, false
	}
	return s.series[id], true
}

// Append stores one sampler tick: the batch lands in the raw level
// immediately and folds into each downsampled level's pending window,
// flushing completed windows as their boundaries are crossed.  Samples
// must carry ids from SeriesID.  Append is not safe for concurrent use
// with itself or Close (one sampler owns it); it is safe alongside Query.
func (s *Store) Append(ts time.Time, samples []Sample) error {
	if s == nil || len(samples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("tsdb: store is closed")
	}
	tsn := ts.UnixNano()
	if err := s.appendLevel(s.levels[0], tsn, samples); err != nil {
		return err
	}
	s.samplesC.Add(int64(len(samples)))
	for _, lv := range s.levels[1:] {
		ws := tsn - tsn%int64(lv.window)
		if lv.aggStart != ws && len(lv.agg) > 0 {
			if err := s.flushAggLocked(lv); err != nil {
				return err
			}
		}
		lv.aggStart = ws
		for i := range samples {
			sm := &samples[i]
			p := lv.agg[sm.SeriesID]
			if p == nil {
				p = &Point{}
				lv.agg[sm.SeriesID] = p
			}
			sr, _ := s.lookupSeries(sm.SeriesID)
			p.merge(&sm.Point, sr.Kind)
		}
	}
	if time.Since(s.lastJanitor) >= janitorInterval {
		s.lastJanitor = time.Now()
		s.janitorLocked()
	}
	return nil
}

// appendLevel writes one batch into a level, opening or rotating its
// active chunk as needed.
func (s *Store) appendLevel(lv *level, tsn int64, samples []Sample) error {
	if lv.w != nil {
		age := time.Duration(tsn - lv.w.firstTs)
		if lv.w.batches >= maxChunkBatches ||
			lv.w.bytes >= maxChunkBytes ||
			age >= maxChunkAge {
			if err := lv.w.seal(); err != nil {
				return err
			}
			lv.sealed.Add(1)
			lv.w = nil
		}
	}
	if lv.w == nil {
		w, err := createChunk(lv.dir, tsn)
		if err != nil {
			return err
		}
		lv.w = w
	}
	if err := lv.w.appendBatch(tsn, samples, s.lookupSeries); err != nil {
		return err
	}
	lv.batches.Add(1)
	return nil
}

// flushAggLocked writes a downsampled level's pending window as one batch
// stamped at the window start, then clears the pending state.
func (s *Store) flushAggLocked(lv *level) error {
	ids := make([]uint32, 0, len(lv.agg))
	for id := range lv.agg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	batch := make([]Sample, 0, len(ids))
	for _, id := range ids {
		batch = append(batch, Sample{SeriesID: id, Point: *lv.agg[id]})
	}
	if err := s.appendLevel(lv, lv.aggStart, batch); err != nil {
		return err
	}
	for id := range lv.agg {
		delete(lv.agg, id)
	}
	return nil
}

// janitorLocked deletes sealed chunks wholly older than each level's
// retention horizon.  The active chunk is never considered.
func (s *Store) janitorLocked() {
	now := time.Now()
	for _, lv := range s.levels {
		names, err := chunkFormat.List(lv.dir)
		if err != nil {
			s.cfg.Logf("tsdb: janitor list %s: %v", lv.dir, err)
			continue
		}
		horizon := now.Add(-lv.retain).UnixNano()
		var doomed []string
		lastTs := map[string]int64{}
		for _, name := range names {
			path := filepath.Join(lv.dir, name)
			if lv.w != nil && path == lv.w.path {
				continue
			}
			seg, err := chunkFormat.Open(path, os.O_RDONLY)
			if err != nil {
				continue
			}
			seg.Close()
			if seg.Footer == nil {
				continue
			}
			if ft := decodeChunkFooter(seg.Footer); ft.lastTs < horizon {
				doomed = append(doomed, name)
				lastTs[name] = ft.lastTs
			}
		}
		removed, err := seglog.Remove(lv.dir, doomed...)
		if err != nil {
			s.cfg.Logf("tsdb: janitor remove in %s: %v", lv.dir, err)
		}
		lv.deleted.Add(int64(len(removed)))
		for _, name := range removed {
			s.cfg.Logf("tsdb: retention deleted %s/%s (last sample %s old)",
				lv.name, name, now.Sub(time.Unix(0, lastTs[name])).Round(time.Second))
		}
	}
}

// Close flushes pending downsample windows (as partial aggregates — they
// merge correctly with a post-restart partial covering the same window)
// and seals every active chunk.  The store rejects appends afterwards;
// queries against the directory remain valid.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, lv := range s.levels[1:] {
		if len(lv.agg) > 0 {
			if err := s.flushAggLocked(lv); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	for _, lv := range s.levels {
		if lv.w == nil {
			continue
		}
		if err := lv.w.seal(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			lv.sealed.Add(1)
		}
		lv.w = nil
	}
	return firstErr
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// levelByName maps a resolution name to its level, nil when unknown.
func (s *Store) levelByName(name string) *level {
	for _, lv := range s.levels {
		if lv.name == name {
			return lv
		}
	}
	return nil
}

// pickResolution chooses the finest resolution whose retention horizon
// still covers since ("auto" behaviour); an explicit name wins.
func (s *Store) pickResolution(name string, since time.Time) (*level, error) {
	if name != "" && name != "auto" {
		lv := s.levelByName(name)
		if lv == nil {
			return nil, fmt.Errorf("tsdb: unknown resolution %q", name)
		}
		return lv, nil
	}
	age := time.Since(since)
	switch {
	case age <= retainRaw:
		return s.levels[0], nil
	case age <= retain1m:
		return s.levels[1], nil
	default:
		return s.levels[2], nil
	}
}
