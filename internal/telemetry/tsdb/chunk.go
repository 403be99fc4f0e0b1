// chunk.go: the on-disk chunk format — the tsdb's unit of storage, a
// segment file on the internal/seglog discipline shared with
// internal/framelog.  A chunk file is named by the unix-nanosecond
// timestamp of its first sample batch (`chunk-%020d.chk`), opens with the
// magic "TSCK0001", and carries back-to-back records, each prefixed with
// type u8 | payload len u32 | CRC32C u32 of the payload.  Two record
// types exist:
//
//	seriesDef — maps a chunk-local varint series id to its identity
//	            (family, kind, sorted labels); written once per series
//	            per chunk, before the series' first sample in that chunk
//	batch     — one sampler tick: a delta-of-delta-encoded timestamp and
//	            one sample per series that had anything to report
//
// Sample values compress per kind: scalar aggregates (count, min, max,
// sum) store their float64 bits XOR'd against the previous batch's bits
// for the same series and field, varint-encoded — unchanged fields cost
// one byte; histogram aggregates store sparse (bucket, delta) varint
// pairs plus an XOR'd sum.  All per-series compression state is scoped to
// one chunk, so chunks are self-contained and a reader never needs
// context from an earlier file.
//
// A *sealed* chunk — one the store rotated away from or closed cleanly —
// ends with a seglog footer (trailer magic "TSFX") whose payload is the
// chunk's summary: first/last timestamp i64, batch and sample counts u64.
// An unsealed chunk (the process died) is scanned record by record; the
// first torn, corrupt or undecodable record ends it, exactly like
// framelog crash recovery.
package tsdb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strings"

	"repro/internal/seglog"
	"repro/internal/telemetry"
)

// chunkFormat is the tsdb's segment-file format.
var chunkFormat = seglog.Format{
	Prefix:      "chunk",
	Ext:         "chk",
	Magic:       [seglog.HeaderSize]byte{'T', 'S', 'C', 'K', '0', '0', '0', '1'},
	FooterMagic: 0x58465354, // "TSFX"
	FooterLen:   func(n int64) bool { return n == footerPayloadSize },
}

// footerPayloadSize is the fixed footer payload: firstTs, lastTs (i64),
// batches, samples (u64).
const footerPayloadSize = 8 * 4

// record types.
const (
	recSeriesDef = 1
	recBatch     = 2
)

// recordPrefixSize is type u8 | payload len u32 | CRC32C u32.
const recordPrefixSize = 9

// maxRecordPayload bounds one record payload; anything larger is treated
// as corruption by the scanner.
const maxRecordPayload = 16 << 20

// Series is one stored time series' identity: a metric family, its kind,
// and a sorted label set.  Histograms are one series (their bucket vector
// travels inside the sample); counters and gauges are scalar series.
type Series struct {
	// Family is the metric family name (e.g. "acq_stage_ns").
	Family string
	// Kind is the family's telemetry kind.
	Kind telemetry.Kind
	// Labels are the instance's dimensions, sorted by key.
	Labels []telemetry.Label
}

// Key returns the canonical identity string of the series (family plus
// sorted label signature) — the map key the store indexes by.
func (s Series) Key() string {
	var b strings.Builder
	b.WriteString(s.Family)
	for _, l := range s.Labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Point is one stored sample: an aggregate over the interval it covers.
// A raw sampler tick is an aggregate of one (Count 1, Min = Max = Sum =
// the sampled value for scalars); downsampled points merge many.  For
// histogram series the scalar fields are unused and the bucket vector,
// observation count and value sum carry the distribution delta.
type Point struct {
	// Count is the number of raw samples merged into this point (scalar
	// series) — 1 at raw resolution.
	Count int64
	// Min, Max and Sum aggregate the sampled values (scalar series).  For
	// counter series the sampled value is the per-interval increase.
	Min, Max, Sum float64
	// HCount is the histogram observation-count delta over the interval.
	HCount int64
	// HSum is the histogram sum delta over the interval.
	HSum float64
	// HBuckets are the histogram per-bucket count deltas over the interval.
	HBuckets [telemetry.NumBuckets]int64
}

// merge folds other into p (histogram buckets add; scalar aggregates
// combine min/max/sum/count).
func (p *Point) merge(o *Point, kind telemetry.Kind) {
	if kind == telemetry.KindHistogram {
		p.HCount += o.HCount
		p.HSum += o.HSum
		for i := range p.HBuckets {
			p.HBuckets[i] += o.HBuckets[i]
		}
		return
	}
	if p.Count == 0 {
		p.Min, p.Max = o.Min, o.Max
	} else if o.Count > 0 {
		p.Min = math.Min(p.Min, o.Min)
		p.Max = math.Max(p.Max, o.Max)
	}
	p.Count += o.Count
	p.Sum += o.Sum
}

// Sample is one series' point at one batch timestamp.
type Sample struct {
	// SeriesID is the store-assigned series identity (stable for the
	// store's lifetime, re-declared per chunk on disk).
	SeriesID uint32
	// Point is the sample's aggregate payload.
	Point Point
}

// zigzag encodes a signed value for varint storage.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encState is the per-series XOR compression state within one chunk: the
// previous batch's float bits per field.
type encState struct {
	countPrev                 uint64
	minBits, maxBits, sumBits uint64
	hsumBits                  uint64
	hcountPrev                uint64
}

// appendFloatXOR appends v's bits XOR'd against *prev (updating it).
func appendFloatXOR(dst []byte, prev *uint64, v float64) []byte {
	bits := math.Float64bits(v)
	dst = binary.AppendUvarint(dst, bits^*prev)
	*prev = bits
	return dst
}

// byteReader walks a record payload.  A read past the end or a bad
// varint marks it bad, after which every read yields zero, so a decoder
// checks once, at the end.
type byteReader struct {
	data []byte
	pos  int
	bad  bool
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) byte() byte {
	if r.bad || r.pos >= len(r.data) {
		r.bad = true
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *byteReader) str() string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)-r.pos) {
		r.bad = true
		return ""
	}
	r.pos += int(n)
	return string(r.data[r.pos-int(n) : r.pos])
}

// floatXOR reads one XOR-encoded float, updating *prev.
func (r *byteReader) floatXOR(prev *uint64) float64 {
	*prev ^= r.uvarint()
	return math.Float64frombits(*prev)
}

// appendStr appends a varint-length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// chunkWriter appends records to one open chunk file.  All compression
// state (series defs emitted, XOR/timestamp state) is chunk-scoped.
type chunkWriter struct {
	f    *os.File
	bw   *bufio.Writer
	path string

	bytes   int64
	batches uint64
	samples uint64

	firstTs, lastTs int64
	prevDelta       int64

	defined map[uint32]bool
	enc     map[uint32]*encState

	scratch []byte
}

// createChunk opens a fresh chunk file named for ts, bumping the stamp
// past any name collision (possible when a recovered chunk shares the
// nanosecond).
func createChunk(dir string, ts int64) (*chunkWriter, error) {
	f, err := chunkFormat.Create(dir, uint64(ts))
	for i := int64(1); os.IsExist(err) && i < 1024; i++ {
		f, err = chunkFormat.Create(dir, uint64(ts+i))
	}
	if err != nil {
		return nil, err
	}
	return &chunkWriter{
		f:       f,
		bw:      bufio.NewWriterSize(f, 64<<10),
		path:    f.Name(),
		bytes:   seglog.HeaderSize,
		defined: map[uint32]bool{},
		enc:     map[uint32]*encState{},
	}, nil
}

// writeRecord frames and writes one record (type, length, CRC, payload).
func (w *chunkWriter) writeRecord(typ byte, payload []byte) error {
	var prefix [recordPrefixSize]byte
	prefix[0] = typ
	binary.LittleEndian.PutUint32(prefix[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(prefix[5:9], crc32.Checksum(payload, seglog.Castagnoli))
	if _, err := w.bw.Write(prefix[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.bytes += recordPrefixSize + int64(len(payload))
	return nil
}

// writeDef emits a seriesDef record for id.
func (w *chunkWriter) writeDef(id uint32, s Series) error {
	b := w.scratch[:0]
	b = binary.AppendUvarint(b, uint64(id))
	b = append(b, byte(s.Kind))
	b = appendStr(b, s.Family)
	b = binary.AppendUvarint(b, uint64(len(s.Labels)))
	for _, l := range s.Labels {
		b = appendStr(b, l.Key)
		b = appendStr(b, l.Value)
	}
	w.scratch = b
	if err := w.writeRecord(recSeriesDef, b); err != nil {
		return err
	}
	w.defined[id] = true
	return nil
}

// appendBatch writes one sample batch at ts, emitting seriesDef records
// for any series this chunk has not yet declared.  lookup resolves a
// series id to its identity.  The write lands in the OS page cache on
// return (the buffered writer is flushed), so concurrent readers — and a
// post-crash recovery scan — see every acknowledged batch.
func (w *chunkWriter) appendBatch(ts int64, samples []Sample, lookup func(uint32) (Series, bool)) error {
	for _, s := range samples {
		if !w.defined[s.SeriesID] {
			series, ok := lookup(s.SeriesID)
			if !ok {
				return fmt.Errorf("tsdb: unknown series id %d", s.SeriesID)
			}
			if err := w.writeDef(s.SeriesID, series); err != nil {
				return err
			}
		}
	}

	b := w.scratch[:0]
	// Timestamps: first batch stores the absolute stamp, the second a
	// zigzag delta, later ones the delta-of-delta — regular sampler
	// cadence costs one byte per batch.
	switch {
	case w.batches == 0:
		b = binary.AppendUvarint(b, uint64(ts))
		w.firstTs = ts
	case w.batches == 1:
		delta := ts - w.lastTs
		b = binary.AppendUvarint(b, zigzag(delta))
		w.prevDelta = delta
	default:
		delta := ts - w.lastTs
		b = binary.AppendUvarint(b, zigzag(delta-w.prevDelta))
		w.prevDelta = delta
	}
	b = binary.AppendUvarint(b, uint64(len(samples)))
	for i := range samples {
		s := &samples[i]
		series, _ := lookup(s.SeriesID)
		b = binary.AppendUvarint(b, uint64(s.SeriesID))
		st := w.enc[s.SeriesID]
		if st == nil {
			st = &encState{}
			w.enc[s.SeriesID] = st
		}
		if series.Kind == telemetry.KindHistogram {
			b = binary.AppendUvarint(b, zigzag(s.Point.HCount-int64(st.hcountPrev)))
			st.hcountPrev = uint64(s.Point.HCount)
			b = appendFloatXOR(b, &st.hsumBits, s.Point.HSum)
			n := 0
			for _, c := range s.Point.HBuckets {
				if c != 0 {
					n++
				}
			}
			b = binary.AppendUvarint(b, uint64(n))
			for i, c := range s.Point.HBuckets {
				if c != 0 {
					b = binary.AppendUvarint(b, uint64(i))
					b = binary.AppendUvarint(b, zigzag(c))
				}
			}
		} else {
			b = binary.AppendUvarint(b, zigzag(s.Point.Count-int64(st.countPrev)))
			st.countPrev = uint64(s.Point.Count)
			b = appendFloatXOR(b, &st.minBits, s.Point.Min)
			b = appendFloatXOR(b, &st.maxBits, s.Point.Max)
			b = appendFloatXOR(b, &st.sumBits, s.Point.Sum)
		}
	}
	w.scratch = b
	if err := w.writeRecord(recBatch, b); err != nil {
		return err
	}
	w.lastTs = ts
	w.batches++
	w.samples += uint64(len(samples))
	return w.bw.Flush()
}

// seal writes the footer and closes the file; the chunk is immutable
// afterwards.
func (w *chunkWriter) seal() error {
	if _, err := w.bw.Write(encodeChunkFooter(w.firstTs, w.lastTs, w.batches, w.samples)); err != nil {
		return err
	}
	return w.abort()
}

// abort closes the file without sealing (the chunk stays scannable).
func (w *chunkWriter) abort() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Close()
}

// chunkFooter is a sealed chunk's summary.
type chunkFooter struct {
	firstTs, lastTs  int64
	batches, samples uint64
}

// encodeChunkFooter returns the footer (payload + trailer) of a chunk.
func encodeChunkFooter(firstTs, lastTs int64, batches, samples uint64) []byte {
	b := make([]byte, 0, footerPayloadSize+seglog.TrailerSize)
	b = binary.LittleEndian.AppendUint64(b, uint64(firstTs))
	b = binary.LittleEndian.AppendUint64(b, uint64(lastTs))
	b = binary.LittleEndian.AppendUint64(b, batches)
	b = binary.LittleEndian.AppendUint64(b, samples)
	return chunkFormat.AppendTrailer(b)
}

// decodeChunkFooter parses a footer payload chunkFormat has verified.
func decodeChunkFooter(p []byte) chunkFooter {
	return chunkFooter{
		firstTs: int64(binary.LittleEndian.Uint64(p[0:8])),
		lastTs:  int64(binary.LittleEndian.Uint64(p[8:16])),
		batches: binary.LittleEndian.Uint64(p[16:24]),
		samples: binary.LittleEndian.Uint64(p[24:32]),
	}
}

// Batch is one decoded sample batch handed to scan callbacks.
type Batch struct {
	// Ts is the batch timestamp, unix nanoseconds.
	Ts int64
	// Samples are the batch's decoded samples.  The slice and the series
	// ids are valid only during the callback.
	Samples []Sample
}

// chunkScan is the chunk format's seglog.Codec: it verifies and decodes
// records in order, mirroring chunkWriter's compression state, and hands
// each batch to fn.
type chunkScan struct {
	series map[uint32]Series
	dec    map[uint32]*encState

	batches, samples uint64
	firstTs, lastTs  int64
	prevDelta        int64
	// validBytes is the record-region byte count that verified and
	// decoded; the scan stops at the first record that does not.
	validBytes int64
	// stopped reports that fn ended the pass early with seglog.ErrStop.
	stopped bool

	batch []Sample
	fn    func(series map[uint32]Series, b Batch) error
}

// PayloadLen parses a record prefix (seglog.Codec).
func (st *chunkScan) PayloadLen(prefix []byte) (int, bool) {
	n := binary.LittleEndian.Uint32(prefix[1:5])
	return int(n), (prefix[0] == recSeriesDef || prefix[0] == recBatch) && n <= maxRecordPayload
}

// Decode verifies and decodes one record (seglog.Codec).
func (st *chunkScan) Decode(prefix, payload []byte, _ int64) (bool, error) {
	if crc32.Checksum(payload, seglog.Castagnoli) != binary.LittleEndian.Uint32(prefix[5:9]) {
		return false, nil
	}
	if prefix[0] == recSeriesDef {
		return st.decodeDef(payload), nil
	}
	ts, ok := st.decodeBatch(payload)
	if !ok || st.fn == nil {
		return ok, nil
	}
	err := st.fn(st.series, Batch{Ts: ts, Samples: st.batch})
	st.stopped = errors.Is(err, seglog.ErrStop)
	return true, err
}

// decodeDef parses a seriesDef payload into the scan dictionary.
func (st *chunkScan) decodeDef(payload []byte) bool {
	r := &byteReader{data: payload}
	id := r.uvarint()
	kind := telemetry.Kind(r.byte())
	family := r.str()
	n := r.uvarint()
	if n > 1024 {
		return false
	}
	labels := make([]telemetry.Label, 0, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		labels = append(labels, telemetry.Label{Key: r.str(), Value: r.str()})
	}
	if r.bad {
		return false
	}
	st.series[uint32(id)] = Series{Family: family, Kind: kind, Labels: labels}
	return true
}

// decodeBatch parses one batch payload, returning its timestamp and
// filling st.batch; false means it does not decode.
func (st *chunkScan) decodeBatch(payload []byte) (int64, bool) {
	r := &byteReader{data: payload}
	tsw := r.uvarint()
	var ts int64
	switch st.batches {
	case 0:
		ts = int64(tsw)
	case 1:
		delta := unzigzag(tsw)
		ts = st.lastTs + delta
		st.prevDelta = delta
	default:
		delta := st.prevDelta + unzigzag(tsw)
		ts = st.lastTs + delta
		st.prevDelta = delta
	}
	n := r.uvarint()
	if n > maxRecordPayload {
		return 0, false
	}
	st.batch = st.batch[:0]
	for i := uint64(0); i < n && !r.bad; i++ {
		id := uint32(r.uvarint())
		series, ok := st.series[id]
		if !ok {
			return 0, false
		}
		dec := st.dec[id]
		if dec == nil {
			dec = &encState{}
			st.dec[id] = dec
		}
		var p Point
		if series.Kind == telemetry.KindHistogram {
			p.HCount = int64(dec.hcountPrev) + unzigzag(r.uvarint())
			dec.hcountPrev = uint64(p.HCount)
			p.HSum = r.floatXOR(&dec.hsumBits)
			pairs := r.uvarint()
			if pairs > telemetry.NumBuckets {
				return 0, false
			}
			for j := uint64(0); j < pairs; j++ {
				idx, c := r.uvarint(), unzigzag(r.uvarint())
				if idx >= telemetry.NumBuckets {
					return 0, false
				}
				p.HBuckets[idx] = c
			}
		} else {
			p.Count = int64(dec.countPrev) + unzigzag(r.uvarint())
			dec.countPrev = uint64(p.Count)
			p.Min = r.floatXOR(&dec.minBits)
			p.Max = r.floatXOR(&dec.maxBits)
			p.Sum = r.floatXOR(&dec.sumBits)
		}
		st.batch = append(st.batch, Sample{SeriesID: id, Point: p})
	}
	if r.bad || r.pos < len(r.data) {
		return 0, false
	}
	if st.batches == 0 {
		st.firstTs = ts
	}
	st.lastTs = ts
	st.batches++
	st.samples += uint64(len(st.batch))
	return ts, true
}

// scanChunk verifies and decodes seg's records, stopping cleanly at the
// first torn, corrupt or undecodable one, and calls fn (when non-nil)
// with each batch and the chunk's series dictionary.  Batch sample slices
// alias scan scratch and are only valid during the call.  Returning
// seglog.ErrStop from fn ends the pass early.  A sealed chunk scanned to
// its end is cross-checked against its footer.
func scanChunk(seg *seglog.File, fn func(series map[uint32]Series, b Batch) error) (*chunkScan, error) {
	st := &chunkScan{series: map[uint32]Series{}, dec: map[uint32]*encState{}, fn: fn}
	valid, err := seg.Scan(recordPrefixSize, st)
	st.validBytes = valid
	if err != nil || seg.Footer == nil || st.stopped {
		return st, err
	}
	if ft := decodeChunkFooter(seg.Footer); st.batches != ft.batches || st.lastTs != ft.lastTs {
		return st, fmt.Errorf("tsdb: %s footer claims %d batches through %d, scan found %d through %d",
			seg.Name(), ft.batches, ft.lastTs, st.batches, st.lastTs)
	}
	return st, nil
}
