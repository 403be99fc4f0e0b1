// segment.go: frame-log segments on the internal/seglog discipline.  A
// segment is named by the seq of its first record (`flog-%020d.seg`),
// opens with the magic "FLSG0001", and carries back-to-back records.  A
// *sealed* segment — one the appender has rotated away from or closed
// cleanly — ends with a seglog footer (trailer magic "FLIX") whose
// payload is the index:
//
//	entries: N x (seq u64, unix-nanos i64, file offset u64)   sparse, every
//	                                                          64th record
//	summary: first/last seq u64, first/last unix-nanos i64, records u64
//
// A torn footer makes the segment unsealed, scanned record by record.
// The sparse entries let a cursor seeking to a seq jump to the nearest
// indexed record instead of scanning from the front.
package framelog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/seglog"
)

// segFormat is the frame log's segment-file format.
var segFormat = seglog.Format{
	Prefix:      "flog",
	Ext:         "seg",
	Magic:       [seglog.HeaderSize]byte{'F', 'L', 'S', 'G', '0', '0', '0', '1'},
	FooterMagic: 0x58494C46, // "FLIX"
	FooterLen:   func(n int64) bool { return n >= footerSummarySize && (n-footerSummarySize)%24 == 0 },
}

// defaultIndexEvery is the sparse-index stride: a log writes one index
// point every 64 records, and a scan rebuilds the index the same way.
const defaultIndexEvery = 64

// idxEntry is one sparse-index point: the seq and timestamp of a record
// and its byte offset from the start of the segment file.
type idxEntry struct {
	seq    uint64
	ts     int64
	offset int64
}

// footerSummarySize is the fixed summary block of a footer payload.
const footerSummarySize = 8*2 + 8*2 + 8

// encodeFooter returns the footer (payload + trailer) for the given
// summary and index entries, built in buf's storage.
func encodeFooter(buf []byte, first, last uint64, firstTs, lastTs int64, records uint64, entries []idxEntry) []byte {
	dst := buf[:0]
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, e.seq)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.ts))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.offset))
	}
	dst = binary.LittleEndian.AppendUint64(dst, first)
	dst = binary.LittleEndian.AppendUint64(dst, last)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(firstTs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lastTs))
	dst = binary.LittleEndian.AppendUint64(dst, records)
	return segFormat.AppendTrailer(dst)
}

// footer is a parsed segment footer.
type footer struct {
	firstSeq, lastSeq uint64
	firstTs, lastTs   int64
	records           uint64
	entries           []idxEntry
}

// decodeFooter parses a footer payload segFormat has verified.
func decodeFooter(p []byte) *footer {
	ft := &footer{entries: make([]idxEntry, (len(p)-footerSummarySize)/24)}
	for i := range ft.entries {
		ft.entries[i] = idxEntry{
			seq:    binary.LittleEndian.Uint64(p),
			ts:     int64(binary.LittleEndian.Uint64(p[8:])),
			offset: int64(binary.LittleEndian.Uint64(p[16:])),
		}
		p = p[24:]
	}
	ft.firstSeq = binary.LittleEndian.Uint64(p)
	ft.lastSeq = binary.LittleEndian.Uint64(p[8:])
	ft.firstTs = int64(binary.LittleEndian.Uint64(p[16:]))
	ft.lastTs = int64(binary.LittleEndian.Uint64(p[24:]))
	ft.records = binary.LittleEndian.Uint64(p[32:])
	return ft
}

// scanResult summarizes one pass over a segment's record region.
type scanResult struct {
	records           uint64
	firstSeq, lastSeq uint64
	firstTs, lastTs   int64
	// validBytes is the record-region byte count that parsed and verified;
	// the scan stops at the first torn or corrupt record.
	validBytes int64
	// entries is the sparse index rebuilt during the scan (every
	// defaultIndexEvery records).
	entries []idxEntry
}

// footer returns the footer sealing the segment r summarizes, built in
// buf's storage.
func (r *scanResult) footer(buf []byte) []byte {
	return encodeFooter(buf, r.firstSeq, r.lastSeq, r.firstTs, r.lastTs, r.records, r.entries)
}

// recordCodec is the frame log's record format for seglog's scan
// driver: it verifies each record, folds it into the scanResult and
// hands it to fn.
type recordCodec struct {
	res scanResult
	h   recordHeader
	fn  func(Record) error
}

// PayloadLen parses a record header (seglog.Codec).
func (c *recordCodec) PayloadLen(hdr []byte) (int, bool) {
	h, err := parseRecordHeader(hdr)
	c.h = h
	return int(h.payloadLen), err == nil
}

// Decode verifies one record and hands it on (seglog.Codec).
func (c *recordCodec) Decode(hdr, payload []byte, off int64) (bool, error) {
	h, res := c.h, &c.res
	if verifyRecord(hdr, h, payload) != nil {
		return false, nil
	}
	if res.records == 0 {
		res.firstSeq, res.firstTs = h.seq, h.ts
	}
	if res.records%defaultIndexEvery == 0 {
		res.entries = append(res.entries, idxEntry{seq: h.seq, ts: h.ts, offset: off})
	}
	res.lastSeq, res.lastTs = h.seq, h.ts
	res.records++
	if c.fn == nil {
		return true, nil
	}
	return true, c.fn(Record{Seq: h.seq, Time: h.ts, SID: h.sid, Payload: payload})
}

// scanSegment verifies seg's records — stopping cleanly at the first
// torn or corrupt one — and summarizes them.  fn, when non-nil, receives
// each verified record; an error from it ends the scan and is returned.
func scanSegment(seg *seglog.File, fn func(Record) error) (scanResult, error) {
	c := &recordCodec{fn: fn}
	valid, err := seg.Scan(recordHeaderSize, c)
	c.res.validBytes = valid
	return c.res, err
}

// SegmentInfo summarizes one on-disk segment for operators and replay
// tools (framedump -log, imsload -replay).
type SegmentInfo struct {
	// Path is the segment file path.
	Path string
	// FirstSeq and LastSeq bound the records the segment holds (0/0 when
	// empty).
	FirstSeq, LastSeq uint64
	// FirstTime and LastTime are the append times of those records, unix
	// nanoseconds.
	FirstTime, LastTime int64
	// Records is the verified record count.
	Records uint64
	// Bytes is the file size.
	Bytes int64
	// Sealed reports whether the segment carries a valid index footer.
	Sealed bool
	// IndexEntries is the sparse-index point count (footer or rebuilt).
	IndexEntries int
	// TornBytes is the trailing byte count that failed record parsing in
	// an unsealed segment — the residue of a torn write (0 on healthy
	// files).
	TornBytes int64
}

// ScanSegment verifies every record of one segment file — CRCs included —
// calling fn (when non-nil) with each record in order, and returns the
// segment's summary.  Record payloads passed to fn alias a scratch buffer
// and are only valid during the call.  Sealed segments are cross-checked
// against their footer; unsealed ones report any trailing torn bytes.
func ScanSegment(path string, fn func(Record) error) (SegmentInfo, error) {
	seg, err := segFormat.Open(path, os.O_RDONLY)
	if err != nil {
		return SegmentInfo{}, err
	}
	defer seg.Close()
	info := SegmentInfo{Path: path, Bytes: seg.Size}
	res, err := scanSegment(seg, fn)
	if err != nil {
		return info, err
	}
	info.FirstSeq, info.LastSeq = res.firstSeq, res.lastSeq
	info.FirstTime, info.LastTime = res.firstTs, res.lastTs
	info.Records = res.records
	info.IndexEntries = len(res.entries)
	if seg.Footer != nil {
		ft := decodeFooter(seg.Footer)
		info.Sealed = true
		info.IndexEntries = len(ft.entries)
		if res.records != ft.records || res.lastSeq != ft.lastSeq {
			return info, fmt.Errorf("framelog: %s footer claims %d records through seq %d, scan found %d through %d",
				path, ft.records, ft.lastSeq, res.records, res.lastSeq)
		}
	} else {
		info.TornBytes = seg.Size - seglog.HeaderSize - res.validBytes
	}
	return info, nil
}

// ListSegments enumerates and summarizes the segments of a log directory,
// seq-ascending, verifying each one (ScanSegment semantics).
func ListSegments(dir string) ([]SegmentInfo, error) {
	names, err := segFormat.List(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]SegmentInfo, 0, len(names))
	for _, name := range names {
		info, err := ScanSegment(filepath.Join(dir, name), nil)
		if err != nil {
			return infos, err
		}
		infos = append(infos, info)
	}
	return infos, nil
}
