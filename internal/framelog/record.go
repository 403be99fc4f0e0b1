// record.go: the on-disk record format of the frame log.  Every appended
// entry is a fixed 36-byte little-endian header followed by the payload:
//
//	magic "FLR1" u32 | seq u64 | unix-nanos i64 | source id u64 |
//	payload len u32 | CRC32C u32
//
// The CRC (Castagnoli polynomial, the same one Kafka and ext4 use) covers
// the first 32 header bytes plus the payload, so a torn write — a partial
// header, a partial payload, or a header whose payload never made it to
// disk — fails verification and recovery truncates the log there.  Seqs
// are assigned contiguously by the appender starting at 1 and never reused,
// which is what lets recovery reason about completeness with nothing but a
// range and a set of completed seqs.
package framelog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/seglog"
)

// recordMagic opens every record header ("FLR1" little-endian).
const recordMagic = 0x31524C46

// recordHeaderSize is the fixed encoded header length in bytes.
const recordHeaderSize = 36

// Record is one decoded log entry.  Payload aliases an internal buffer
// owned by the reader that produced it and is only valid until the next
// read; copy it to retain it.
type Record struct {
	// Seq is the record's log-wide sequence number (contiguous, from 1).
	Seq uint64
	// Time is the append wall-clock time, unix nanoseconds.
	Time int64
	// SID is the source identity the appender attached — the acquisition
	// daemon stores the frame's trace id (or 0 when untraced).
	SID uint64
	// Payload is the opaque record body.  The acquisition daemon stores
	// the verbatim IMSP FRAME payload (options prefix + frameio frame), so
	// a replayed record is bit-identical to what the client sent.
	Payload []byte
}

// encodeRecordHeader fills hdr with the header for (seq, ts, sid, payload),
// including the CRC over header-sans-CRC plus payload.
func encodeRecordHeader(hdr *[recordHeaderSize]byte, seq uint64, ts int64, sid uint64, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(ts))
	binary.LittleEndian.PutUint64(hdr[20:28], sid)
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(len(payload)))
	crc := crc32.Update(0, seglog.Castagnoli, hdr[0:32])
	crc = crc32.Update(crc, seglog.Castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[32:36], crc)
}

// recordHeader is a parsed header awaiting payload verification.
type recordHeader struct {
	seq        uint64
	ts         int64
	sid        uint64
	payloadLen uint32
	crc        uint32
}

// maxRecordBytes bounds one record payload: Append refuses a larger one,
// and every scan and cursor rejects a header that declares one, so a
// corrupt header cannot force a huge allocation or a multi-gigabyte read.
const maxRecordBytes = 64 << 20

// parseRecordHeader decodes and sanity-checks one header.
func parseRecordHeader(b []byte) (recordHeader, error) {
	if len(b) < recordHeaderSize {
		return recordHeader{}, fmt.Errorf("framelog: truncated record header (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != recordMagic {
		return recordHeader{}, fmt.Errorf("framelog: bad record magic %#x", binary.LittleEndian.Uint32(b[0:4]))
	}
	h := recordHeader{
		seq:        binary.LittleEndian.Uint64(b[4:12]),
		ts:         int64(binary.LittleEndian.Uint64(b[12:20])),
		sid:        binary.LittleEndian.Uint64(b[20:28]),
		payloadLen: binary.LittleEndian.Uint32(b[28:32]),
		crc:        binary.LittleEndian.Uint32(b[32:36]),
	}
	if h.payloadLen > maxRecordBytes {
		return recordHeader{}, fmt.Errorf("framelog: record declares %d-byte payload, bound is %d", h.payloadLen, maxRecordBytes)
	}
	return h, nil
}

// verifyRecord recomputes the CRC of a parsed header and its payload.
func verifyRecord(hdrBytes []byte, h recordHeader, payload []byte) error {
	crc := crc32.Update(0, seglog.Castagnoli, hdrBytes[:32])
	crc = crc32.Update(crc, seglog.Castagnoli, payload)
	if crc != h.crc {
		return fmt.Errorf("framelog: record seq %d CRC mismatch (want %#x, got %#x)", h.seq, h.crc, crc)
	}
	return nil
}
