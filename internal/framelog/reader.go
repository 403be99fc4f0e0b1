// reader.go: independent tailing cursors over an open Log.  A Reader
// owns its file descriptors and position, so any number of consumers can
// walk the same log at their own pace.  A cursor starts at the oldest
// retained record or at a sequence number; recovery reads from the
// record past the completion watermark, which may lie in the active
// segment.  Within the active segment a cursor only sees bytes the
// appender has committed (whole-record flush boundaries published under
// Log.stateMu), so a reader never observes a partial record; sealed
// segments are read through their footer.  Next returns io.EOF at the
// tail without losing position — call it again after more appends land.
package framelog

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/seglog"
)

// StartPos names where a new Reader begins.
type StartPos int

const (
	// FromBeginning starts at the oldest retained record.
	FromBeginning StartPos = iota
	// FromSeq starts at the record with Start.Seq (or the first after it
	// if that record was retention-deleted).  Start.Seq = LastSeq()+1
	// tails the log from its end.
	FromSeq
)

// Start describes a Reader's initial position.
type Start struct {
	// From selects the positioning mode.
	From StartPos
	// Seq is the target sequence number for FromSeq.
	Seq uint64
}

// Reader is one independent cursor over the log.  Not safe for
// concurrent use by multiple goroutines (create one Reader each).
type Reader struct {
	l *Log
	// target is the next seq to deliver; records below it are skipped.
	target uint64
	// exhausted is the first-seq of a sealed segment fully consumed, so
	// advancing never reopens it.
	exhausted uint64

	f        *os.File
	segFirst uint64
	sealed   bool
	// limit is the exclusive end of readable bytes in the open segment:
	// the footer start when sealed, else refreshed from the Log's
	// committed bound each Next.
	limit  int64
	offset int64

	hdr [recordHeaderSize]byte
	buf []byte
}

// NewReader creates a cursor positioned per start.  Readers remain valid
// across rotations and retention (deleted segments are skipped); they may
// also be used after Close, draining whatever is on disk.
func (l *Log) NewReader(start Start) *Reader {
	r := &Reader{l: l, target: 1}
	if start.From == FromSeq && start.Seq > 1 {
		r.target = start.Seq
	}
	return r
}

// Close releases the cursor's file descriptor.  The Reader may not be
// used afterwards.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Next advances the cursor and fills rec with the next record.  At the
// tail it returns io.EOF without losing position — call again after more
// appends.  rec.Payload aliases the Reader's internal buffer and is valid
// only until the following Next.
func (r *Reader) Next(rec *Record) error {
	for {
		if r.f == nil {
			if err := r.openNext(); err != nil {
				return err
			}
		}
		bound := r.limit
		if !r.sealed {
			if end, active := r.l.committedBound(r.segFirst); active {
				bound = end
			} else {
				// The segment stopped being active since we opened it:
				// it must have a footer by now.
				ft, start, err := readFooter(r.f)
				if err != nil {
					return err
				}
				if ft != nil {
					r.sealed = true
					r.limit = start
					bound = start
				} else {
					// Mid-rotation or healing race; try again later.
					return io.EOF
				}
			}
		}
		if r.offset+recordHeaderSize > bound {
			if !r.sealed {
				return io.EOF
			}
			// Sealed segment fully consumed: advance.
			r.exhausted = r.segFirst
			r.Close()
			continue
		}
		if _, err := r.f.ReadAt(r.hdr[:], r.offset); err != nil {
			return err
		}
		h, err := parseRecordHeader(r.hdr[:])
		if err != nil {
			return err
		}
		if r.offset+recordHeaderSize+int64(h.payloadLen) > bound {
			if !r.sealed {
				return io.EOF // racing the appender's flush; retry later
			}
			return errors.New("framelog: record crosses sealed segment bound")
		}
		if cap(r.buf) < int(h.payloadLen) {
			r.buf = make([]byte, h.payloadLen)
		}
		r.buf = r.buf[:h.payloadLen]
		if _, err := io.ReadFull(io.NewSectionReader(r.f, r.offset+recordHeaderSize, int64(h.payloadLen)), r.buf); err != nil {
			return err
		}
		if err := verifyRecord(r.hdr[:], h, r.buf); err != nil {
			return err
		}
		r.offset += recordHeaderSize + int64(h.payloadLen)
		if h.seq < r.target {
			continue // still seeking
		}
		r.target = h.seq + 1
		rec.Seq, rec.Time, rec.SID, rec.Payload = h.seq, h.ts, h.sid, r.buf
		return nil
	}
}

// openNext locates and opens the segment that should contain the
// cursor's next record, positioning via the footer's sparse index when
// available.  io.EOF means nothing to read yet.
func (r *Reader) openNext() error {
	names, err := segFormat.List(r.l.cfg.Dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return io.EOF
	}
	idx := r.pickSegment(names)
	if idx < 0 {
		return io.EOF
	}
	name := names[idx]
	first, _ := segFormat.Key(name)
	f, err := os.Open(filepath.Join(r.l.cfg.Dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return io.EOF // retention race; retry later
		}
		return err
	}
	ft, start, err := readFooter(f)
	if err != nil {
		f.Close()
		return err
	}
	r.f = f
	r.segFirst = first
	r.offset = seglog.HeaderSize
	if ft != nil {
		r.sealed = true
		r.limit = start
		r.seekSparse(ft.entries)
	} else {
		r.sealed = false
		r.limit = 0
	}
	return nil
}

// pickSegment chooses which of names the cursor should open next, or -1
// when the position is past every segment on disk.
func (r *Reader) pickSegment(names []string) int {
	// Last segment whose first seq <= target; if the target's segment was
	// deleted by retention, fall forward to the oldest remaining.
	choice := 0
	for i, name := range names {
		first, _ := segFormat.Key(name)
		if first <= r.target {
			choice = i
		}
	}
	first, _ := segFormat.Key(names[choice])
	if r.exhausted != 0 && first <= r.exhausted {
		// We already drained that sealed segment; only something strictly
		// newer counts.
		for i := choice; i < len(names); i++ {
			f, _ := segFormat.Key(names[i])
			if f > r.exhausted {
				return i
			}
		}
		return -1
	}
	return choice
}

// seekSparse jumps the cursor to the closest preceding sparse-index
// point for its target seq.
func (r *Reader) seekSparse(entries []idxEntry) {
	if len(entries) == 0 {
		return
	}
	i := sort.Search(len(entries), func(j int) bool { return entries[j].seq > r.target })
	// entries[i] is the first past the target; start from the one before.
	if i > 0 {
		i--
	}
	if entries[i].offset > r.offset {
		r.offset = entries[i].offset
	}
}

// readFooter returns the footer of the segment open as f and the offset
// it starts at; a nil footer means unsealed (or unreadable size — the
// segment is then read as unsealed).
func readFooter(f *os.File) (*footer, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, nil
	}
	p, start, err := segFormat.ReadFooter(f, st.Size())
	if p == nil {
		return nil, 0, err
	}
	return decodeFooter(p), start, nil
}
