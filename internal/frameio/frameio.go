// Package frameio is the storage substrate: a compact, self-describing
// binary container for accumulated IMS-TOF frames, following the design
// goals of the companion PNNL data-format work (Shah, Davidson et al.,
// J. Am. Soc. Mass Spectrom. 2010): smaller than text encodings, cheap to
// scan, and extensible through a typed metadata header.
//
// Layout (little endian):
//
//	magic "HTIMSFR1" | header length u32 | header bytes |
//	drift bins u32 | tof bins u32 | encoding u8 |
//	payload ...
//
// Two payload encodings are provided: Raw (IEEE-754 float64 per cell) and
// Delta (zig-zag varint of the integer delta between consecutive cells) —
// accumulated ADC counts are integers with strong column correlation, which
// delta-varint coding exploits for a typical 4-8× size reduction.
//
// Both directions touch the bytes once: ReadInto refills a pooled 32 KiB
// window from the reader and decodes cells inside it, straight into a
// frame the caller supplies; Write encodes into a pooled scratch slice and
// issues a single write of the exact size.
//
// Row sums from the wire.  Both compute paths answer from a frame's row
// sums alone: ReadRowSums decodes a frame straight into them and stores no
// cell — 8 bytes a drift bin instead of 8 a cell — bit for bit the sums
// Frame.DriftProfileInto takes of ReadInto's frame.  Its Delta word step
// adds eight one-byte deltas to the row sum with two multiplies.  On
// request it also reports a count bound B >= max|cell|, from which the
// modeled FPGA path proves a whole frame free of saturation at once.
package frameio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/instrument"
)

// Encoding selects the payload representation.
type Encoding uint8

const (
	// Raw stores each cell as a float64.
	Raw Encoding = 0
	// Delta stores zig-zag varints of cell-to-cell integer differences.
	// Cells must hold integral values (accumulated counts); Write returns
	// an error otherwise.
	Delta Encoding = 1
)

// String implements fmt.Stringer.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case Delta:
		return "delta"
	}
	return fmt.Sprintf("encoding(%d)", uint8(e))
}

var magic = [8]byte{'H', 'T', 'I', 'M', 'S', 'F', 'R', '1'}

// Metadata is the typed key/value header accompanying a frame.
type Metadata map[string]string

// scratchPool holds Write's encode buffers between calls.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// Write serializes the frame: it is encoded whole into a pooled scratch
// buffer and handed to w in one Write call of exactly the encoded size, so
// nothing reaches w when the frame cannot be encoded.
func Write(w io.Writer, f *instrument.Frame, meta Metadata, enc Encoding) error {
	if f == nil {
		return fmt.Errorf("frameio: nil frame")
	}
	if enc != Raw && enc != Delta {
		return fmt.Errorf("frameio: unknown encoding %v", enc)
	}
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	buf := append((*sp)[:0], magic[:]...)
	buf = append(buf, 0, 0, 0, 0) // header length, patched below
	buf, err := appendMeta(buf, meta)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[len(magic):], uint32(len(buf)-len(magic)-4))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.DriftBins))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.TOFBins))
	buf = append(buf, byte(enc))
	switch enc {
	case Raw:
		buf = slices.Grow(buf, 8*len(f.Data))
		for _, v := range f.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case Delta:
		var prev int64
		for i, v := range f.Data {
			iv := int64(v)
			if float64(iv) != v {
				return fmt.Errorf("frameio: cell %d holds non-integral value %g (delta encoding needs counts)", i, v)
			}
			buf = binary.AppendVarint(buf, iv-prev)
			prev = iv
		}
	}
	*sp = buf
	_, err = w.Write(buf)
	return err
}

// Limits bounds what a frame header may declare before any payload-sized
// allocation happens.  Read enforces DefaultLimits; network servers should
// pass much tighter bounds to ReadInto or ReadLimited so a malicious or
// corrupt peer cannot force a huge allocation with a 17-byte header.
type Limits struct {
	// MaxHeaderBytes caps the metadata header length.
	MaxHeaderBytes uint32
	// MaxDriftBins and MaxTOFBins cap each frame axis.
	MaxDriftBins uint32
	MaxTOFBins   uint32
	// MaxCells caps DriftBins × TOFBins (the payload allocation, 8 bytes
	// per cell once decoded).
	MaxCells uint64
}

// DefaultLimits returns the historical bounds of Read: 1 MiB of metadata
// and 2³⁰ cells (8 GiB decoded) with no per-axis cap beyond the cell cap.
func DefaultLimits() Limits {
	return Limits{
		MaxHeaderBytes: 1 << 20,
		MaxDriftBins:   1 << 30,
		MaxTOFBins:     1 << 30,
		MaxCells:       1 << 30,
	}
}

// Validate reports the first unusable bound.
func (l Limits) Validate() error {
	if l.MaxHeaderBytes == 0 || l.MaxDriftBins == 0 || l.MaxTOFBins == 0 || l.MaxCells == 0 {
		return fmt.Errorf("frameio: limits must all be positive (%+v)", l)
	}
	return nil
}

// Read deserializes a frame written by Write, under DefaultLimits.
func Read(r io.Reader) (*instrument.Frame, Metadata, error) {
	return ReadLimited(r, DefaultLimits())
}

// ReadLimited deserializes a frame written by Write into a newly allocated
// frame, under lim: it is ReadInto with a nil alloc, and shares its
// contract — in particular it may read past the frame's end.
func ReadLimited(r io.Reader, lim Limits) (*instrument.Frame, Metadata, error) {
	return ReadInto(r, lim, nil)
}

// ReadInto deserializes a frame written by Write into a frame taken from
// alloc (nil means instrument.NewFrame), rejecting any header that declares
// dimensions, sizes or an encoding beyond lim before alloc is called.  alloc
// may return a frame with unspecified contents: every cell is overwritten.
// A frame without metadata yields a nil Metadata.
//
// The payload streams through a pooled 32 KiB window, so the encoded bytes
// are never held whole.  The window takes whatever r has ready: ReadInto
// may consume bytes of r past the frame's end (bound r — an
// io.LimitedReader over a net.Conn — when more follows on the stream), but
// it never waits for a byte the frame does not need.
func ReadInto(r io.Reader, lim Limits, alloc func(driftBins, tofBins int) *instrument.Frame) (*instrument.Frame, Metadata, error) {
	w, h, err := openWindow(r, lim)
	defer w.release()
	if err != nil {
		return nil, nil, err
	}
	if alloc == nil {
		alloc = instrument.NewFrame
	}
	f := alloc(h.driftBins, h.tofBins)
	var cell int
	if h.enc == Raw {
		cell, err = w.readRaw(f.Data)
	} else {
		cell, err = w.readDelta(f.Data, 0)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("frameio: cell %d: %w", cell, err)
	}
	return f, h.meta, nil
}

// ReadRowSums deserializes a frame written by Write straight into its row
// sums, storing no cell: dst[d], for d < driftBins, receives the sum of
// drift row d, bit for bit (math.Float64bits) what Frame.DriftProfileInto
// of ReadInto's frame holds — for every frame ReadInto accepts, in either
// encoding, fractional, −0, NaN and ±Inf cells included.  dst must hold
// the frame's drift bins; a frame with more is rejected after its header.
// Limits, errors and the window are ReadInto's, and on error dst and
// *bound hold nothing usable.
//
// A non-nil bound asks for the frame's count bound: *bound receives some
// B >= max|cell| when every cell of ReadInto's frame is an int32 count —
// an integer that fits int32, and not −0 — and −1 otherwise.
//
// A Raw row is its float64 cells added left to right, the reference's own
// order.  A Delta row is summed in int64 while every cell of it fits int32
// and it has at most 2^22 cells: every partial sum is then an integer of
// magnitude at most 2^53, which the reference's float adds hold exactly, so
// both are the exact sum.  From the first cell outside int32 on, the row
// continues in float64 from that exact partial sum, cell by cell, as the
// reference does.  A word of eight one-byte deltas adds 8·prev + Σ(8−k)·δₖ
// to the row and Σδₖ to the running sum prev, both from two multiplies
// (see deltaRowSums).
func ReadRowSums(r io.Reader, lim Limits, dst []float64, bound *int64) (driftBins, tofBins int, meta Metadata, err error) {
	w, h, err := openWindow(r, lim)
	defer w.release()
	if err != nil {
		return 0, 0, nil, err
	}
	if h.driftBins > len(dst) {
		return 0, 0, nil, fmt.Errorf("frameio: frame of %d drift bins, row-sum buffer holds %d", h.driftBins, len(dst))
	}
	var cell int
	if h.enc == Raw {
		cell, err = w.rawRowSums(dst[:h.driftBins], h.tofBins, bound)
	} else {
		cell, err = w.deltaRowSums(dst[:h.driftBins], h.tofBins, bound)
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("frameio: cell %d: %w", cell, err)
	}
	return h.driftBins, h.tofBins, h.meta, nil
}

// header is what precedes a frame's cells.
type header struct {
	meta               Metadata
	driftBins, tofBins int
	enc                Encoding
}

// openWindow takes a pooled window over r and decodes the frame header
// through it, rejecting anything beyond lim before a frame is allocated.
// The caller releases the window, on error too.
func openWindow(r io.Reader, lim Limits) (*window, header, error) {
	w := windowPool.Get().(*window)
	w.r, w.pos, w.end, w.err = r, 0, 0, nil
	if err := lim.Validate(); err != nil {
		return w, header{}, err
	}
	m, err := w.next(len(magic))
	if err != nil {
		return w, header{}, fmt.Errorf("frameio: reading magic: %w", err)
	}
	if [8]byte(m) != magic {
		return w, header{}, fmt.Errorf("frameio: bad magic %q", m)
	}
	b, err := w.next(4)
	if err != nil {
		return w, header{}, err
	}
	headerLen := binary.LittleEndian.Uint32(b)
	if headerLen > lim.MaxHeaderBytes {
		return w, header{}, fmt.Errorf("frameio: header of %d bytes exceeds %d-byte bound", headerLen, lim.MaxHeaderBytes)
	}
	raw, err := w.next(int(headerLen))
	if err != nil {
		return w, header{}, err
	}
	meta, err := decodeMeta(raw)
	if err != nil {
		return w, header{}, err
	}
	if b, err = w.next(4); err != nil {
		return w, header{}, err
	}
	driftBins := binary.LittleEndian.Uint32(b)
	if b, err = w.next(4); err != nil {
		return w, header{}, err
	}
	tofBins := binary.LittleEndian.Uint32(b)
	if driftBins == 0 || tofBins == 0 || uint64(driftBins)*uint64(tofBins) > lim.MaxCells {
		return w, header{}, fmt.Errorf("frameio: implausible geometry %d x %d (cell bound %d)", driftBins, tofBins, lim.MaxCells)
	}
	if driftBins > lim.MaxDriftBins || tofBins > lim.MaxTOFBins {
		return w, header{}, fmt.Errorf("frameio: geometry %d x %d exceeds axis bounds %d x %d",
			driftBins, tofBins, lim.MaxDriftBins, lim.MaxTOFBins)
	}
	if b, err = w.next(1); err != nil {
		return w, header{}, err
	}
	enc := Encoding(b[0])
	if enc != Raw && enc != Delta {
		return w, header{}, fmt.Errorf("frameio: unknown encoding %d", b[0])
	}
	return w, header{meta: meta, driftBins: int(driftBins), tofBins: int(tofBins), enc: enc}, nil
}

// windowSize is large enough that refills vanish against the cells decoded
// per window, small enough to stay in cache beside the rows being written.
const windowSize = 32 << 10

// errVarintOverflow rejects a delta cell whose varint does not fit 64 bits.
var errVarintOverflow = errors.New("frameio: varint overflows a 64-bit integer")

// window is the decoder's buffered view of its source: buf[pos:end] is
// read but not yet decoded, err is the source's terminal error (io.EOF at a
// clean end) once it has reported one.
type window struct {
	r        io.Reader
	buf      [windowSize]byte
	pos, end int
	err      error
}

var windowPool = sync.Pool{New: func() any { return new(window) }}

// release returns the window to its pool.
func (w *window) release() {
	w.r = nil
	windowPool.Put(w)
}

// more moves the undecoded bytes to the front of the window and reads once
// from the source, reporting whether any byte arrived; when none did, err
// says why (io.ErrNoProgress for a source stuck on (0, nil)).
func (w *window) more() bool {
	if w.err != nil {
		return false
	}
	w.end = copy(w.buf[:], w.buf[w.pos:w.end])
	w.pos = 0
	for tries := 0; tries < 100; tries++ {
		n, err := w.r.Read(w.buf[w.end:])
		w.end += n
		w.err = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	w.err = io.ErrNoProgress
	return false
}

// short is the error for a value the source ended before or inside of:
// its own error, a clean end mid-value becoming io.ErrUnexpectedEOF.
func (w *window) short() error {
	if w.err == io.EOF && w.end > w.pos {
		return io.ErrUnexpectedEOF
	}
	return w.err
}

// Read drains the window, then the source; it makes the window an
// io.Reader for the one value that may exceed it (see next).
func (w *window) Read(p []byte) (int, error) {
	if w.pos == w.end && !w.more() {
		return 0, w.err
	}
	n := copy(p, w.buf[w.pos:w.end])
	w.pos += n
	return n, nil
}

// next returns the next n bytes.  The slice aliases the window and is valid
// until the following call; only a metadata header larger than the window
// is read into memory of its own.
func (w *window) next(n int) ([]byte, error) {
	if n > len(w.buf) {
		out := make([]byte, n)
		_, err := io.ReadFull(w, out)
		return out, err
	}
	for w.end-w.pos < n {
		if !w.more() {
			return nil, w.short()
		}
	}
	b := w.buf[w.pos : w.pos+n]
	w.pos += n
	return b, nil
}

// readRaw decodes len(data) little-endian float64 cells, as many per pass
// as the window holds whole.  On failure it returns the index of the cell
// that could not be decoded.
func (w *window) readRaw(data []float64) (int, error) {
	for i := 0; i < len(data); {
		k := min((w.end-w.pos)/8, len(data)-i)
		if k == 0 {
			if !w.more() {
				return i, w.short()
			}
			continue
		}
		buf := w.buf[w.pos : w.pos+8*k]
		for j := range data[i : i+k] {
			data[i+j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		i += k
		w.pos += 8 * k
	}
	return len(data), nil
}

// readDelta decodes len(data) zig-zag varint deltas into running sums that
// continue from prev.  On failure it returns the index of the cell that
// could not be decoded.  One-byte deltas are most of a count frame and go
// eight per step: while the window holds eight bytes and the frame still
// needs eight cells (so every byte looked at is the frame's), a word with
// no continuation bit is eight cells; otherwise the cells before the first
// continuation byte come from the word and the multi-byte one takes the
// scalar path, which reads on only when a varint is cut by the window's
// end — readDelta never waits for a byte the frame does not need.
func (w *window) readDelta(data []float64, prev int64) (int, error) {
	const continuation = 0x8080808080808080
	cell := func(ux uint64) float64 { // the running sum after one more zig-zag delta
		prev += int64(ux>>1) ^ -int64(ux&1)
		return float64(prev)
	}
	buf := w.buf[w.pos:w.end]
	for i := 0; i < len(data); i++ {
		for len(buf) >= 8 && len(data)-i >= 8 {
			x := binary.LittleEndian.Uint64(buf)
			if m := x & continuation; m != 0 {
				k := bits.TrailingZeros64(m) >> 3
				for _, b := range buf[:k] {
					data[i] = cell(uint64(b))
					i++
				}
				buf = buf[k:]
				break
			}
			d := data[i : i+8 : i+8]
			d[0], d[1], d[2], d[3] = cell(x&0x7f), cell(x>>8&0x7f), cell(x>>16&0x7f), cell(x>>24&0x7f)
			d[4], d[5], d[6], d[7] = cell(x>>32&0x7f), cell(x>>40&0x7f), cell(x>>48&0x7f), cell(x>>56)
			buf, i = buf[8:], i+8
		}
		if i == len(data) {
			break
		}
		ux, n, b, err := w.varint(buf)
		if err != nil {
			return i, err
		}
		buf = b[n:]
		data[i] = cell(ux)
	}
	w.pos = w.end - len(buf)
	return len(data), nil
}

// rawRowSums adds each row of tofBins little-endian float64 cells left to
// right from +0 into dst, as many cells per pass as the window holds whole.
// On failure it returns the index of the cell that could not be decoded.
// A non-nil bound receives ReadRowSums' count bound, max|cell| itself,
// measured in the sum's own loop up to the first cell that is not an int32
// count.  That cell and every later one, and every cell of a read without
// a bound, take the plain sum loop, so the counting loop adds only finite
// cells to a finite sum, whose order of operands cannot change the result
// (the order of two NaN operands decides which payload a sum keeps).
func (w *window) rawRowSums(dst []float64, tofBins int, bound *int64) (int, error) {
	m := int64(-1) // max|cell| while every cell so far is an int32 count, else −1
	if bound != nil {
		m = 0
	}
	for d := range dst {
		var s float64
		for t := 0; t < tofBins; {
			k := min((w.end-w.pos)/8, tofBins-t)
			if k == 0 {
				if !w.more() {
					return d*tofBins + t, w.short()
				}
				continue
			}
			buf := w.buf[w.pos : w.pos+8*k]
			j := 0
			for ; m >= 0 && j < len(buf); j += 8 {
				// int32(v) of a fractional, −0, non-finite or out-of-range
				// v is some int32 whose bits fail the round trip.
				u := binary.LittleEndian.Uint64(buf[j:])
				c := int32(math.Float64frombits(u))
				if math.Float64bits(float64(c)) != u {
					m = -1
					break
				}
				s += float64(c)
				m = max(m, abs(int64(c)))
			}
			for ; j < len(buf); j += 8 {
				s += math.Float64frombits(binary.LittleEndian.Uint64(buf[j:]))
			}
			t += k
			w.pos += 8 * k
		}
		dst[d] = s
	}
	if bound != nil {
		*bound = m
	}
	return len(dst) * tofBins, nil
}

// deltaRowSums decodes tofBins zig-zag varint deltas per row of dst into
// the row's sum (see ReadRowSums for why it is the reference's, bit for
// bit).  On failure it returns the index of the cell that could not be
// decoded.  Like readDelta it reads on only when a varint is cut by the
// window's end, and takes eight one-byte deltas per step while the window
// holds eight bytes and the row eight more cells; such a step starts only
// from a running sum within ±lim <= ±wordSafe, so its cells fit int32 too.
// A word with a multi-byte varint adds its leading one-byte cells one by
// one and, when the varint is two bytes long and whole in the window, that
// cell too, unless it leaves int32.
//
// The word step writes no cell.  Per byte x, the zig-zag delta δ ∈
// [−64, 63] is biased to b = δ + 64 = (x>>1) XOR (64, or 63 when x is
// odd).  Byte 2j of the word goes to 16-bit lane j of a, and byte 2j+1
// beside it into the pair sum v_j; one multiply by 0x0001000100010001
// turns v into its prefix sums q (lane j: Σ_{i≤j} v_i, the biased running
// sum after byte 2j+1, so lane 3 is Σ b_k).  Lane j of q + q<<16 + a is
// then the biased running sums after bytes 2j and 2j+1 added, and a second
// multiply adds the four lanes into lane 3: Σ_k (8−k)·b_k.  No lane
// reaches 2^16, so nothing carries from one into the next.
//
// The count bound costs the word step nothing: word steps start only from
// a running sum within ±lim, and lim follows the largest |cell| measured,
// m, 64 above it (countStep).  Each time the word loop ends, the cell it
// stopped on is measured, which covers every scalar cell too; every other
// cell lies within 8·64 of a running sum within ±lim, so max(m, lim + 8·64)
// bounds them all.
func (w *window) deltaRowSums(dst []float64, tofBins int, bound *int64) (int, error) {
	var prev int64 // the running sum: the last cell
	lim := int64(wordSafe)
	var m int64 // with a bound: the largest |cell| measured
	if bound != nil {
		lim = 64
	}
	buf := w.buf[w.pos:w.end]
	for d := range dst {
		var sum int64    // the row's exact sum while inexact is false
		var fsum float64 // the row's float sum once inexact
		inexact := tofBins > 1<<22
		for t := 0; t < tofBins; t++ {
			if !inexact {
				buf, t, prev, sum = wordRun(buf, t, tofBins, prev, sum, lim)
			}
			if bound != nil {
				m, lim = countStep(prev, m)
			}
			if t == tofBins {
				break
			}
			ux, n, b, err := w.varint(buf)
			if err != nil {
				return d*tofBins + t, err
			}
			buf = b[n:]
			prev += int64(ux>>1) ^ -int64(ux&1)
			if !inexact && prev != int64(int32(prev)) {
				inexact, fsum = true, float64(sum)
			}
			if inexact {
				fsum += float64(prev)
			} else {
				sum += prev
			}
		}
		if inexact {
			dst[d] = fsum
		} else {
			dst[d] = float64(sum)
		}
	}
	w.pos = w.end - len(buf)
	if bound != nil {
		m, lim = countStep(prev, m)
		*bound = -1
		if m != math.MaxInt64 {
			*bound = max(m, lim+8*64)
		}
	}
	return len(dst) * tofBins, nil
}

// wordRun is deltaRowSums' word loop from the row's cell t on, while the
// window holds eight bytes, the row eight more cells and prev is within
// ±lim; it returns the undecoded tail, the next cell and both sums.  Out
// of deltaRowSums, its state fits in registers.
func wordRun(buf []byte, t, tofBins int, prev, sum, lim int64) ([]byte, int, int64, int64) {
	const (
		continuation = 0x8080808080808080
		ones         = 0x0101010101010101
		evenBytes    = 0x00ff00ff00ff00ff
		lanes16      = 0x0001000100010001
	)
	span := uint64(2 * lim)
	for len(buf) >= 8 && tofBins-t >= 8 && uint64(prev+lim) <= span { // −lim <= prev <= lim
		x := binary.LittleEndian.Uint64(buf)
		if c := x & continuation; c != 0 {
			k := bits.TrailingZeros64(c) >> 3
			for _, b := range buf[:k] {
				prev += int64(b>>1) ^ -int64(b&1)
				sum += prev
			}
			buf, t = buf[k:], t+k
			// A two-byte varint whole in the window is decoded here too;
			// a longer one, or a sum leaving int32, is the scalar path's.
			if len(buf) < 2 || buf[1] >= 0x80 {
				break
			}
			v := prev + (int64(buf[0]>>1&0x3f) | int64(buf[1])<<6 ^ -int64(buf[0]&1))
			if v != int64(int32(v)) {
				break
			}
			prev, sum = v, sum+v
			buf, t = buf[2:], t+1
			continue
		}
		b := x>>1&0x3f3f3f3f3f3f3f3f ^ (0x4040404040404040 ^ x&ones*0x7f)
		a := b & evenBytes
		q := (a + b>>8&evenBytes) * lanes16
		sum += 8*prev + int64((q+q<<16+a)*lanes16>>48) - 36*64
		prev += int64(q>>48) - 8*64
		buf, t = buf[8:], t+8
	}
	return buf, t, prev, sum
}

// wordSafe bounds the running sum a Delta word step may start from: eight
// one-byte deltas move it by at most 8·64, so every cell of the word fits
// int32.
const wordSafe = math.MaxInt32 - 8*64

// countStep measures cell v into m, the largest |cell| measured
// (math.MaxInt64 once a cell has left int32), and returns it with the
// bound, m + 64 but at most wordSafe, on where a word step may start.
func countStep(v, m int64) (int64, int64) {
	if v != int64(int32(v)) {
		m = math.MaxInt64
	}
	m = max(m, abs(v))
	return m, min(m, wordSafe-64) + 64
}

// varint decodes the unsigned varint at the head of buf, the undecoded
// tail of the window, and returns it with its length in bytes and the
// tail it was read from.  The window is refilled only while the varint is
// cut by its end; the tail returned then is the refilled one, still
// starting at the varint.
func (w *window) varint(buf []byte) (uint64, int, []byte, error) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1, buf, nil
	}
	for {
		ux, n := binary.Uvarint(buf)
		if n > 0 {
			return ux, n, buf, nil
		}
		if n < 0 {
			return 0, 0, nil, errVarintOverflow
		}
		w.pos = w.end - len(buf)
		if !w.more() {
			return 0, 0, nil, w.short()
		}
		buf = w.buf[w.pos:w.end]
	}
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// appendMeta appends the metadata serialized deterministically (sorted
// keys) as length-prefixed strings.
func appendMeta(dst []byte, meta Metadata) ([]byte, error) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		if len(k) == 0 {
			return nil, fmt.Errorf("frameio: empty metadata key")
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendUvarint(dst, uint64(len(meta[k])))
		dst = append(dst, meta[k]...)
	}
	return dst, nil
}

// decodeMeta parses a metadata header; nil when it declares no pairs.
func decodeMeta(b []byte) (Metadata, error) {
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("frameio: truncated metadata")
		}
		pos += n
		return v, nil
	}
	readStr := func() (string, error) {
		l, err := readUvarint()
		if err != nil {
			return "", err
		}
		if l > uint64(len(b)-pos) {
			return "", fmt.Errorf("frameio: truncated metadata string")
		}
		s := string(b[pos : pos+int(l)])
		pos += int(l)
		return s, nil
	}
	count, err := readUvarint()
	if err != nil || count == 0 {
		return nil, err
	}
	meta := Metadata{}
	for i := uint64(0); i < count; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		if k == "" { // Write refuses one, so only corruption produces it
			return nil, fmt.Errorf("frameio: empty metadata key")
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		meta[k] = v
	}
	return meta, nil
}

// EncodedSize returns the payload byte count a frame would occupy under the
// encoding, without writing (for format comparisons).
func EncodedSize(f *instrument.Frame, enc Encoding) (int64, error) {
	if f == nil {
		return 0, fmt.Errorf("frameio: nil frame")
	}
	switch enc {
	case Raw:
		return int64(len(f.Data)) * 8, nil
	case Delta:
		var total int64
		var prev int64
		buf := make([]byte, binary.MaxVarintLen64)
		for i, v := range f.Data {
			iv := int64(v)
			if float64(iv) != v {
				return 0, fmt.Errorf("frameio: cell %d holds non-integral value %g", i, v)
			}
			total += int64(binary.PutVarint(buf, iv-prev))
			prev = iv
		}
		return total, nil
	}
	return 0, fmt.Errorf("frameio: unknown encoding %v", enc)
}

// CSVSize estimates the size of the same frame as a naive CSV text export
// (the comparison baseline of the companion data-format paper).
func CSVSize(f *instrument.Frame) int64 {
	if f == nil {
		return 0
	}
	var total int64
	for _, v := range f.Data {
		total += int64(len(fmt.Sprintf("%g,", v)))
	}
	total += int64(f.DriftBins) // newlines
	return total
}
