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
// Counts from the wire.  A server wants the accumulated counts as counts:
// ReadCounts decodes every frame whose cells are all integers that fit
// int32 — every Delta frame whose running sums stay in range, every Raw
// frame whose cells are integral — into a pooled instrument.Counts (4
// bytes a cell, half a float frame), and records a bound B >= max|cell|
// while it decodes, from which the integer tile steps prove a whole frame
// free of overflow at once (DriftBins·B bounds every column's L1).  The
// first cell that is fractional, −0, non-finite or outside int32 promotes
// the frame: the cells decoded so far are widened into a float frame and
// decoding continues in float, so nothing downstream proves integrality
// again.  The Delta word step of ReadCounts zig-zags eight one-byte cells
// at once with bitwise operations on the 64-bit word and keeps the running
// sum in a register.
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

// ReadCounts deserializes a frame written by Write the way a server wants
// it: as an instrument.Counts from pool when every cell is an integer that
// fits int32, else as a float frame from pool — exactly one of the two is
// non-nil on success.  Every Delta frame whose running sums stay within
// int32 is a counts frame, and so is every Raw frame whose cells are all
// integers that fit int32 and none −0 (a count has no sign of zero, and a
// frame promoted after a −0 cell must keep its bits).  The choice is made
// while decoding: at the first cell that is fractional, −0, non-finite or
// outside int32 the frame is promoted — the cells decoded so far are
// widened into a float frame, the counts frame goes back to pool, and
// decoding continues in float.  A counts frame's Bound is at least its largest |cell|.  A nil
// pool allocates.  Limits, errors and the window are ReadInto's: either
// way the cells equal what ReadInto decodes.
func ReadCounts(r io.Reader, lim Limits, pool *instrument.FramePool) (*instrument.Counts, *instrument.Frame, Metadata, error) {
	w, h, err := openWindow(r, lim)
	defer w.release()
	if err != nil {
		return nil, nil, nil, err
	}
	if pool == nil {
		pool = new(instrument.FramePool)
	}
	c := pool.GetCounts(h.driftBins, h.tofBins)
	var n int
	var prev int64
	if h.enc == Raw {
		n, c.Bound, err = w.readRawCounts(c.Data)
	} else {
		n, prev, c.Bound, err = w.readDeltaCounts(c.Data)
	}
	if err != nil {
		pool.PutCounts(c)
		return nil, nil, nil, fmt.Errorf("frameio: cell %d: %w", n, err)
	}
	if n == len(c.Data) {
		return c, nil, h.meta, nil
	}
	// Promotion: cell n is the first that is not an int32 count, and it is
	// still undecoded in the window.
	f := pool.Get(h.driftBins, h.tofBins)
	for i, v := range c.Data[:n] {
		f.Data[i] = float64(v)
	}
	pool.PutCounts(c)
	var k int
	if h.enc == Raw {
		k, err = w.readRaw(f.Data[n:])
	} else {
		k, err = w.readDelta(f.Data[n:], prev)
	}
	if err != nil {
		pool.Put(f)
		return nil, nil, nil, fmt.Errorf("frameio: cell %d: %w", n+k, err)
	}
	return nil, f, h.meta, nil
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

// readRawCounts is readRaw into int32 counts while every cell is an
// integer that fits int32; it also returns a bound on the |cell|s it
// stored.  A count n < len(data) with a nil error stops at the first cell
// that is not such an integer, which stays in the window undecoded.
func (w *window) readRawCounts(data []int32) (int, int64, error) {
	var m int32 // max(c ^ c>>31): |c|, or |c| − 1 below zero
	for i := 0; i < len(data); {
		k := min((w.end-w.pos)/8, len(data)-i)
		if k == 0 {
			if !w.more() {
				return i, int64(m) + 1, w.short()
			}
			continue
		}
		buf := w.buf[w.pos : w.pos+8*k]
		for j, d := range data[i : i+k] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j : 8*j+8]))
			// Out of range or NaN, int32(v) is some int32 whose bits fail
			// the test; so do −0's.
			c := int32(v)
			if math.Float64bits(float64(c)) != math.Float64bits(v) {
				w.pos += 8 * j
				return i + j, int64(m) + 1, nil
			}
			_ = d
			data[i+j] = c
			m = max(m, c^c>>31)
		}
		i += k
		w.pos += 8 * k
	}
	return len(data), int64(m) + 1, nil
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

// readDeltaCounts is readDelta into int32 counts while every running sum
// fits int32.  It returns the cells stored, the running sum after them,
// and a bound on their |cell|s.  A count n < len(data) with a nil error
// stops at the first sum outside int32, whose varint stays in the window
// undecoded.  A word of eight one-byte deltas is zig-zagged all at once —
// per byte, b>>1 XOR 0xff when b is odd, the delta as an int8 — and its
// running sum stays in a register.  Such a word moves the sum by at most
// 8·64, so it takes the word step only from a sum within ±wordSafe, where
// every cell it stores fits; each of its cells lies within 256 of the sum
// before or after it, both of which the bound has seen, so the bound
// records only the sum after it and adds 256 at the end.
func (w *window) readDeltaCounts(data []int32) (int, int64, int64, error) {
	const (
		continuation = 0x8080808080808080
		ones         = 0x0101010101010101
		wordSafe     = math.MaxInt32 - 8*64
	)
	// m is max(v ^ v>>63) over the sums seen: |v|, or |v| − 1 below zero.
	var prev, m int64
	bound := func() int64 { return m + 1 + 256 }
	buf := w.buf[w.pos:w.end]
	for i := 0; i < len(data); i++ {
		for len(buf) >= 8 && len(data)-i >= 8 && -wordSafe <= prev && prev <= wordSafe {
			x := binary.LittleEndian.Uint64(buf)
			if c := x & continuation; c != 0 {
				k := bits.TrailingZeros64(c) >> 3
				for _, b := range buf[:k] {
					prev += int64(b>>1) ^ -int64(b&1)
					data[i] = int32(prev)
					m = max(m, prev^prev>>63)
					i++
				}
				buf = buf[k:]
				break
			}
			z := (x >> 1 & 0x7f7f7f7f7f7f7f7f) ^ (x & ones * 0xff)
			d := data[i : i+8 : i+8]
			p := prev
			p += int64(int8(z))
			d[0] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[1] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[2] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[3] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[4] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[5] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[6] = int32(p)
			z >>= 8
			p += int64(int8(z))
			d[7] = int32(p)
			m = max(m, p^p>>63)
			prev = p
			buf, i = buf[8:], i+8
		}
		if i == len(data) {
			break
		}
		ux, n, b, err := w.varint(buf)
		if err != nil {
			return i, prev, 0, err
		}
		buf = b
		v := prev + (int64(ux>>1) ^ -int64(ux&1))
		if v != int64(int32(v)) {
			w.pos = w.end - len(buf)
			return i, prev, bound(), nil
		}
		buf, prev = buf[n:], v
		data[i] = int32(v)
		m = max(m, v^v>>63)
	}
	w.pos = w.end - len(buf)
	return len(data), prev, bound(), nil
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
