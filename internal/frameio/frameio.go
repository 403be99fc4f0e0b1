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
	if err := lim.Validate(); err != nil {
		return nil, nil, err
	}
	w := windowPool.Get().(*window)
	w.r, w.pos, w.end, w.err = r, 0, 0, nil
	defer func() {
		w.r = nil
		windowPool.Put(w)
	}()
	m, err := w.next(len(magic))
	if err != nil {
		return nil, nil, fmt.Errorf("frameio: reading magic: %w", err)
	}
	if [8]byte(m) != magic {
		return nil, nil, fmt.Errorf("frameio: bad magic %q", m)
	}
	b, err := w.next(4)
	if err != nil {
		return nil, nil, err
	}
	headerLen := binary.LittleEndian.Uint32(b)
	if headerLen > lim.MaxHeaderBytes {
		return nil, nil, fmt.Errorf("frameio: header of %d bytes exceeds %d-byte bound", headerLen, lim.MaxHeaderBytes)
	}
	header, err := w.next(int(headerLen))
	if err != nil {
		return nil, nil, err
	}
	meta, err := decodeMeta(header)
	if err != nil {
		return nil, nil, err
	}
	if b, err = w.next(4); err != nil {
		return nil, nil, err
	}
	driftBins := binary.LittleEndian.Uint32(b)
	if b, err = w.next(4); err != nil {
		return nil, nil, err
	}
	tofBins := binary.LittleEndian.Uint32(b)
	if driftBins == 0 || tofBins == 0 || uint64(driftBins)*uint64(tofBins) > lim.MaxCells {
		return nil, nil, fmt.Errorf("frameio: implausible geometry %d x %d (cell bound %d)", driftBins, tofBins, lim.MaxCells)
	}
	if driftBins > lim.MaxDriftBins || tofBins > lim.MaxTOFBins {
		return nil, nil, fmt.Errorf("frameio: geometry %d x %d exceeds axis bounds %d x %d",
			driftBins, tofBins, lim.MaxDriftBins, lim.MaxTOFBins)
	}
	if b, err = w.next(1); err != nil {
		return nil, nil, err
	}
	enc := Encoding(b[0])
	if enc != Raw && enc != Delta {
		return nil, nil, fmt.Errorf("frameio: unknown encoding %d", b[0])
	}
	if alloc == nil {
		alloc = instrument.NewFrame
	}
	f := alloc(int(driftBins), int(tofBins))
	var cell int
	if enc == Raw {
		cell, err = w.readRaw(f.Data)
	} else {
		cell, err = w.readDelta(f.Data)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("frameio: cell %d: %w", cell, err)
	}
	return f, meta, nil
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

// readDelta decodes len(data) zig-zag varint deltas into running sums.  On
// failure it returns the index of the cell that could not be decoded.
// One-byte deltas are most of a count frame and go eight per step: while
// the window holds eight bytes and the frame still needs eight cells (so
// every byte looked at is the frame's), a word with no continuation bit is
// eight cells; otherwise the cells before the first continuation byte come
// from the word and the multi-byte one takes the scalar path, which reads
// on only when a varint is cut by the window's end — readDelta never waits
// for a byte the frame does not need.
func (w *window) readDelta(data []float64) (int, error) {
	const continuation = 0x8080808080808080
	var prev int64
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
		var ux uint64
		if len(buf) > 0 && buf[0] < 0x80 {
			ux, buf = uint64(buf[0]), buf[1:]
		} else {
			for {
				var n int
				if ux, n = binary.Uvarint(buf); n > 0 {
					buf = buf[n:]
					break
				}
				if n < 0 {
					return i, errVarintOverflow
				}
				w.pos = w.end - len(buf)
				if !w.more() {
					return i, w.short()
				}
				buf = w.buf[w.pos:w.end]
			}
		}
		data[i] = cell(ux)
	}
	w.pos = w.end - len(buf)
	return len(data), nil
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
