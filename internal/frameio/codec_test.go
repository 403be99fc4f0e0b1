// codec_test.go: the windowed decoder and the single-write encoder against
// the byte-at-a-time reference (reference_test.go) — same accept/reject,
// identical cells, identical bytes — plus the boundaries the window adds:
// varints cut by a refill, truncation at every byte, oversized headers, and
// the rule that no frame is taken from alloc for a header that is rejected.
package frameio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/instrument"
)

// chunkReader yields at most n bytes per Read, so window refills land at
// offsets a bytes.Reader never produces.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// wideCounts is a count frame whose deltas span every varint length a real
// frame produces (1–3 bytes) plus the occasional 9–10 byte one.
func wideCounts(rng *rand.Rand, drift, tof int) *instrument.Frame {
	f := instrument.NewFrame(drift, tof)
	for i := range f.Data {
		switch rng.Intn(8) {
		case 0:
			f.Data[i] = float64(rng.Intn(1 << 20))
		case 1:
			f.Data[i] = float64(rng.Intn(60))
		case 2:
			if rng.Intn(64) == 0 {
				f.Data[i] = float64(int64(1)<<52 - int64(rng.Intn(1000)))
			}
		}
	}
	return f
}

// checkAgainstReference decodes data both ways from fresh readers and
// requires the same verdict and, when accepted, bit-identical output — from
// ReadLimited, and from ReadCounts, whose verdict and error must be
// ReadLimited's too (see readCounts).
func checkAgainstReference(t *testing.T, data []byte, lim Limits, readers ...func([]byte) io.Reader) {
	t.Helper()
	want, wantMeta, wantErr := readReference(bytes.NewReader(data), lim)
	for ri, mk := range append(readers, func(b []byte) io.Reader { return bytes.NewReader(b) }) {
		got, gotMeta, err := ReadLimited(mk(data), lim)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reader %d: verdicts differ: new %v, reference %v", ri, err, wantErr)
		}
		checkCounts(t, mk(data), lim, want, err)
		if err != nil {
			continue
		}
		if got.DriftBins != want.DriftBins || got.TOFBins != want.TOFBins || len(got.Data) != len(want.Data) {
			t.Fatalf("reader %d: geometry %dx%d, reference %dx%d", ri, got.DriftBins, got.TOFBins, want.DriftBins, want.TOFBins)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("reader %d: cell %d = %v, reference %v", ri, i, got.Data[i], want.Data[i])
			}
		}
		if len(gotMeta) != len(wantMeta) {
			t.Fatalf("reader %d: metadata %v, reference %v", ri, gotMeta, wantMeta)
		}
		for k, v := range wantMeta {
			if gotMeta[k] != v {
				t.Fatalf("reader %d: metadata %q = %q, reference %q", ri, k, gotMeta[k], v)
			}
		}
	}
}

// checkCounts reads r through ReadCounts and holds it to the float read of
// the same bytes — want and wantErr, from the reference or ReadLimited: the
// same error, or a frame that is counts exactly when every cell of want is
// an integer that fits int32 (−0, which no count can hold, is not), with a
// Bound no cell exceeds and cells equal to want's, or else promoted to a
// float frame bit-identical to want.
func checkCounts(t *testing.T, r io.Reader, lim Limits, want *instrument.Frame, wantErr error) {
	t.Helper()
	c, f, _, err := ReadCounts(r, lim, nil)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadCounts: error %v, float read %v", err, wantErr)
	}
	if err != nil {
		return
	}
	integral := true
	for _, v := range want.Data {
		integral = integral && math.Float64bits(float64(int32(v))) == math.Float64bits(v)
	}
	if (c != nil) != integral || (f != nil) == integral {
		t.Fatalf("ReadCounts: counts %v, float %v; every cell an int32 count: %v", c != nil, f != nil, integral)
	}
	if f != nil {
		if f.DriftBins != want.DriftBins || f.TOFBins != want.TOFBins || len(f.Data) != len(want.Data) {
			t.Fatalf("ReadCounts: promoted geometry %dx%d, float read %dx%d", f.DriftBins, f.TOFBins, want.DriftBins, want.TOFBins)
		}
		for i := range want.Data {
			if math.Float64bits(f.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("ReadCounts: promoted cell %d = %v, float read %v", i, f.Data[i], want.Data[i])
			}
		}
		return
	}
	if c.DriftBins != want.DriftBins || c.TOFBins != want.TOFBins || len(c.Data) != len(want.Data) {
		t.Fatalf("ReadCounts: geometry %dx%d, float read %dx%d", c.DriftBins, c.TOFBins, want.DriftBins, want.TOFBins)
	}
	for i, v := range c.Data {
		if float64(v) != want.Data[i] {
			t.Fatalf("ReadCounts: cell %d = %d, float read %v", i, v, want.Data[i])
		}
		if abs(int64(v)) > c.Bound {
			t.Fatalf("ReadCounts: cell %d = %d exceeds the bound %d", i, v, c.Bound)
		}
	}
}

func chunked(n int) func([]byte) io.Reader {
	return func(b []byte) io.Reader { return &chunkReader{data: b, n: n} }
}

func TestReadMatchesReferenceOnRandomFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, g := range []struct{ drift, tof int }{{1, 1}, {3, 5}, {63, 32}, {511, 64}, {511, 256}} {
		for _, enc := range []Encoding{Raw, Delta} {
			f := wideCounts(rng, g.drift, g.tof)
			if enc == Raw {
				f.Data[0] = math.Pi // raw carries non-integral cells too
			}
			if g.tof == 64 { // counts, on int32's edges
				for i := range f.Data {
					f.Data[i] = math.Max(math.MinInt32, math.Min(math.MaxInt32, f.Data[i]))
				}
				f.Data[len(f.Data)/2], f.Data[len(f.Data)/3] = math.MaxInt32, math.MinInt32
			}
			var buf bytes.Buffer
			if err := Write(&buf, f, Metadata{"k": "v"}, enc); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, buf.Bytes(), DefaultLimits(), chunked(1), chunked(7), chunked(4099), chunked(windowSize+1))
			got, _, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil || !framesEqual(got, f) {
				t.Fatalf("%dx%d %v: round trip failed (%v)", g.drift, g.tof, enc, err)
			}
		}
	}
}

// FuzzReadMatchesReference: on arbitrary bytes the windowed decoder and the
// byte-at-a-time reference agree on accept/reject and on every cell.
func FuzzReadMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, enc := range []Encoding{Raw, Delta} {
		var buf bytes.Buffer
		if err := Write(&buf, wideCounts(rng, 7, 5), Metadata{"a": "b"}, enc); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-2])
	}
	f.Add(append(deltaHeader(1, 2), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00))
	// Frames ReadCounts promotes part-way: a fractional and a NaN Raw cell,
	// a Delta sum crossing 2^31 inside a run of one-byte words.
	for _, v := range []float64{0.5, math.NaN()} {
		g := wideCounts(rng, 3, 4)
		g.Data[5] = v
		var buf bytes.Buffer
		if err := Write(&buf, g, nil, Raw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(append(binary.AppendVarint(deltaHeader(1, 12), 1<<31-300), "BBBBBBBBBBB"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data, fuzzLimits, chunked(3))
	})
}

// deltaHeader is the 22-byte header of a metadata-free delta frame.
func deltaHeader(drift, tof uint32) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 0) // metadata count
	b = binary.LittleEndian.AppendUint32(b, drift)
	b = binary.LittleEndian.AppendUint32(b, tof)
	return append(b, byte(Delta))
}

// TestVarintAcrossWindowRefill puts 2-, 5- and 10-byte varints at every
// offset around the first window boundary (and, through odd chunk sizes,
// around later refills).
func TestVarintAcrossWindowRefill(t *testing.T) {
	for _, delta := range []int64{200, 1 << 30, math.MinInt64} {
		for shift := 0; shift <= 2*binary.MaxVarintLen64; shift++ {
			ones := windowSize - 22 - shift // one-byte cells before the long varint
			cells := ones + 40
			data := deltaHeader(1, uint32(cells))
			for i := 0; i < ones; i++ {
				data = append(data, byte(2*(i%3))) // deltas 0, 1, 2
			}
			data = binary.AppendVarint(data, delta)
			for i := 0; i < 39; i++ {
				data = binary.AppendVarint(data, int64(i)*1000-7)
			}
			checkAgainstReference(t, data, DefaultLimits(), chunked(windowSize-3), chunked(windowSize/2+1), chunked(11))
			if _, _, err := Read(bytes.NewReader(data)); err != nil {
				t.Fatalf("delta %d shift %d: %v", delta, shift, err)
			}
		}
	}
}

// TestTruncationAtEveryByte cuts a small frame of each encoding at every
// length: always rejected, with the reference's exact error (cell position
// and io.EOF / io.ErrUnexpectedEOF class included), by ReadCounts too — on
// a counts frame, and on frames promoted before the cut (a fractional Raw
// cell, a Delta sum past int32).
func TestTruncationAtEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i, enc := range []Encoding{Raw, Delta, Raw, Delta} {
		f := wideCounts(rng, 5, 7)
		if i >= 2 { // promoted at cell 9
			f.Data[9] = []float64{2.5, 1 << 40}[i-2]
		}
		var buf bytes.Buffer
		if err := Write(&buf, f, Metadata{"key": "value"}, enc); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 0; cut < len(full); cut++ {
			_, _, wantErr := readReference(bytes.NewReader(full[:cut]), DefaultLimits())
			for _, mk := range []func([]byte) io.Reader{chunked(1), chunked(windowSize)} {
				_, _, err := Read(mk(full[:cut]))
				if err == nil || wantErr == nil {
					t.Fatalf("%v cut %d: accepted (new %v, reference %v)", enc, cut, err, wantErr)
				}
				checkCounts(t, mk(full[:cut]), DefaultLimits(), nil, err)
				if err.Error() != wantErr.Error() ||
					errors.Is(err, io.EOF) != errors.Is(wantErr, io.EOF) ||
					errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) {
					t.Fatalf("%v cut %d: error %q, reference %q", enc, cut, err, wantErr)
				}
			}
		}
	}
}

func TestOverlongVarintsRejected(t *testing.T) {
	for name, varint := range map[string][]byte{
		"11-byte":          {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"10th byte over 1": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		// As the frame's only bytes (decoded near the source's end) and with
		// cells after it (decoded on the fast path).
		for _, after := range []int{0, 64} {
			data := append(deltaHeader(1, uint32(1+after)), varint...)
			data = append(data, make([]byte, after)...)
			for _, mk := range []func([]byte) io.Reader{chunked(1), chunked(windowSize)} {
				_, _, err := Read(mk(data))
				if err == nil || !strings.Contains(err.Error(), "cell 0") || !errors.Is(err, errVarintOverflow) {
					t.Errorf("%s, %d cells after: got %v, want a cell-0 overflow", name, after, err)
				}
			}
			checkAgainstReference(t, data, DefaultLimits())
		}
	}
	// The longest legal varints still decode.
	data := deltaHeader(1, 2)
	data = binary.AppendVarint(data, math.MinInt64)
	data = binary.AppendVarint(data, math.MaxInt64)
	f, _, err := Read(bytes.NewReader(data))
	if err != nil || f.Data[0] != float64(math.MinInt64) || f.Data[1] != -1 {
		t.Fatalf("extreme deltas: %v %v", f, err)
	}
}

func TestHeaderLargerThanWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := countsFrame(rng, 15, 4)
	meta := Metadata{"blob": strings.Repeat("x", windowSize+windowSize/2), "k": "v"}
	var buf bytes.Buffer
	if err := Write(&buf, f, meta, Delta); err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func([]byte) io.Reader{chunked(1 << 20), chunked(1000)} {
		got, gotMeta, err := Read(mk(buf.Bytes()))
		if err != nil || !framesEqual(got, f) || gotMeta["blob"] != meta["blob"] || gotMeta["k"] != "v" {
			t.Fatalf("oversized header round trip: %v", err)
		}
	}
	checkAgainstReference(t, buf.Bytes(), DefaultLimits(), chunked(4099))
	checkAgainstReference(t, buf.Bytes()[:windowSize], DefaultLimits()) // cut inside the header
}

// TestMetadataLengthOverflow: a string length near 2^64 must be rejected,
// not wrapped into a negative slice bound.
func TestMetadataLengthOverflow(t *testing.T) {
	header := []byte{1} // one pair
	header = binary.AppendUvarint(header, math.MaxUint64)
	data := append([]byte(nil), magic[:]...)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(header)))
	data = append(data, header...)
	if _, _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "truncated metadata") {
		t.Fatalf("got %v, want truncated metadata", err)
	}
}

func TestReadIntoNeverAllocatesForRejectedHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf bytes.Buffer
	if err := Write(&buf, countsFrame(rng, 15, 8), Metadata{"k": "v"}, Delta); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	const encPos = 8 + 4 + 5 + 8 // magic, header length, {"k":"v"}, geometry
	patched := func(pos int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[pos] = v
		return b
	}
	lim := Limits{MaxHeaderBytes: 64, MaxDriftBins: 15, MaxTOFBins: 8, MaxCells: 15 * 8}
	calls := 0
	alloc := func(d, t int) *instrument.Frame { calls++; return instrument.NewFrame(d, t) }
	for name, c := range map[string]struct {
		data []byte
		lim  Limits
	}{
		"bad magic":         {patched(0, 'X'), lim},
		"header too long":   {good, Limits{MaxHeaderBytes: 4, MaxDriftBins: 15, MaxTOFBins: 8, MaxCells: 120}},
		"bad metadata":      {patched(12, 9), lim},
		"zero drift bins":   {patched(encPos-8, 0), lim},
		"too many cells":    {good, Limits{MaxHeaderBytes: 64, MaxDriftBins: 15, MaxTOFBins: 8, MaxCells: 119}},
		"drift axis":        {good, Limits{MaxHeaderBytes: 64, MaxDriftBins: 14, MaxTOFBins: 8, MaxCells: 120}},
		"tof axis":          {good, Limits{MaxHeaderBytes: 64, MaxDriftBins: 15, MaxTOFBins: 7, MaxCells: 120}},
		"unknown encoding":  {patched(encPos, 2), lim},
		"cut before cells":  {good[:encPos], lim},
		"cut inside header": {good[:14], lim},
	} {
		if _, _, err := ReadInto(bytes.NewReader(c.data), c.lim, alloc); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if calls != 0 {
			t.Fatalf("%s: alloc called for a rejected header", name)
		}
	}
	if _, _, err := ReadInto(bytes.NewReader(good), lim, alloc); err != nil || calls != 1 {
		t.Fatalf("good frame: err %v, %d alloc calls", err, calls)
	}
}

func TestWriteMatchesReferenceBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, meta := range []Metadata{nil, {"mode": "multiplexed+trap", "order": "9", "a": ""}} {
		for _, enc := range []Encoding{Raw, Delta} {
			f := wideCounts(rng, 63, 17)
			var got, want bytes.Buffer
			if err := Write(&got, f, meta, enc); err != nil {
				t.Fatal(err)
			}
			if err := writeReference(&want, f, meta, enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v meta %v: encoder output differs from the reference encoder's", enc, meta)
			}
			back, _, err := Read(&got)
			if err != nil || !framesEqual(back, f) {
				t.Fatalf("%v: round trip: %v", enc, err)
			}
		}
	}
}

// TestWriteIsOneExactWrite: the frame reaches w in a single Write, and
// nothing does when it cannot be encoded.
func TestWriteIsOneExactWrite(t *testing.T) {
	f := instrument.NewFrame(4, 4)
	var w countingWriter
	if err := Write(&w, f, nil, Delta); err != nil || w.calls != 1 || w.bytes != 22+16 {
		t.Fatalf("err %v, %d writes, %d bytes", err, w.calls, w.bytes)
	}
	f.Data[3] = 0.5
	w = countingWriter{}
	if err := Write(&w, f, nil, Delta); err == nil || w.calls != 0 {
		t.Fatalf("non-integral frame: err %v, %d writes", err, w.calls)
	}
}

type countingWriter struct{ calls, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	return len(p), nil
}

// TestReadIntoAllocs is the codec's allocation gate (make allocgate):
// decoding into a supplied frame allocates nothing, for either encoding,
// and neither does ReadCounts into a warm pool — counts, or promoted.
func TestReadIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := countsFrame(rng, 511, 64)
	dst := instrument.NewFrame(511, 64)
	alloc := func(int, int) *instrument.Frame { return dst }
	var pool instrument.FramePool
	for _, promote := range []bool{false, true} {
		src := f
		if promote {
			src = instrument.NewFrame(511, 64)
			copy(src.Data, f.Data)
			src.Data[1000] = 1 << 33
		}
		for _, enc := range []Encoding{Raw, Delta} {
			var buf bytes.Buffer
			if err := Write(&buf, src, nil, enc); err != nil {
				t.Fatal(err)
			}
			rd := bytes.NewReader(buf.Bytes())
			read := func() {
				rd.Reset(buf.Bytes())
				c, g, _, err := ReadCounts(rd, DefaultLimits(), &pool)
				if err != nil || (g != nil) != promote {
					t.Fatalf("%v: counts %v, float %v, %v", enc, c != nil, g != nil, err)
				}
				pool.PutCounts(c)
				pool.Put(g)
			}
			read() // fill the pool
			if raceEnabled {
				continue
			}
			if a := testing.AllocsPerRun(50, read); a != 0 {
				t.Errorf("%v promoted %v: ReadCounts into a warm pool allocates %v objects per frame, want 0", enc, promote, a)
			}
		}
	}
	for _, enc := range []Encoding{Raw, Delta} {
		var buf bytes.Buffer
		if err := Write(&buf, f, nil, enc); err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(buf.Bytes())
		if a := testing.AllocsPerRun(50, func() {
			rd.Reset(buf.Bytes())
			if _, _, err := ReadInto(rd, DefaultLimits(), alloc); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%v: ReadInto into a supplied frame allocates %v objects per frame, want 0", enc, a)
		}
		if !framesEqual(dst, f) {
			t.Fatalf("%v: decode into supplied frame corrupted it", enc)
		}
	}
}

func BenchmarkReadDeltaInto(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := countsFrame(rng, 511, 256)
	var buf bytes.Buffer
	if err := Write(&buf, f, nil, Delta); err != nil {
		b.Fatal(err)
	}
	dst := instrument.NewFrame(511, 256)
	alloc := func(int, int) *instrument.Frame { return dst }
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		if _, _, err := ReadInto(rd, DefaultLimits(), alloc); err != nil {
			b.Fatal(err)
		}
	}
}
