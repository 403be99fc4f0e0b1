// reference_test.go keeps the byte-at-a-time codec the windowed one
// replaced — bufio + binary.ReadVarint/binary.Read per cell on the way in,
// binary.Write/PutVarint per cell through a bufio.Writer on the way out —
// as the differential oracle: slow, allocation-heavy, and obviously a
// transcription of the format.
package frameio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/instrument"
)

// writeReference is the pre-window encoder.
func writeReference(w io.Writer, f *instrument.Frame, meta Metadata, enc Encoding) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	header, err := appendMeta(nil, meta)
	if err != nil {
		return err
	}
	for _, v := range []any{uint32(len(header)), header, uint32(f.DriftBins), uint32(f.TOFBins), uint8(enc)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	switch enc {
	case Raw:
		for _, v := range f.Data {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	case Delta:
		var prev int64
		buf := make([]byte, binary.MaxVarintLen64)
		for i, v := range f.Data {
			iv := int64(v)
			if float64(iv) != v {
				return fmt.Errorf("frameio: cell %d holds non-integral value %g", i, v)
			}
			n := binary.PutVarint(buf, iv-prev)
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			prev = iv
		}
	}
	return bw.Flush()
}

// readReference is the pre-window decoder, checks in their original order.
func readReference(r io.Reader, lim Limits) (*instrument.Frame, Metadata, error) {
	if err := lim.Validate(); err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, nil, fmt.Errorf("frameio: reading magic: %w", err)
	}
	if m != magic {
		return nil, nil, fmt.Errorf("frameio: bad magic %q", m[:])
	}
	var headerLen uint32
	if err := binary.Read(br, binary.LittleEndian, &headerLen); err != nil {
		return nil, nil, err
	}
	if headerLen > lim.MaxHeaderBytes {
		return nil, nil, fmt.Errorf("frameio: header of %d bytes exceeds %d-byte bound", headerLen, lim.MaxHeaderBytes)
	}
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, nil, err
	}
	meta, err := decodeMeta(header)
	if err != nil {
		return nil, nil, err
	}
	var driftBins, tofBins uint32
	if err := binary.Read(br, binary.LittleEndian, &driftBins); err != nil {
		return nil, nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &tofBins); err != nil {
		return nil, nil, err
	}
	if driftBins == 0 || tofBins == 0 || uint64(driftBins)*uint64(tofBins) > lim.MaxCells {
		return nil, nil, fmt.Errorf("frameio: implausible geometry %d x %d (cell bound %d)", driftBins, tofBins, lim.MaxCells)
	}
	if driftBins > lim.MaxDriftBins || tofBins > lim.MaxTOFBins {
		return nil, nil, fmt.Errorf("frameio: geometry %d x %d exceeds axis bounds", driftBins, tofBins)
	}
	encByte, err := br.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	f := instrument.NewFrame(int(driftBins), int(tofBins))
	switch Encoding(encByte) {
	case Raw:
		for i := range f.Data {
			if err := binary.Read(br, binary.LittleEndian, &f.Data[i]); err != nil {
				return nil, nil, fmt.Errorf("frameio: cell %d: %w", i, err)
			}
		}
	case Delta:
		var prev int64
		for i := range f.Data {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, nil, fmt.Errorf("frameio: cell %d: %w", i, err)
			}
			prev += d
			f.Data[i] = float64(prev)
		}
	default:
		return nil, nil, fmt.Errorf("frameio: unknown encoding %d", encByte)
	}
	return f, meta, nil
}
