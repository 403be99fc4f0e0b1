// Package seglog is the segment-file discipline under the frame log
// (internal/framelog) and the metric history (internal/telemetry/tsdb).
// A store's data lives in a directory of segment files; this package
// owns everything about those files except what their records and footer
// payloads say:
//
//   - Naming: `<prefix>-%020d.<ext>`, keyed by the segment's first seq or
//     first timestamp, so lexical order is key order.
//   - Creation: O_EXCL, the store's 8-byte file magic, then a directory
//     fsync so the new entry survives a host crash.
//   - Sealing: a segment the store is done with ends with a footer —
//     payload ‖ len u32 ‖ CRC32C u32 ‖ magic u32 — found with one seek
//     from EOF.  A footer whose trailer or CRC does not check out marks
//     the segment unsealed.
//   - Scanning: back-to-back records, each read through the store's
//     Codec; the scan stops at the first record whose header, length, CRC
//     or decode fails and reports how many record bytes verified.
//     Everything after that point is the torn tail.
//   - Healing: truncate at the verified count, append the footer, fsync.
//   - Retention: remove segments, then fsync the directory once.
//   - Writeback: a hint that starts the kernel writing a range of a
//     segment back, so the fsync that seals it has less to wait for.
//
// All integers are little-endian; CRC32C is the Castagnoli polynomial.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// HeaderSize is the length of the file magic that opens every segment.
const HeaderSize = 8

// TrailerSize is the fixed end of a footer: payload length u32, CRC32C
// u32, footer magic u32.
const TrailerSize = 12

// Castagnoli is the CRC32C table every record and footer checksum uses.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrStop, returned by a Codec's Decode for a record it accepted, ends the
// scan after that record without error.
var ErrStop = errors.New("seglog: stop scan")

// ErrNotSegment reports a file that does not open with the format's
// magic.
var ErrNotSegment = errors.New("not a segment file (bad magic)")

// Format is one store's segment files.
type Format struct {
	// Prefix and Ext frame the 20-digit key in file names.
	Prefix, Ext string
	// Magic opens every file.
	Magic [HeaderSize]byte
	// FooterMagic closes every footer trailer.
	FooterMagic uint32
	// FooterLen reports whether an n-byte footer payload has the store's
	// shape; a trailer declaring any other length marks the segment
	// unsealed.
	FooterLen func(n int64) bool
}

// Name renders the file name of the segment keyed key.
func (f Format) Name(key uint64) string {
	return fmt.Sprintf("%s-%020d.%s", f.Prefix, key, f.Ext)
}

// Key parses a segment file name back to its key.
func (f Format) Key(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, f.Prefix+"-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, "."+f.Ext); !ok || len(digits) != 20 {
		return 0, false
	}
	key, err := strconv.ParseUint(digits, 10, 64)
	return key, err == nil
}

// List returns the segment file names in dir, key-ascending.
func (f Format) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir) // sorted by name, hence by key
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if _, ok := f.Key(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Create makes the segment keyed key in dir (failing if it exists),
// writes the magic and fsyncs the directory.  The file is open for
// reading and writing, positioned after the magic.
func (f Format) Create(dir string, key uint64) (*os.File, error) {
	file, err := os.OpenFile(filepath.Join(dir, f.Name(key)), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err = file.Write(f.Magic[:]); err == nil {
		err = SyncDir(dir)
	}
	if err != nil {
		file.Close()
		return nil, err
	}
	return file, nil
}

// AppendTrailer turns b, a footer payload, into a whole footer by
// appending its trailer.
func (f Format) AppendTrailer(b []byte) []byte {
	crc := crc32.Checksum(b, Castagnoli)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(b)))
	b = binary.LittleEndian.AppendUint32(b, crc)
	return binary.LittleEndian.AppendUint32(b, f.FooterMagic)
}

// ReadFooter finds a sealed segment's footer with one seek from EOF and
// returns its payload and the offset it starts at — the end of the
// record region.  A nil payload means the segment is unsealed, its record
// region running to size; the error reports I/O failures only.
func (f Format) ReadFooter(r io.ReaderAt, size int64) ([]byte, int64, error) {
	if size < HeaderSize+TrailerSize {
		return nil, size, nil
	}
	var tr [TrailerSize]byte
	if _, err := r.ReadAt(tr[:], size-TrailerSize); err != nil {
		return nil, 0, err
	}
	n := int64(binary.LittleEndian.Uint32(tr[0:4]))
	start := size - TrailerSize - n
	if binary.LittleEndian.Uint32(tr[8:12]) != f.FooterMagic || !f.FooterLen(n) || start < HeaderSize {
		return nil, size, nil
	}
	payload := make([]byte, n)
	if _, err := r.ReadAt(payload, start); err != nil {
		return nil, 0, err
	}
	if crc32.Checksum(payload, Castagnoli) != binary.LittleEndian.Uint32(tr[4:8]) {
		return nil, size, nil
	}
	return payload, start, nil
}

// File is one open segment.
type File struct {
	*os.File
	format Format
	// Size is the file size.
	Size int64
	// Footer is a sealed segment's footer payload, nil when unsealed.
	Footer []byte
	// End is the exclusive end of the record region: the footer's start
	// when sealed, else Size.
	End int64
}

// Open opens the segment at path — flag is os.O_RDONLY or os.O_RDWR —
// checks its magic and reads its footer.  A file shorter than the magic
// is a create that crashed before the magic landed: opened for writing
// it is re-made empty, read-only it is an error like a wrong magic.
func (f Format) Open(path string, flag int) (*File, error) {
	file, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, err
	}
	s := &File{File: file, format: f}
	st, err := file.Stat()
	if err == nil {
		s.Size = st.Size()
		err = s.checkMagic(path, flag)
	}
	if err == nil {
		s.Footer, s.End, err = f.ReadFooter(file, s.Size)
	}
	if err != nil {
		file.Close()
		return nil, err
	}
	return s, nil
}

// checkMagic verifies the file magic, re-making a short writable file.
func (s *File) checkMagic(path string, flag int) error {
	if s.Size < HeaderSize && flag&os.O_RDWR != 0 {
		s.Size = HeaderSize
		_, err := s.WriteAt(s.format.Magic[:], 0)
		return err
	}
	var magic [HeaderSize]byte
	if n, _ := s.ReadAt(magic[:], 0); n != HeaderSize || magic != s.format.Magic {
		return fmt.Errorf("seglog: %s: %w", path, ErrNotSegment)
	}
	return nil
}

// A Codec is a store's record format as the scan driver sees it: a
// fixed-size header that declares the payload length, then the payload.
type Codec interface {
	// PayloadLen parses a record header and returns its payload length;
	// false marks the header torn or corrupt.
	PayloadLen(hdr []byte) (int, bool)
	// Decode verifies and decodes one record, whose header starts at file
	// offset off.  ok false marks it torn or corrupt: the scan stops
	// before it.  Otherwise err, if not nil, ends the scan after it —
	// cleanly for ErrStop, returned as is for anything else.  payload is
	// only valid during the call.
	Decode(hdr, payload []byte, off int64) (ok bool, err error)
}

// Scan reads the record region — from the magic to End — as records with
// hdrSize-byte headers, through c, and returns the byte count of the
// records that verified: the region's good prefix.  It stops, without
// error, at the first record whose header, length, CRC or decode fails.
func (s *File) Scan(hdrSize int, c Codec) (int64, error) {
	if _, err := s.Seek(HeaderSize, io.SeekStart); err != nil {
		return 0, err
	}
	region := s.End - HeaderSize
	r := bufio.NewReaderSize(io.LimitReader(s.File, region), int(min(region, 256<<10)))
	hdr := make([]byte, hdrSize)
	var payload []byte
	var valid int64
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return valid, nil
		}
		n, ok := c.PayloadLen(hdr)
		if !ok || int64(n) > region-valid-int64(len(hdr)) {
			return valid, nil
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, nil
		}
		ok, err := c.Decode(hdr, payload, HeaderSize+valid)
		if !ok {
			return valid, nil
		}
		valid += int64(len(hdr) + n)
		if errors.Is(err, ErrStop) {
			return valid, nil
		}
		if err != nil {
			return valid, err
		}
	}
}

// Heal cuts the torn tail a scan found — everything past the magic and
// valid record bytes — writes footer there (payload and trailer, from
// AppendTrailer; nil leaves the segment unsealed, to append to) and
// fsyncs.  It returns how many bytes it cut and leaves the file
// positioned after what it wrote.
func (s *File) Heal(valid int64, footer []byte) (int64, error) {
	end := HeaderSize + valid
	cut := s.Size - end
	if cut > 0 {
		if err := s.Truncate(end); err != nil {
			return 0, err
		}
	}
	if _, err := s.Seek(end, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := s.Write(footer); err != nil {
		return 0, err
	}
	s.Size, s.End = end+int64(len(footer)), end
	return cut, s.Sync()
}

// Remove deletes the named segments in dir, going on past failures, then
// fsyncs the directory once.  It returns the names it removed and every
// error it met.
func Remove(dir string, names ...string) ([]string, error) {
	var removed []string
	var errs []error
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			errs = append(errs, err)
		} else {
			removed = append(removed, name)
		}
	}
	if len(removed) > 0 {
		errs = append(errs, SyncDir(dir))
	}
	return removed, errors.Join(errs...)
}

// SyncDir fsyncs a directory so creates, renames and unlinks in it are
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
