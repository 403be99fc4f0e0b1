package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// testFormat is a toy store: records are a 1-byte length header and a
// payload, and footers carry exactly 4 bytes.
var testFormat = Format{
	Prefix:      "t",
	Ext:         "seg",
	Magic:       [HeaderSize]byte{'T', 'E', 'S', 'T', '0', '0', '0', '1'},
	FooterMagic: 0x54534554,
	FooterLen:   func(n int64) bool { return n == 4 },
}

// testCodec accepts every record except one whose payload is "bad",
// collecting the payloads; a payload "stop" ends the scan after itself.
type testCodec struct{ got []string }

func (c *testCodec) PayloadLen(hdr []byte) (int, bool) { return int(hdr[0]), hdr[0] != 0 }

func (c *testCodec) Decode(_, payload []byte, _ int64) (bool, error) {
	if string(payload) == "bad" {
		return false, nil
	}
	c.got = append(c.got, string(payload))
	if string(payload) == "stop" {
		return true, ErrStop
	}
	return true, nil
}

// writeSegment creates segment key in dir holding the given records.
func writeSegment(t *testing.T, dir string, key uint64, records ...string) string {
	t.Helper()
	f, err := testFormat.Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := f.Write(append([]byte{byte(len(r))}, r...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, testFormat.Name(key))
}

func scan(t *testing.T, path string) (*File, []string, int64) {
	t.Helper()
	seg, err := testFormat.Open(path, os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	var c testCodec
	valid, err := seg.Scan(1, &c)
	if err != nil {
		t.Fatal(err)
	}
	return seg, c.got, valid
}

func TestNamesListInKeyOrder(t *testing.T) {
	dir := t.TempDir()
	if got := testFormat.Name(42); got != "t-00000000000000000042.seg" {
		t.Fatalf("Name(42) = %q", got)
	}
	for _, key := range []uint64{30, 4, 1 << 63} {
		writeSegment(t, dir, key)
	}
	for _, junk := range []string{"t-42.seg", "u-00000000000000000042.seg", "t-00000000000000000042.chk", "t-0000000000000000004x.seg"} {
		if err := os.WriteFile(filepath.Join(dir, junk), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, err := testFormat.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	for _, n := range names {
		k, _ := testFormat.Key(n)
		keys = append(keys, k)
	}
	if len(keys) != 3 || keys[0] != 4 || keys[1] != 30 || keys[2] != 1<<63 {
		t.Fatalf("List = %v (keys %v), want keys 4, 30, 2^63", names, keys)
	}
}

func TestOpenChecksMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, testFormat.Name(1))
	if err := os.WriteFile(path, []byte("TES"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testFormat.Open(path, os.O_RDONLY); !errors.Is(err, ErrNotSegment) {
		t.Fatalf("read-only open of a short file: %v, want ErrNotSegment", err)
	}
	seg, err := testFormat.Open(path, os.O_RDWR)
	if err != nil {
		t.Fatal(err)
	}
	seg.Close()
	if b, _ := os.ReadFile(path); !bytes.Equal(b, testFormat.Magic[:]) || seg.Size != HeaderSize || seg.End != HeaderSize {
		t.Fatalf("short writable file re-made as %q (size %d, end %d), want the bare magic", b, seg.Size, seg.End)
	}
	if err := os.WriteFile(path, []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testFormat.Open(path, os.O_RDWR); !errors.Is(err, ErrNotSegment) {
		t.Fatalf("open of a wrong magic: %v, want ErrNotSegment", err)
	}
}

// TestScanStopsAndHealSeals: the scan stops before the first rejected
// record, healing cuts there and seals, and the footer is found again —
// unless its CRC or shape is off, which reads as unsealed.
func TestScanStopsAndHealSeals(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, "a", "bb", "bad", "ccc")
	seg, got, valid := scan(t, path)
	if len(got) != 2 || valid != 5 || seg.Footer != nil {
		t.Fatalf("scan = %q, %d valid bytes, footer %v; want a and bb, 5 bytes, unsealed", got, valid, seg.Footer)
	}
	cut, err := seg.Heal(valid, testFormat.AppendTrailer([]byte("summ")))
	seg.Close()
	if err != nil || cut != 4+4 {
		t.Fatalf("Heal cut %d bytes (%v), want 8", cut, err)
	}
	seg, got, valid = scan(t, path)
	seg.Close()
	if string(seg.Footer) != "summ" || seg.End != HeaderSize+5 || len(got) != 2 || valid != 5 {
		t.Fatalf("healed segment: footer %q end %d records %q", seg.Footer, seg.End, got)
	}

	b, _ := os.ReadFile(path)
	flipped := append([]byte(nil), b...)
	flipped[len(b)-TrailerSize-1] ^= 1 // footer payload byte: CRC fails
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, _, _ = scan(t, path)
	seg.Close()
	if seg.Footer != nil || seg.End != seg.Size {
		t.Fatalf("footer with a bad CRC read as sealed")
	}
	other := testFormat
	other.FooterLen = func(n int64) bool { return n == 8 }
	if p, _, err := other.ReadFooter(bytes.NewReader(b), int64(len(b))); p != nil || err != nil {
		t.Fatalf("footer of an unexpected length read as %q (%v)", p, err)
	}
}

func TestScanErrStopAndHealUnsealed(t *testing.T) {
	dir := t.TempDir()
	path := writeSegment(t, dir, 1, "a", "stop", "b")
	seg, got, valid := scan(t, path)
	if len(got) != 2 || valid != 2+5 {
		t.Fatalf("scan = %q, %d valid bytes; want it to stop after \"stop\" at 7", got, valid)
	}
	// Healing without a footer keeps the segment open for appends.
	if cut, err := seg.Heal(2, nil); err != nil || cut != 5+2 {
		t.Fatalf("Heal = %d, %v", cut, err)
	}
	if _, err := seg.Write([]byte{1, 'z'}); err != nil {
		t.Fatal(err)
	}
	seg.Close()
	seg, got, _ = scan(t, path)
	seg.Close()
	if len(got) != 2 || got[1] != "z" {
		t.Fatalf("after heal and append: %q, want a, z", got)
	}
	removed, err := Remove(dir, filepath.Base(path), "missing.seg")
	if len(removed) != 1 || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Remove = %v, %v; want the segment removed and the missing name reported", removed, err)
	}
	if names, _ := testFormat.List(dir); len(names) != 0 {
		t.Fatalf("Remove left %v", names)
	}
}
