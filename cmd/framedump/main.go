// Command framedump inspects the two binary formats the pipeline writes:
// frame files from the frameio container, and frame-log captures from
// imsd -framelog (see docs/DURABILITY.md).
//
// Usage:
//
//	framedump [-column N] [-profile] frame.htims
//	framedump -log DIR|SEGMENT [-record SEQ] [-column N] [-profile]
//
// In file mode it prints a frame's metadata, geometry, intensity
// statistics, the drift profile, and optionally one m/z column as CSV.
//
// In -log mode it verifies every record CRC of a frame-log directory (or a
// single .seg file) and prints per-segment summaries — record count, seq
// and time ranges, size, sealed state, sparse-index points, torn trailing
// bytes — plus totals.  With -record SEQ it instead decodes that one
// captured record (frame options prefix + frameio frame) and prints it
// exactly like file mode, so any logged frame can be pulled out of a
// capture for inspection.  Exit status is non-zero on any CRC or footer
// mismatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/instrument"
)

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "framedump: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	column := flag.Int("column", -1, "print this m/z column as CSV")
	profile := flag.Bool("profile", false, "print the summed drift profile as CSV")
	logPath := flag.String("log", "", "inspect a frame-log directory or single segment file instead of a frame file")
	record := flag.Uint64("record", 0, "with -log: decode and print the record with this seq")
	flag.Parse()

	if *logPath != "" {
		if flag.NArg() != 0 {
			fail("-log takes no positional argument")
		}
		if *record != 0 {
			dumpLogRecord(*logPath, *record, *column, *profile)
		} else if err := dumpLogSummary(os.Stdout, *logPath); err != nil {
			fail("%v", err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: framedump [flags] frame.htims")
		fmt.Fprintln(os.Stderr, "       framedump -log DIR|SEGMENT [-record SEQ] [flags]")
		os.Exit(1)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	frame, meta, err := frameio.Read(f)
	if err != nil {
		fail("%v", err)
	}
	printFrame(frame, meta, *column, *profile)
}

// printFrame reports one frame's geometry, metadata and intensity
// statistics, plus the optional CSV views.
func printFrame(frame *instrument.Frame, meta map[string]string, column int, profile bool) {
	fmt.Printf("geometry: %d drift bins x %d m/z bins (%d cells)\n",
		frame.DriftBins, frame.TOFBins, len(frame.Data))
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("meta %s = %s\n", k, meta[k])
	}
	var total, max float64
	nonzero := 0
	for _, v := range frame.Data {
		total += v
		if v > max {
			max = v
		}
		if v != 0 {
			nonzero++
		}
	}
	fmt.Printf("total counts %.4g, max cell %.4g, occupancy %.1f%%\n",
		total, max, 100*float64(nonzero)/float64(len(frame.Data)))

	if profile {
		for _, v := range frame.DriftProfile() {
			fmt.Printf("%g\n", v)
		}
	}
	if column >= 0 {
		if column >= frame.TOFBins {
			fail("column %d out of range [0,%d)", column, frame.TOFBins)
		}
		for _, v := range frame.DriftVector(column) {
			fmt.Printf("%g\n", v)
		}
	}
}

// logSegments resolves -log's argument — a log directory or one segment
// file — into the segment set to walk, seq-ascending.
func logSegments(path string) ([]framelog.SegmentInfo, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return framelog.ListSegments(path)
	}
	info, err := framelog.ScanSegment(path, nil)
	if err != nil {
		return nil, err
	}
	return []framelog.SegmentInfo{info}, nil
}

// dumpLogSummary verifies and summarizes every segment under path to w.
func dumpLogSummary(w io.Writer, path string) error {
	infos, err := logSegments(path)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		return fmt.Errorf("%s: no segments", path)
	}
	var records uint64
	var bytes, torn int64
	firstSeq, lastSeq := uint64(0), uint64(0)
	for _, si := range infos {
		state := "open"
		if si.Sealed {
			state = "sealed"
		}
		fmt.Fprintf(w, "segment %s: %d records, seq [%d..%d], %s .. %s, %d bytes, %s, %d index points",
			filepath.Base(si.Path), si.Records, si.FirstSeq, si.LastSeq,
			logTime(si.FirstTime), logTime(si.LastTime), si.Bytes, state, si.IndexEntries)
		if si.TornBytes > 0 {
			fmt.Fprintf(w, ", %d torn trailing bytes", si.TornBytes)
		}
		fmt.Fprintln(w)
		if si.Records > 0 {
			if records == 0 {
				firstSeq = si.FirstSeq
			}
			lastSeq = si.LastSeq
		}
		records += si.Records
		bytes += si.Bytes
		torn += si.TornBytes
	}
	fmt.Fprintf(w, "total: %d segments, %d records, seq [%d..%d], %d bytes, all record CRCs verified\n",
		len(infos), records, firstSeq, lastSeq, bytes)
	if torn > 0 {
		fmt.Fprintf(w, "note: %d torn trailing bytes will be truncated on the next recovery\n", torn)
	}
	return nil
}

// errFound ends the record search once the target seq has been decoded.
var errFound = errors.New("framedump: record found")

// dumpLogRecord locates one record by seq across the capture's segments,
// decodes its captured FRAME payload (options prefix + frameio frame), and
// prints it like file mode.
func dumpLogRecord(path string, seq uint64, column int, profile bool) {
	var rec framelog.Record
	found := false
	infos, err := logSegments(path)
	if err != nil {
		fail("%v", err)
	}
	for _, si := range infos {
		if si.Records == 0 || seq < si.FirstSeq || seq > si.LastSeq {
			continue
		}
		_, err := framelog.ScanSegment(si.Path, func(r framelog.Record) error {
			if r.Seq == seq {
				// The scan buffer is reused; keep our own copy.
				rec = framelog.Record{Seq: r.Seq, Time: r.Time, SID: r.SID,
					Payload: append([]byte(nil), r.Payload...)}
				found = true
				return errFound
			}
			return nil
		})
		if err != nil && !errors.Is(err, errFound) {
			fail("%v", err)
		}
		if found {
			break
		}
	}
	if !found {
		fail("record seq %d not found in %s", seq, path)
	}
	opts, frameBytes, err := acqserver.SplitFramePayload(rec.Payload)
	if err != nil {
		fail("record %d: %v", seq, err)
	}
	fmt.Printf("record seq %d: appended %s, trace id %#016x, %d payload bytes\n",
		rec.Seq, logTime(rec.Time), rec.SID, len(rec.Payload))
	fmt.Printf("options: path %s, deadline %v\n", opts.Path, opts.Deadline)
	frame, meta, err := frameio.Read(newByteReader(frameBytes))
	if err != nil {
		fail("record %d frame: %v", seq, err)
	}
	printFrame(frame, meta, column, profile)
}

// logTime renders an append timestamp for summaries.
func logTime(ns int64) string {
	if ns == 0 {
		return "-"
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}

// newByteReader adapts a slice for frameio's streaming decoder.
func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

// byteReader is a minimal forward-only reader over a slice.
type byteReader struct{ b []byte }

// Read copies out of the remaining slice.
func (r *byteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}
