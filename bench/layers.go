package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/acqserver"
	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/pipeline"
)

// Span names of the ladder.  A layer is timed from outside, around a call
// into its exported API on the same payload the request carried.
const (
	spanRequest       = "request"
	spanRequestDirect = "request_direct"
	spanLadder        = "ladder"
	spanClientDo      = "client.do"
	spanQueueWait     = "acqserver.queue_wait"
	spanProcess       = "acqserver.process"

	spanRead        = "frameio.read"
	spanWrite       = "frameio.write"
	spanAppend      = "framelog.append"
	spanDeconvolve  = "pipeline.deconvolve"
	spanDeconvFrame = "pipeline.deconvolve_frames"
	spanSerial      = "pipeline.deconvolve_serial"
	spanGather      = "instrument.gather_scatter"
	spanKernel      = "hadamard.decode_batch"
	spanOffload     = "hybrid.offload"
	spanFPGA        = "fpga.deconvolve_batch"
	spanPeaks       = "peaks.detect"
	spanCodec       = "acqserver.result_codec"
)

// multiframeBatch is the batch the coalesced decode is timed on.
const multiframeBatch = 8

// onPath lists the ladder spans that lie on a request's serving path for
// the workload, in order.  Their sum is the attributed part of a round
// trip; everything else (socket, wire parse, session, queue hand-off,
// gateway hop, coalesce window) is the unattributed remainder.
func onPath(w workload) []string {
	p := []string{spanRead}
	if w.WAL {
		p = append(p, spanAppend)
	}
	if w.Path == acqserver.PathHybrid {
		p = append(p, spanOffload)
	} else {
		p = append(p, spanDeconvolve)
	}
	return append(p, spanPeaks, spanCodec)
}

// ladder times every layer directly, serially, on the workload's frames.
type ladder struct {
	w      workload
	pool   *framePool
	rec    *recorder
	limits frameio.Limits

	factory pipeline.DecoderFactory
	kernel  *hadamard.FHTDecoder
	tileIn  *hadamard.ColumnBlock
	tileOut *hadamard.ColumnBlock
	decoded *instrument.Frame
	spare   *instrument.Frame // throwaway output of the breakdown calls
	batch   []pipeline.FramePair

	offloader *hybrid.Offloader
	core      *fpga.FHTCore

	scratch    *framelog.Log
	scratchDir string
	appended   int

	// dur collects per-iteration durations by span name, nanoseconds.
	dur map[string][]float64
	// exact counts accumulated over the iterations.
	saturations int64
	simulatedS  float64
	iterations  int
}

func newLadder(w workload, pool *framePool, rec *recorder, walBase string) (*ladder, error) {
	n := 1<<order - 1
	def := acqserver.DefaultConfig()
	l := &ladder{
		w: w, pool: pool, rec: rec,
		limits: frameio.Limits{ // what acqserver.NewServer derives from its config
			MaxHeaderBytes: 4096,
			MaxDriftBins:   uint32(n),
			MaxTOFBins:     uint32(def.MaxTOFBins),
			MaxCells:       uint64(n) * uint64(def.MaxTOFBins),
		},
		factory: func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) },
		tileIn:  hadamard.NewColumnBlock(n, pipeline.DefaultBlockColumns),
		tileOut: hadamard.NewColumnBlock(n, pipeline.DefaultBlockColumns),
		decoded: instrument.NewFrame(n, w.TOFBins),
		spare:   instrument.NewFrame(n, w.TOFBins),
		dur:     map[string][]float64{},
	}
	var err error
	if l.kernel, err = hadamard.NewFHTDecoder(order); err != nil {
		return nil, err
	}
	if w.Path == acqserver.PathHybrid {
		oc := hybrid.DefaultOffloadConfig()
		if l.offloader, err = hybrid.NewOffloader(oc); err != nil {
			return nil, err
		}
		if l.core, err = fpga.NewFHTCore(oc.Order, oc.Format, oc.Growth, oc.ButterflyUnits, oc.MemPorts); err != nil {
			return nil, err
		}
	}
	if w.Gateway {
		for i := 0; i < multiframeBatch; i++ {
			src := pool.frames[i%len(pool.frames)].frame
			l.batch = append(l.batch, pipeline.FramePair{Dst: instrument.NewFrame(src.DriftBins, src.TOFBins), Src: src})
		}
	}
	if w.WAL {
		if l.scratchDir, err = os.MkdirTemp(walBase, "scratch-"); err != nil {
			return nil, err
		}
		if l.scratch, err = framelog.Open(logConfig(l.scratchDir)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// timed runs fn and records it as a child span of parent.
func (l *ladder) timed(name string, parent int, reqID uint64, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.rec.add(name, start, end, parent, reqID)
	l.dur[name] = append(l.dur[name], float64(end.Sub(start)))
	return err
}

// synthetic records a child whose duration was accumulated over many short
// calls interleaved with others; it is laid at offset inside its parent.
func (l *ladder) synthetic(name string, parentStart time.Time, offset, d time.Duration, parent int, reqID uint64) {
	l.rec.add(name, parentStart.Add(offset), parentStart.Add(offset+d), parent, reqID)
	l.dur[name] = append(l.dur[name], float64(d))
}

// step sends pool frame idx once on cl (span "request"), then repeats the
// layer calls of its path directly on the same payload (span "ladder").
func (l *ladder) step(ctx context.Context, t *topology, idx int) error {
	reqID := uint64(l.iterations + 1)
	l.iterations++
	pf := &l.pool.frames[idx]

	start := time.Now()
	resp, err := t.clients[0].DoPayload(ctx, pf.payload, 0)
	end := time.Now()
	if out := pf.check(resp, err); out != outcomeOK {
		return fmt.Errorf("bench: ladder request %d: outcome %d (%v)", reqID, out, err)
	}
	rid := l.rec.add(spanRequest, start, end, -1, reqID)
	l.dur[spanRequest] = append(l.dur[spanRequest], float64(end.Sub(start)))
	addServerSpans(l.rec, rid, reqID, start, end, resp.Result)
	if t.direct != nil {
		err := l.timed(spanRequestDirect, -1, reqID, func() error {
			resp, err := t.direct.DoPayload(ctx, pf.payload, 0)
			if out := pf.check(resp, err); out != outcomeOK {
				return fmt.Errorf("bench: direct request %d: outcome %d (%v)", reqID, out, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	lstart := time.Now()
	lid := l.rec.add(spanLadder, lstart, lstart, -1, reqID)
	defer func() { l.rec.setEnd(lid, time.Now()) }()

	var frame *instrument.Frame
	if err := l.timed(spanRead, lid, reqID, func() (err error) {
		frame, _, err = frameio.ReadLimited(bytes.NewReader(pf.payload[5:]), l.limits)
		return err
	}); err != nil {
		return err
	}
	if l.scratch != nil {
		if err := l.timed(spanAppend, lid, reqID, func() error {
			_, err := l.scratch.Append(reqID, pf.payload)
			return err
		}); err != nil {
			return err
		}
		l.appended++
	}
	if l.w.Path == acqserver.PathHybrid {
		if err := l.hybridStep(ctx, lid, reqID, frame); err != nil {
			return err
		}
	} else if err := l.cpuStep(ctx, lid, reqID, frame); err != nil {
		return err
	}
	var got []acqserver.PeakSummary
	if err := l.timed(spanPeaks, lid, reqID, func() error {
		got = summarize(l.decoded)
		return nil
	}); err != nil {
		return err
	}
	if len(got) != len(pf.want) {
		return fmt.Errorf("bench: ladder decode of frame %d found %d peaks, reference has %d", idx, len(got), len(pf.want))
	}
	for i := range got {
		if got[i] != pf.want[i] {
			return fmt.Errorf("bench: ladder decode of frame %d disagrees with the reference at peak %d", idx, i)
		}
	}
	if err := l.timed(spanCodec, lid, reqID, func() error {
		b, err := acqserver.EncodeResult(resp.Result)
		if err != nil {
			return err
		}
		_, err = acqserver.DecodeResult(b)
		return err
	}); err != nil {
		return err
	}
	err = l.timed(spanWrite, lid, reqID, func() error {
		return frameio.Write(io.Discard, frame, nil, pf.enc)
	})
	return err
}

// cpuStep times the software path: the call the server makes, the coalesced
// multi-frame call (fleet only), and a single-worker call broken down into
// gather/scatter and the blocked FWHT kernel.
func (l *ladder) cpuStep(ctx context.Context, lid int, reqID uint64, frame *instrument.Frame) error {
	workers := acqserver.DefaultConfig().CPUWorkersPerFrame
	if err := l.timed(spanDeconvolve, lid, reqID, func() error {
		return pipeline.DeconvolveFrameIntoContext(ctx, l.decoded, frame, l.factory, workers, nil)
	}); err != nil {
		return err
	}
	if l.batch != nil {
		if err := l.timed(spanDeconvFrame, lid, reqID, func() error {
			return pipeline.DeconvolveFramesIntoContext(ctx, l.batch, l.factory, workers, nil)
		}); err != nil {
			return err
		}
	}
	scratch := l.spare
	sstart := time.Now()
	if err := pipeline.DeconvolveFrameIntoContext(ctx, scratch, frame, l.factory, 1, nil); err != nil {
		return err
	}
	send := time.Now()
	sid := l.rec.add(spanSerial, sstart, send, lid, reqID)
	l.dur[spanSerial] = append(l.dur[spanSerial], float64(send.Sub(sstart)))

	var gather, kernel time.Duration
	n := frame.DriftBins
	for t0 := 0; t0 < frame.TOFBins; t0 += pipeline.DefaultBlockColumns {
		lanes := min(pipeline.DefaultBlockColumns, frame.TOFBins-t0)
		l.tileIn.Reset(n, lanes)
		l.tileOut.Reset(n, lanes)
		a := time.Now()
		frame.GatherColumns(t0, lanes, l.tileIn.Data)
		b := time.Now()
		if err := l.kernel.DecodeBatch(l.tileOut, l.tileIn); err != nil {
			return err
		}
		c := time.Now()
		scratch.ScatterColumns(t0, lanes, l.tileOut.Data)
		gather += b.Sub(a) + time.Since(c)
		kernel += c.Sub(b)
	}
	l.synthetic(spanGather, sstart, 0, gather, sid, reqID)
	l.synthetic(spanKernel, sstart, gather, kernel, sid, reqID)
	return nil
}

// hybridStep times the modeled offload as the server runs it, and the
// fixed-point core alone over the same tiles.
func (l *ladder) hybridStep(ctx context.Context, lid int, reqID uint64, frame *instrument.Frame) error {
	ostart := time.Now()
	hr, err := l.offloader.DeconvolveFrameInto(ctx, l.decoded, frame)
	oend := time.Now()
	if err != nil {
		return err
	}
	oid := l.rec.add(spanOffload, ostart, oend, lid, reqID)
	l.dur[spanOffload] = append(l.dur[spanOffload], float64(oend.Sub(ostart)))
	l.simulatedS += hr.SimulatedTimeS
	l.saturations += hr.Saturations

	var core time.Duration
	n := frame.DriftBins
	for t0 := 0; t0 < frame.TOFBins; t0 += hybrid.TileLanes {
		lanes := min(hybrid.TileLanes, frame.TOFBins-t0)
		l.tileIn.Reset(n, lanes)
		l.tileOut.Reset(n, lanes)
		frame.GatherColumns(t0, lanes, l.tileIn.Data)
		a := time.Now()
		if _, err := l.core.DeconvolveBatch(l.tileOut, l.tileIn); err != nil {
			return err
		}
		core += time.Since(a)
	}
	l.synthetic(spanFPGA, ostart, 0, core, oid, reqID)
	return nil
}

// addServerSpans lays the queue wait and processing time a Result reports
// inside its client-side span, centred: the wire time on either side of
// them is not known from outside.
func addServerSpans(rec *recorder, parent int, reqID uint64, start, end time.Time, res *acqserver.Result) {
	if res == nil { // a failed request carries no Result
		return
	}
	wait := time.Duration(res.QueueWaitNs)
	proc := time.Duration(res.ProcessNs)
	lead := (end.Sub(start) - wait - proc) / 2
	if lead < 0 {
		lead = 0
	}
	q0 := start.Add(lead)
	rec.add(spanQueueWait, q0, q0.Add(wait), parent, reqID)
	rec.add(spanProcess, q0.Add(wait), q0.Add(wait+proc), parent, reqID)
}

// logStats are the framelog numbers taken from the scratch log.
type logStats struct {
	diskBytesPerFrame float64
	scanUsPerRecord   float64
}

// finish scans and closes the scratch log and removes it.
func (l *ladder) finish() (logStats, error) {
	var st logStats
	if l.scratch == nil {
		return st, nil
	}
	defer os.RemoveAll(l.scratchDir)
	r := l.scratch.NewReader(framelog.Start{From: framelog.FromBeginning})
	var rec framelog.Record
	start := time.Now()
	scanned := 0
	for {
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			_ = r.Close()
			_ = l.scratch.Close()
			return st, err
		}
		scanned++
	}
	elapsed := time.Since(start)
	_ = r.Close()
	if err := l.scratch.Close(); err != nil {
		return st, err
	}
	if scanned != l.appended {
		return st, fmt.Errorf("bench: scratch log scan saw %d records, %d were appended", scanned, l.appended)
	}
	size, err := dirSize(l.scratchDir)
	if err != nil {
		return st, err
	}
	if scanned > 0 {
		st.scanUsPerRecord = float64(elapsed) / float64(time.Microsecond) / float64(scanned)
		st.diskBytesPerFrame = float64(size) / float64(scanned)
	}
	return st, nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// allocsPerCall reports the heap objects and KiB one call of fn allocates,
// averaged over n calls made while the servers are idle.
func allocsPerCall(n int, fn func() error) (objects, kib float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n), nil
}
