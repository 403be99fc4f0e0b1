package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/acqserver"
	"repro/internal/chem"
	"repro/internal/frameio"
	"repro/internal/hadamard"
	"repro/internal/hybrid"
	"repro/internal/instrument"
	"repro/internal/peaks"
)

// order is the m-sequence order every workload serves (the paper's).
const order = 9

// The fixed four-analyte mixture: charge states chosen so the four drift
// peaks are well separated (bins ~170, ~195, ~219, ~280 of 511).
var mixtureDefs = []struct {
	name, seq string
	z         int
	abundance float64
}{
	{"bradykinin", "RPPGFSPFR", 2, 1.0},
	{"angiotensin I", "DRVYIHPFHL", 2, 0.7},
	{"fibrinopeptide A", "ADSGEGDFLAEGGGVR", 2, 0.5},
	{"bradykinin", "RPPGFSPFR", 1, 0.45},
}

const sourceRate = 5e6 // charges/s from the ESI source

func fixedMixture() (instrument.Mixture, error) {
	var mix instrument.Mixture
	for _, def := range mixtureDefs {
		p, err := chem.NewPeptide(def.seq)
		if err != nil {
			return mix, err
		}
		states, err := instrument.AnalytesFromPeptide(def.name, p, 1, 0)
		if err != nil {
			return mix, err
		}
		found := false
		for _, a := range states {
			if a.Z == def.z {
				a.Abundance = def.abundance
				if err := mix.AddAnalyte(a); err != nil {
					return mix, err
				}
				found = true
			}
		}
		if !found {
			return mix, fmt.Errorf("bench: %s has no %d+ charge state", def.name, def.z)
		}
	}
	return mix, nil
}

// poolFrame is one distinct input and what the program must answer for it.
type poolFrame struct {
	frame   *instrument.Frame
	enc     frameio.Encoding
	payload []byte // options prefix + frameio bytes: all the program sees
	want    []acqserver.PeakSummary
	// simulatedNs and saturations are the hybrid reference's modeled
	// counts (0 on the CPU path).
	simulatedNs uint64
	saturations uint64
}

type framePool struct {
	w      workload
	cfg    instrument.Config
	frames []poolFrame
	// analyteBins are the expected drift bins of the mixture's analytes.
	analyteBins []float64
}

// buildPool generates n frames from seed, encodes their payloads and
// computes the reference answers.  sw, when not nil, takes a lap per frame.
func buildPool(w workload, seed int64, n int, sw *stopwatch) (*framePool, error) {
	mix, err := fixedMixture()
	if err != nil {
		return nil, err
	}
	cfg := instrument.DefaultConfig() // order 9, multiplexed + trap
	cfg.TOF.Bins = w.TOFBins
	src, err := instrument.NewESISource(mix, sourceRate)
	if err != nil {
		return nil, err
	}
	inst, err := instrument.New(cfg, src)
	if err != nil {
		return nil, err
	}
	pool := &framePool{w: w, cfg: cfg}
	for _, a := range mix.Analytes {
		arr, err := cfg.Tube.Arrival(a, cfg.BinWidthS, 0)
		if err != nil {
			return nil, err
		}
		pool.analyteBins = append(pool.analyteBins, math.Mod(arr.MeanS/cfg.BinWidthS, float64(cfg.DriftBins())))
	}
	rng := rand.New(rand.NewSource(seed))
	opts := acqserver.FrameOptions{Path: w.Path}
	for i := 0; i < n; i++ {
		f, _, err := inst.Acquire(rng)
		if err != nil {
			return nil, err
		}
		pf := poolFrame{frame: f, enc: w.Encodings[i%len(w.Encodings)]}
		if pf.payload, err = encodePayload(f, pf.enc, opts); err != nil {
			return nil, err
		}
		got, _, err := acqserver.SplitFramePayload(pf.payload)
		if err != nil || got.Path != opts.Path || got.Deadline != opts.Deadline {
			return nil, fmt.Errorf("bench: options prefix did not round-trip: %+v, %v", got, err)
		}
		if err := pool.reference(&pf); err != nil {
			return nil, fmt.Errorf("bench: frame %d: %w", i, err)
		}
		pool.frames = append(pool.frames, pf)
		sw.lap()
	}
	return pool, nil
}

// encodePayload builds a FRAME payload: the 5-byte options prefix (path
// u8, deadline-ms u32 LE; docs/SERVING.md) followed by frameio bytes.
func encodePayload(f *instrument.Frame, enc frameio.Encoding, opts acqserver.FrameOptions) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(byte(opts.Path))
	var ms [4]byte
	binary.LittleEndian.PutUint32(ms[:], uint32(opts.Deadline.Milliseconds()))
	b.Write(ms[:])
	if err := frameio.Write(&b, f, nil, enc); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// summarize mirrors what a RESULT carries: drift-profile peaks above the
// server's default SNR, height-descending, capped at its default count.
func summarize(f *instrument.Frame) []acqserver.PeakSummary {
	def := acqserver.DefaultConfig()
	found, err := peaks.Detect(f.DriftProfile(), def.MinSNR)
	if err != nil {
		return nil
	}
	sort.Slice(found, func(i, j int) bool { return found[i].Height > found[j].Height })
	if len(found) > def.MaxPeaks {
		found = found[:def.MaxPeaks]
	}
	out := make([]acqserver.PeakSummary, len(found))
	for i, p := range found {
		out[i] = acqserver.PeakSummary{Centroid: p.Centroid, Height: p.Height, Area: p.Area, SNR: p.SNR}
	}
	return out
}

// floatReference decodes every column with the scalar FHT decoder and
// spot-checks eight columns against the O(N^2) naive inverse.
func floatReference(f *instrument.Frame) (*instrument.Frame, error) {
	dec, err := hadamard.NewFHTDecoder(order)
	if err != nil {
		return nil, err
	}
	seq, err := instrument.DefaultConfig().Sequence()
	if err != nil {
		return nil, err
	}
	naive, err := hadamard.NewStandardDecoder(seq)
	if err != nil {
		return nil, err
	}
	out := instrument.NewFrame(f.DriftBins, f.TOFBins)
	col := make([]float64, f.DriftBins)
	stride := max(f.TOFBins/8, 1)
	for t := 0; t < f.TOFBins; t++ {
		f.DriftVectorInto(t, col)
		x, err := dec.Decode(col)
		if err != nil {
			return nil, err
		}
		if t%stride == 0 {
			want, err := naive.DecodeNaive(col)
			if err != nil {
				return nil, err
			}
			for d := range x {
				if math.Abs(x[d]-want[d]) > 1e-6*(1+math.Abs(want[d])) {
					return nil, fmt.Errorf("scalar FHT disagrees with naive inverse at column %d bin %d: %g vs %g", t, d, x[d], want[d])
				}
			}
		}
		out.SetDriftVector(t, x)
	}
	return out, nil
}

// reference fills pf.want and checks the reference itself: its strongest
// peaks must sit at the simulated analytes' drift bins.
func (p *framePool) reference(pf *poolFrame) error {
	decoded, err := floatReference(pf.frame)
	if err != nil {
		return err
	}
	float := summarize(decoded)
	pf.want = float
	if p.w.Path == acqserver.PathHybrid {
		hr, err := hybrid.HybridDeconvolveFrame(pf.frame, hybrid.DefaultOffloadConfig())
		if err != nil {
			return err
		}
		pf.want = summarize(hr.Decoded)
		pf.simulatedNs = uint64(hr.SimulatedTimeS * 1e9)
		pf.saturations = uint64(hr.Saturations)
		// The fixed-point answer must stay within half a bin of the float one.
		for i := 0; i < len(p.analyteBins) && i < len(pf.want); i++ {
			if nearest(float, pf.want[i].Centroid) > 0.5 {
				return fmt.Errorf("hybrid peak %d at %.2f is more than 0.5 bin from any float-reference peak", i, pf.want[i].Centroid)
			}
		}
	}
	if len(pf.want) < len(p.analyteBins) {
		return fmt.Errorf("reference found %d peaks, mixture has %d analytes", len(pf.want), len(p.analyteBins))
	}
	for _, bin := range p.analyteBins {
		if d := nearest(pf.want[:len(p.analyteBins)], bin); d > 1.5 {
			return fmt.Errorf("no top-%d reference peak within 1.5 bins of analyte drift bin %.2f (nearest %.2f away)", len(p.analyteBins), bin, d)
		}
	}
	return nil
}

func nearest(pk []acqserver.PeakSummary, bin float64) float64 {
	best := math.Inf(1)
	for _, p := range pk {
		if d := math.Abs(p.Centroid - bin); d < best {
			best = d
		}
	}
	return best
}

// outcome classifies one request.
type outcome uint8

const (
	outcomeOK       outcome = iota // OK and equal to the reference
	outcomeShed                    // RESOURCE_EXHAUSTED
	outcomeMismatch                // OK but not the reference answer
	outcomeError                   // transport error or any other code
)

// check compares a response with the frame's reference, exactly.
func (pf *poolFrame) check(resp *acqserver.Response, err error) outcome {
	if err != nil || resp == nil {
		return outcomeError
	}
	switch {
	case resp.Code == acqserver.CodeResourceExhausted:
		return outcomeShed
	case resp.Code != acqserver.CodeOK || resp.Result == nil:
		return outcomeError
	}
	got := resp.Result.Peaks
	if len(got) != len(pf.want) {
		return outcomeMismatch
	}
	for i := range got {
		if got[i] != pf.want[i] {
			return outcomeMismatch
		}
	}
	if resp.Result.SimulatedNs != pf.simulatedNs || resp.Result.Saturations != pf.saturations {
		return outcomeMismatch
	}
	return outcomeOK
}
