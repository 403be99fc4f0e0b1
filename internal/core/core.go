// Package core is the public face of the reproduction: it wires the
// simulated instrument, the deconvolution machinery and the peak/feature
// post-processing into runnable experiments, and provides the metrics
// (per-analyte SNR, reconstruction error, ion utilization) that the
// evaluation tables and figures are built from.
//
// A typical use:
//
//	var mix instrument.Mixture
//	mix.AddPeptide("bradykinin", pep, 1.0)
//	exp := core.Experiment{
//	    Mixture:    mix,
//	    SourceRate: 1e7,
//	    Config:     core.ReferenceConfig(instrument.ModeMultiplexedTrap),
//	}
//	res, err := exp.Run(rand.New(rand.NewSource(1)))
//	snr, err := core.AnalyteSNR(res.Decoded, exp.Config.TOF, exp.Config.Tube,
//	    exp.Config.BinWidthS, mix.Analytes[0])
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/hadamard"
	"repro/internal/instrument"
	"repro/internal/peaks"
	"repro/internal/pipeline"
	"repro/internal/prs"
	"repro/internal/telemetry"
)

// DecoderKind selects the deconvolution algorithm for multiplexed runs.
type DecoderKind int

const (
	// DecoderAuto uses the enhanced decoding: a Wiener circulant inverse
	// against the instrument's effective modulation waveform.
	DecoderAuto DecoderKind = iota
	// DecoderFHT is the fast-Walsh–Hadamard simplex inverse (the FPGA
	// algorithm); exact only for plain m-sequences.
	DecoderFHT
	// DecoderStandard is the FFT-correlation simplex inverse.
	DecoderStandard
	// DecoderWiener is the regularized circulant inverse for arbitrary
	// gating waveforms.
	DecoderWiener
)

// String implements fmt.Stringer.
func (d DecoderKind) String() string {
	switch d {
	case DecoderAuto:
		return "auto"
	case DecoderFHT:
		return "fht"
	case DecoderStandard:
		return "standard"
	case DecoderWiener:
		return "wiener"
	}
	return fmt.Sprintf("decoder(%d)", int(d))
}

// ReferenceConfig returns the reference instrument configuration scaled for
// tractable simulation (order-8 sequence, 512 m/z bins) in the given mode.
func ReferenceConfig(mode instrument.Mode) instrument.Config {
	cfg := instrument.DefaultConfig()
	cfg.SequenceOrder = 8
	cfg.Mode = mode
	cfg.TOF.Bins = 512
	cfg.BinWidthS = 2e-4
	cfg.Frames = 4
	return cfg
}

// Experiment is one configured acquisition plus processing chain.
type Experiment struct {
	Mixture    instrument.Mixture
	SourceRate float64 // total ion current, charges/s
	// Elution optionally assigns LC profiles per analyte index.
	Elution map[int]instrument.LCPeak
	Config  instrument.Config
	Decoder DecoderKind
	// WienerLambda is the regularization for DecoderWiener/Auto (0 = exact
	// inversion where possible).
	WienerLambda float64
	// Workers bounds deconvolution parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives the run's telemetry: per-stage wall
	// time (core_stage_ns{stage="acquire"|"decode"}), run/ion counters
	// (core_* families) and the software pipeline's pipeline_* families.
	// Nil disables instrumentation at ~zero cost.
	Metrics *telemetry.Registry
}

// Result is a completed experiment.
type Result struct {
	// Raw is the accumulated digitizer frame.
	Raw *instrument.Frame
	// Decoded is the recovered arrival-distribution frame.  For
	// signal-averaging runs it aliases Raw (no deconvolution needed).
	Decoded *instrument.Frame
	// Stats is the acquisition bookkeeping.
	Stats instrument.RunStats
	// Sequence is the gating sequence used.
	Sequence prs.Sequence
}

// decoderFactory resolves the decoder kind against the configuration and
// the built instrument.  DecoderAuto and DecoderWiener deconvolve against
// the instrument's effective modulation (gate imperfections and trap
// accumulation weights included) — the enhanced decoding; DecoderFHT and
// DecoderStandard use the ideal binary sequence and exist as the
// traditional baselines whose systematic artifacts the enhancement removes.
func (e *Experiment) decoderFactory(inst *instrument.Instrument) (pipeline.DecoderFactory, error) {
	seq, err := e.Config.Sequence()
	if err != nil {
		return nil, err
	}
	kind := e.Decoder
	if kind == DecoderAuto {
		kind = DecoderWiener
	}
	switch kind {
	case DecoderFHT:
		if e.Config.Oversample > 1 || e.Config.Defect > 0 {
			return nil, fmt.Errorf("core: FHT decoder requires a plain m-sequence")
		}
		order := e.Config.SequenceOrder
		return func() (hadamard.Decoder, error) { return hadamard.NewFHTDecoder(order) }, nil
	case DecoderStandard:
		return func() (hadamard.Decoder, error) { return hadamard.NewStandardDecoder(seq) }, nil
	case DecoderWiener:
		lambda := e.WienerLambda
		modulation := inst.Modulation()
		return func() (hadamard.Decoder, error) { return hadamard.NewWienerDecoderWaveform(modulation, lambda) }, nil
	default:
		return nil, fmt.Errorf("core: unknown decoder kind %v", kind)
	}
}

// Run acquires and processes one experiment, deterministically in rng.
// Stage timings and counters are recorded into e.Metrics when set.
func (e *Experiment) Run(rng *rand.Rand) (*Result, error) {
	reg := e.Metrics
	stageNs := func(stage string) *telemetry.Histogram {
		return reg.Histogram("core_stage_ns", "wall time per experiment stage, nanoseconds", telemetry.L("stage", stage))
	}
	src, err := instrument.NewESISource(e.Mixture, e.SourceRate)
	if err != nil {
		return nil, err
	}
	src.Elution = e.Elution
	inst, err := instrument.New(e.Config, src)
	if err != nil {
		return nil, err
	}
	sp := stageNs("acquire").Start()
	raw, stats, err := inst.Acquire(rng)
	sp.Stop()
	if err != nil {
		return nil, err
	}
	reg.Counter("core_experiments_total", "experiment acquisitions completed").Inc()
	reg.Counter("core_ions_detected_total", "ions detected across experiment runs").Add(int64(stats.IonsDetected))
	res := &Result{Raw: raw, Stats: stats, Sequence: inst.Sequence()}
	if e.Config.Mode == instrument.ModeSignalAveraging {
		res.Decoded = raw
		return res, nil
	}
	factory, err := e.decoderFactory(inst)
	if err != nil {
		return nil, err
	}
	sp = stageNs("decode").Start()
	decoded, err := pipeline.DeconvolveFrameContext(context.Background(), raw, factory, e.Workers, reg)
	sp.Stop()
	if err != nil {
		return nil, err
	}
	res.Decoded = decoded
	return res, nil
}

// Truth returns the noise-free expected single-pulse response of the
// configured instrument and mixture — the ground truth that a perfect
// deconvolution recovers (up to per-pulse amplitude).  Frame counts and
// noise are excluded; normalize before comparing shapes.
func (e *Experiment) Truth() (*instrument.Frame, error) {
	cfg := e.Config
	cfg.Mode = instrument.ModeSignalAveraging
	src, err := instrument.NewESISource(e.Mixture, e.SourceRate)
	if err != nil {
		return nil, err
	}
	src.Elution = e.Elution
	inst, err := instrument.New(cfg, src)
	if err != nil {
		return nil, err
	}
	truth, _, err := inst.ExpectedDetections(0)
	if err != nil {
		return nil, err
	}
	return truth, nil
}

// SNRReport is a per-analyte signal-to-noise measurement in a decoded
// frame.
type SNRReport struct {
	Analyte  string
	MZBin    int
	DriftBin int
	Signal   float64 // apex height above the column median
	Noise    float64 // MAD noise of the column away from the peak
	SNR      float64
}

// AnalyteSNR measures the SNR of one analyte in a decoded frame: it
// locates the analyte's m/z column and expected drift bin, takes the apex
// in a ±3-bin window as signal (above the column median), and the MAD of
// the column outside a guard band as noise.
func AnalyteSNR(f *instrument.Frame, tof instrument.TOF, tube instrument.DriftTube, binWidthS float64, a instrument.Analyte) (SNRReport, error) {
	if f == nil {
		return SNRReport{}, fmt.Errorf("core: nil frame")
	}
	if binWidthS <= 0 {
		return SNRReport{}, fmt.Errorf("core: bin width %g must be positive", binWidthS)
	}
	col := tof.BinOf(a.MZ)
	if col < 0 || col >= f.TOFBins {
		return SNRReport{}, fmt.Errorf("core: analyte %q m/z %g outside recorded range", a.Name, a.MZ)
	}
	arr, err := tube.Arrival(a, binWidthS, 0)
	if err != nil {
		return SNRReport{}, err
	}
	driftBin := int(math.Round(arr.MeanS/binWidthS)) % f.DriftBins
	vec := f.DriftVector(col)
	med := median(vec)

	const window = 3
	signal := math.Inf(-1)
	apex := driftBin
	for d := -window; d <= window; d++ {
		b := ((driftBin+d)%f.DriftBins + f.DriftBins) % f.DriftBins
		if vec[b] > signal {
			signal = vec[b]
			apex = b
		}
	}
	signal -= med

	// Noise: MAD over bins outside a guard band around the apex.
	guard := int(math.Ceil(4*arr.SigmaS/binWidthS)) + window
	var rest []float64
	for b := 0; b < f.DriftBins; b++ {
		dist := absInt(b - apex)
		if wrap := f.DriftBins - dist; wrap < dist {
			dist = wrap
		}
		if dist > guard {
			rest = append(rest, vec[b])
		}
	}
	noise := peaks.NoiseMAD(rest)
	if noise <= 0 {
		noise = 1e-12
	}
	return SNRReport{
		Analyte:  a.Name,
		MZBin:    col,
		DriftBin: apex,
		Signal:   signal,
		Noise:    noise,
		SNR:      signal / noise,
	}, nil
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	tmp := make([]float64, len(x))
	copy(tmp, x)
	sort.Float64s(tmp)
	return tmp[len(tmp)/2]
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SNRGain returns the multiplexing gain: SNR of the numerator run over the
// denominator run.
func SNRGain(num, den SNRReport) float64 {
	if den.SNR <= 0 {
		return math.Inf(1)
	}
	return num.SNR / den.SNR
}

// NormalizedColumnError compares the shape of a decoded m/z column against
// the truth column: both are normalized to unit sum (negative values
// clipped) before the relative RMS error is computed.
func NormalizedColumnError(decoded, truth *instrument.Frame, col int) (float64, error) {
	if decoded == nil || truth == nil {
		return 0, fmt.Errorf("core: nil frame")
	}
	if decoded.DriftBins != truth.DriftBins || decoded.TOFBins != truth.TOFBins {
		return 0, fmt.Errorf("core: frame geometry mismatch")
	}
	if col < 0 || col >= decoded.TOFBins {
		return 0, fmt.Errorf("core: column %d out of range", col)
	}
	d := normalizeNonNeg(decoded.DriftVector(col))
	tr := normalizeNonNeg(truth.DriftVector(col))
	return hadamard.ReconstructionError(d, tr)
}

// DenoisedColumnError is NormalizedColumnError with the decoded column
// thresholded at 3× its MAD noise first, so the comparison reflects real
// structure (peaks and systematic ghosts) rather than the positive-clipped
// noise floor spread across every bin.
func DenoisedColumnError(decoded, truth *instrument.Frame, col int) (float64, error) {
	if decoded == nil || truth == nil {
		return 0, fmt.Errorf("core: nil frame")
	}
	if decoded.DriftBins != truth.DriftBins || decoded.TOFBins != truth.TOFBins {
		return 0, fmt.Errorf("core: frame geometry mismatch")
	}
	if col < 0 || col >= decoded.TOFBins {
		return 0, fmt.Errorf("core: column %d out of range", col)
	}
	vec := decoded.DriftVector(col)
	thresh := 3 * peaks.NoiseMAD(vec)
	den := make([]float64, len(vec))
	for i, v := range vec {
		if v > thresh {
			den[i] = v
		}
	}
	d := normalizeNonNeg(den)
	tr := normalizeNonNeg(truth.DriftVector(col))
	return hadamard.ReconstructionError(d, tr)
}

func normalizeNonNeg(x []float64) []float64 {
	out := make([]float64, len(x))
	var sum float64
	for i, v := range x {
		if v > 0 {
			out[i] = v
			sum += v
		}
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// Identification is the end-to-end identification outcome of an
// experiment: detected features matched against a candidate list.
type Identification struct {
	Features      []peaks.Feature
	Matches       []peaks.Match
	UniqueTargets int
	FDR           float64
}

// Identify runs feature finding on a decoded frame and matches features
// against candidates within tolPPM (decoys included for FDR).
func Identify(decoded *instrument.Frame, tof instrument.TOF, cands []peaks.Candidate, minSNR, tolPPM float64, driftTol int) (*Identification, error) {
	feats, err := peaks.FindFeatures(decoded, tof, minSNR, driftTol)
	if err != nil {
		return nil, err
	}
	matches, err := peaks.MatchFeatures(feats, cands, tolPPM)
	if err != nil {
		return nil, err
	}
	return &Identification{
		Features:      feats,
		Matches:       matches,
		UniqueTargets: peaks.UniqueTargets(matches),
		FDR:           peaks.FDR(matches),
	}, nil
}
