// proof_test.go: a frame whose count bound the core's Q-format proof
// clears is answered from its row sums, without the word model; every
// other frame runs the word model over its cells.  Either way the answer
// must be the word model's over the same cells, and the telemetry that of
// the word model.
package hybrid

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/fpga"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// TestProvedCountsMatchWordModel: over E10's formats — Q12.0, Q16.4, Q23.8
// and Q30.12 saturating, Q12.0 scaling per stage — random counts frames
// with a bound below, at and one past ProvedCounts' edge
// Len·B·2^FracBits = Max, served as the hybrid path serves them
// (serveFrame: DeconvolveRowSumsInto from the row sums when the proof
// clears the bound, else DeconvolveProfileInto from the cells), answer
// under == what the word model, DeconvolveProfileInto, answers for the
// same cells, with equal Saturations and SimulatedTimeS.  Every frame past
// the edge, and every frame under GrowthScalePerStage, must take the word
// model, and every saturating frame at or below it the proof: the word
// model leaves the served offloader's accumulator non-zero (every frame
// here has a row of positive sum), the row sums leave it as it was.
func TestProvedCountsMatchWordModel(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(36))
	for _, fc := range []struct {
		format fpga.Format
		growth fpga.GrowthPolicy
		name   string
	}{
		{fpga.MustQ(12, 0), fpga.GrowthSaturate, "Q12.0 saturating"},
		{fpga.MustQ(12, 0), fpga.GrowthScalePerStage, "Q12.0 scale per stage"},
		{fpga.MustQ(16, 4), fpga.GrowthSaturate, "Q16.4 saturating"},
		{fpga.MustQ(23, 8), fpga.GrowthSaturate, "Q23.8 saturating"},
		{fpga.MustQ(30, 12), fpga.GrowthSaturate, "Q30.12 saturating"},
	} {
		cfg := DefaultOffloadConfig()
		cfg.Format, cfg.Growth = fc.format, fc.growth
		word, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := served.Len()
		edge := fc.format.Max() >> fc.format.FracBits / int64(n)
		var proved, past, model int
		for i := 0; i < 30; i++ {
			bound := []int64{1 + rng.Int63n(edge), edge, edge + 1}[i%3]
			f := instrument.NewFrame(n, []int{1, 16, 17, 40, 64}[rng.Intn(5)])
			for j := range f.Data {
				f.Data[j] = float64(rng.Int63n(bound + 1))
			}
			f.Data[rng.Intn(len(f.Data))] = float64(bound)
			if b := countBound(f); b != bound {
				t.Fatalf("fixture bound %d, want %d", b, bound)
			}
			want := make([]float64, n)
			wres, err := word.DeconvolveProfileInto(ctx, want, f)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, n)
			clear(served.acc)
			gres, fromSums, err := serveFrame(ctx, served, got, f, bound)
			if err != nil {
				t.Fatal(err)
			}
			for d := range got {
				if got[d] != want[d] {
					t.Fatalf("%s bound %d: drift bin %d served %v, word model %v", fc.name, bound, d, got[d], want[d])
				}
			}
			if gres.Saturations != wres.Saturations || gres.SimulatedTimeS != wres.SimulatedTimeS {
				t.Fatalf("%s bound %d: saturations %d, simulated %v s; word model %d, %v s", fc.name, bound,
					gres.Saturations, gres.SimulatedTimeS, wres.Saturations, wres.SimulatedTimeS)
			}
			ranModel := slices.ContainsFunc(served.acc, func(v int64) bool { return v != 0 })
			wantModel := bound > edge || fc.growth != fpga.GrowthSaturate
			if ranModel != wantModel || fromSums == wantModel {
				t.Fatalf("%s bound %d (edge %d): word model ran %v, row sums %v; want the word model %v", fc.name, bound, edge, ranModel, fromSums, wantModel)
			}
			if bound > edge {
				past++
			}
			if ranModel {
				model++
			} else {
				proved++
			}
		}
		t.Logf("%s: edge %d; %d frames proved, %d through the word model, %d of them past the edge", fc.name, edge, proved, model, past)
		if past == 0 || (fc.growth == fpga.GrowthSaturate && proved == 0) {
			t.Fatalf("%s: %d frames proved, %d past the edge", fc.name, proved, past)
		}
	}
}

// TestOffloaderTelemetryPerFrame: with metrics on, every hybrid_*, xd1_*
// and fpga_fht_* value after N frames is N times its value after one — the
// budget and the metric handles are kept across frames, not re-derived or
// re-registered — answered from the row sums and by the word model.
func TestOffloaderTelemetryPerFrame(t *testing.T) {
	ctx := context.Background()
	f := servedFrame(t, 9, 40, 3)
	bound := countBound(f)
	profile := make([]float64, f.DriftBins)
	for name, serve := range map[string]func(*Offloader) error{
		"proved": func(o *Offloader) error {
			f.DriftProfileInto(profile)
			_, err := o.DeconvolveRowSumsInto(ctx, profile, f.TOFBins, bound)
			return err
		},
		"word model": func(o *Offloader) error { _, err := o.DeconvolveProfileInto(ctx, profile, f); return err },
	} {
		reg := telemetry.NewRegistry()
		cfg := DefaultOffloadConfig()
		cfg.Metrics = reg
		o, err := NewOffloader(cfg)
		if err != nil {
			t.Fatal(err)
		}
		values := func() map[string]float64 {
			out := map[string]float64{}
			for _, m := range reg.Snapshot().Metrics {
				key := m.Name
				var labels []string
				for k, v := range m.Labels {
					labels = append(labels, k+"="+v)
				}
				slices.Sort(labels)
				for _, l := range labels {
					key += " " + l
				}
				if m.Value != nil {
					out[key] = *m.Value
				} else {
					out[key+" count"], out[key+" sum"] = float64(m.Count), m.Sum
				}
			}
			return out
		}
		if err := serve(o); err != nil {
			t.Fatal(err)
		}
		one := values()
		const frames = 7
		for i := 1; i < frames; i++ {
			if err := serve(o); err != nil {
				t.Fatal(err)
			}
		}
		all := values()
		for _, family := range []string{"hybrid_transfer_bytes_total", "hybrid_transfer_ns", "xd1_dma_transfers_total",
			"xd1_dma_bytes_total", "xd1_dma_busy_ns_total", "fpga_fht_columns_total", "fpga_fht_cycles_total"} {
			found := false
			for key := range one {
				found = found || strings.HasPrefix(key, family)
			}
			if !found {
				t.Errorf("%s: no %s after one frame", name, family)
			}
		}
		for key, v := range one {
			want := frames * v
			if key == "xd1_fabric_utilization_ratio" {
				want = v // a gauge: the same load every frame
			}
			if got := all[key]; got != want && !(strings.HasSuffix(key, " sum") && relErr(got, want) < 1e-12) {
				t.Errorf("%s: %s = %v after %d frames, %v after one", name, key, got, frames, v)
			}
		}
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return a
	}
	d := (a - b) / b
	return max(d, -d)
}
