// hybrid_matrix_test.go puts the hybrid path into the serving
// bit-exactness matrix: what a PathHybrid request answers — peaks,
// Saturations, SimulatedNs — must equal a reference built here from the
// scalar fixed-point core, one column at a time, never from the tile path
// under test (hybrid.HybridDeconvolveFrame is that same code).
package acqserver_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/fpga"
	"repro/internal/frameio"
	"repro/internal/gateway"
	"repro/internal/hybrid"
	"repro/internal/instrument"
)

// scalarHybridReference deconvolves f column by column through
// FHTCore.DeconvolveTo and returns the decoded frame, the saturation count
// and the modeled frame time the server must report for it.
func scalarHybridReference(t *testing.T, cfg hybrid.OffloadConfig, f *instrument.Frame) (*instrument.Frame, uint64, uint64) {
	t.Helper()
	core, err := fpga.NewFHTCore(cfg.Order, cfg.Format, cfg.Growth, cfg.ButterflyUnits, cfg.MemPorts)
	if err != nil {
		t.Fatal(err)
	}
	decoded := instrument.NewFrame(f.DriftBins, f.TOFBins)
	y, x := make([]float64, f.DriftBins), make([]float64, f.DriftBins)
	var cycles int64
	for c := 0; c < f.TOFBins; c++ {
		f.DriftVectorInto(c, y)
		n, err := core.DeconvolveTo(x, y)
		if err != nil {
			t.Fatal(err)
		}
		cycles += n
		decoded.SetDriftVector(c, x)
	}
	cfg.TOFColumns = f.TOFBins
	rep, err := hybrid.AnalyzeOffload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != rep.ColumnCycles*int64(f.TOFBins) {
		t.Fatalf("scalar core charged %d cycles, offload budget assumes %d", cycles, rep.ColumnCycles*int64(f.TOFBins))
	}
	return decoded, uint64(core.Saturations()), uint64(rep.FrameTimeS * 1e9)
}

func TestHybridPathMatchesScalarCore(t *testing.T) {
	cfg := acqserver.TestConfig()
	cfg.MaxTOFBins = 256
	s, addr := acqserver.StartServer(t, cfg)

	gwCfg := gateway.DefaultConfig()
	gwCfg.Backends = []gateway.BackendConfig{{Addr: addr}}
	gwCfg.FallbackOrder = cfg.Order
	gw, err := gateway.New(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := gw.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
	})

	dial := func(addr string) *acqserver.Client {
		c, err := acqserver.Dial(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	direct, routed := dial(addr), dial(ln.Addr().String())

	for i, tc := range []struct {
		tof    int
		gain   float64 // multiplies the fixture's counts; 1e4 overflows Q23.8
		client *acqserver.Client
	}{
		{1, 1, direct}, {15, 1, direct}, {16, 1, direct}, {17, 1, direct}, {64, 1, direct}, {250, 1, direct},
		{17, 1e4, direct}, {33, 1, routed}, {16, 1e4, routed},
	} {
		f := acqserver.SignalFrame(t, cfg.Order, tc.tof, int64(40+i))
		for j := range f.Data {
			f.Data[j] *= tc.gain
		}
		decoded, sats, simNs := scalarHybridReference(t, s.OffloadConfig(), f)
		if (sats > 0) != (tc.gain > 1) {
			t.Fatalf("case %d: fixture saturates %d times at gain %g", i, sats, tc.gain)
		}
		wantPeaks := s.Summarize(decoded)
		if tc.gain == 1 && len(wantPeaks) == 0 {
			t.Fatalf("case %d: fixture has no peaks", i)
		}
		enc := frameio.Delta
		if i%2 == 1 {
			enc = frameio.Raw
		}
		payload := acqserver.EncodedPayload(t, f, enc, acqserver.FrameOptions{Path: acqserver.PathHybrid})
		resp, err := tc.client.DoPayload(context.Background(), payload, 0)
		if err != nil || resp.Code != acqserver.CodeOK {
			t.Fatalf("case %d (width %d): %v / %+v", i, tc.tof, err, resp)
		}
		if (resp.Result.Backend != 0) != (tc.client == routed) {
			t.Errorf("case %d: served by backend %d", i, resp.Result.Backend)
		}
		if resp.Result.Saturations != sats || resp.Result.SimulatedNs != simNs {
			t.Errorf("case %d (width %d): saturations %d, simulated %d ns; scalar core says %d, %d ns",
				i, tc.tof, resp.Result.Saturations, resp.Result.SimulatedNs, sats, simNs)
		}
		if !acqserver.SamePeaks(resp.Result.Peaks, wantPeaks) {
			t.Errorf("case %d (width %d): peaks %+v, scalar core says %+v", i, tc.tof, resp.Result.Peaks, wantPeaks)
		}
	}
}

// TestHybridCountsMatchScalarCore serves the frames frameio.ReadCounts
// decides between (acqserver's servedInputs: counts frames under and past
// the int32 network's bound, frames promoted to float mid-read, a narrow
// tile) on the hybrid path, and holds each to the scalar core: peaks,
// Saturations and SimulatedNs.
func TestHybridCountsMatchScalarCore(t *testing.T) {
	cfg := acqserver.TestConfig()
	s, addr := acqserver.StartServer(t, cfg)
	c, err := acqserver.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	names, frames, encs := acqserver.ServedInputs(t, cfg.Order)
	for i, f := range frames {
		decoded, sats, simNs := scalarHybridReference(t, s.OffloadConfig(), f)
		payload := acqserver.EncodedPayload(t, f, encs[i], acqserver.FrameOptions{Path: acqserver.PathHybrid})
		resp, err := c.DoPayload(context.Background(), payload, 0)
		if err != nil || resp.Code != acqserver.CodeOK {
			t.Fatalf("%s: %v / %+v", names[i], err, resp)
		}
		if resp.Result.Saturations != sats || resp.Result.SimulatedNs != simNs {
			t.Errorf("%s: saturations %d, simulated %d ns; scalar core says %d, %d ns",
				names[i], resp.Result.Saturations, resp.Result.SimulatedNs, sats, simNs)
		}
		if want := s.Summarize(decoded); !acqserver.SamePeaks(resp.Result.Peaks, want) {
			t.Errorf("%s: peaks %+v, scalar core says %+v", names[i], resp.Result.Peaks, want)
		}
	}
}
