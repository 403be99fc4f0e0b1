package gateway

import (
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
)

// TestGatewayForwardAllocs pins the objects one forwarded frame costs the
// whole process: a client's DoPayload through the gateway to a real
// daemon (which allocates nothing per frame) and back.  Measured 10.0
// objects (31.0 when each wire write and read allocated its buffers and
// each attempt built its pprof labels): the caller's own Response, Result
// and peaks, the same three for the gateway's upstream call, the proxy
// goroutine's closure, and the upstream timeout context's five (context,
// timer, its callback, the cancel func and the Done channel).  The budget
// is 11.  The steady state is the cheapest of four 100-frame windows, as in
// acqserver's TestServeFrameAllocs.
func TestGatewayForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	if testing.Short() {
		t.Skip("forwards 450 frames")
	}
	bcfg := acqserver.DefaultConfig()
	bcfg.Order, bcfg.MaxTOFBins = 5, 64
	bcfg.Shards, bcfg.WorkersPerShard = 1, 1
	srv, err := acqserver.NewServer(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(bln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cfg := testGwConfig(bln.Addr().String())
	cfg.Metrics = nil
	_, addr := startGateway(t, cfg)
	c := dialGateway(t, addr)

	var payload bytes.Buffer
	payload.Write([]byte{byte(acqserver.PathCPU), 0, 0, 0, 0}) // the options prefix: CPU path, no deadline
	if err := frameio.Write(&payload, gwFrame(5, 16), nil, frameio.Delta); err != nil {
		t.Fatal(err)
	}
	forward := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := c.DoPayload(context.Background(), payload.Bytes(), 0)
			if err != nil || resp.Code != acqserver.CodeOK {
				t.Fatalf("frame %d: %v / %+v", i, err, resp)
			}
		}
	}
	forward(50) // warm the pools, the buffers and the upstream connections
	runtime.GC()
	const windows, frames, budget = 4, 100, 11
	kib, objs := math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		forward(frames)
		runtime.ReadMemStats(&after)
		kib = min(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/frames)
		objs = min(objs, float64(after.Mallocs-before.Mallocs)/frames)
	}
	t.Logf("%.2f KiB and %.1f objects allocated per forwarded frame", kib, objs)
	if objs > budget {
		t.Errorf("a forwarded frame allocates %.1f objects (%.2f KiB), budget is %d", objs, kib, budget)
	}
}
