package acqserver

import (
	"context"
	"testing"

	"repro/internal/frameio"
)

// BenchmarkServeFrame is the served-frame rung of the ladder: one wide
// (511 × 256) Delta frame served over loopback by an in-process daemon
// (one shard, one worker) and answered through Client.DoPayload, on each
// compute path — the frame is proved, so the hybrid path answers from its
// row sums.  ns/op is the whole round trip, client and server; B/op and
// allocs/op count both sides too, so the Response a caller keeps is in
// them.  The rung is run alone, with no tracer, frame log or registry.
func BenchmarkServeFrame(b *testing.B) {
	frame := signalFrame(b, DefaultConfig().Order, 256, 7)
	for _, path := range []Path{PathCPU, PathHybrid} {
		b.Run(path.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Shards, cfg.WorkersPerShard = 1, 1
			_, addr := startServer(b, cfg)
			c := dialClient(b, addr)
			payload := encodedPayload(b, frame, frameio.Delta, FrameOptions{Path: path})
			serve := func() {
				resp, err := c.DoPayload(context.Background(), payload, 0)
				if err != nil || resp.Code != CodeOK {
					b.Fatalf("%v / %+v", err, resp)
				}
			}
			for i := 0; i < 50; i++ { // warm the pools and the buffers
				serve()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
