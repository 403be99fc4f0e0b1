package framelog

import (
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// BenchmarkAppendRotating is the frame log's rung at the durable
// workload's write rate: two goroutines append one wide frame's payload
// (134,716 bytes) each, as fast as acknowledgements come back, to a log
// configured as the benchmark's (interval sync at 1 s, two sealed
// segments retained) with 64 MiB segments, under the test's temporary
// directory — so the filesystem under test is TMPDIR's.  ns/op is per
// append and MB/s counts payload bytes.  sync-ns/seal is every fsync the
// appender ran, the seals' and the 1 s interval's, per segment sealed:
// the time the appender, and every acknowledgement behind it, waited on
// the disk for each 64 MiB.
func BenchmarkAppendRotating(b *testing.B) {
	const payloadBytes = 134716
	cfg := DefaultConfig(b.TempDir())
	cfg.FsyncInterval = time.Second
	cfg.RetainSegments = 2
	cfg.Metrics = telemetry.NewRegistry()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	l, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := payloadFor(1, payloadBytes)
	b.SetBytes(payloadBytes)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range 2 {
		n := b.N / 2
		if w == 0 {
			n += b.N % 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n {
				if _, err := l.Append(uint64(w+1), payload); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if seals := l.metrics.rotations.Value(); seals > 0 {
		b.ReportMetric(l.metrics.fsyncNs.Sum()/float64(seals), "sync-ns/seal")
	}
}
