// coalesce_test.go: the cross-session gather — batches must form across
// sessions, answer every member correctly, fall back to solo serving for
// lone frames, never open for hybrid frames, and honor each member's
// deadline.
package acqserver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/frameio"
)

// gatheredTogether reports whether some dispatched batch held two or more
// frames.
func gatheredTogether(s *Server) bool {
	return s.m.coalesceFill.Sum() > float64(s.m.coalesceFill.Count())
}

// coalesceConfig funnels everything into one shard with one worker so
// batch formation is deterministic.
func coalesceConfig(window time.Duration, fill int) Config {
	cfg := testConfig()
	cfg.Shards, cfg.WorkersPerShard = 1, 1
	cfg.QueueDepth = 32
	cfg.CoalesceWindow = window
	cfg.CoalesceFillTarget = fill
	return cfg
}

// TestCoalesceBatchesAcrossSessions sends CPU frames from several
// concurrent sessions into one shard and expects at least one multi-frame
// batch, every request answered OK, and the coalesce metric families
// populated.
func TestCoalesceBatchesAcrossSessions(t *testing.T) {
	cfg := coalesceConfig(300*time.Millisecond, 4)
	s, addr := startServer(t, cfg)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			resp, err := c.Do(context.Background(), testFrame(4+i), frameio.Raw, FrameOptions{Path: PathCPU})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			if resp.Code != CodeOK || resp.Result == nil {
				errs <- fmt.Errorf("client %d: %v %q", i, resp.Code, resp.Message)
				return
			}
			if resp.Result.ProcessNs == 0 {
				errs <- fmt.Errorf("client %d: zero process time", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !gatheredTogether(s) {
		t.Error("no batch gathered two frames")
	}
	var batches int64
	for _, c := range s.m.coalesceBatches {
		batches += c.Value()
	}
	if batches == 0 {
		t.Error("no coalesced batches dispatched")
	}
	if s.m.coalesceFill.Count() != batches {
		t.Errorf("batch-fill observations = %d, batches = %d", s.m.coalesceFill.Count(), batches)
	}
	if s.m.coalesceWait.Count() == 0 {
		t.Error("no coalesce wait observations")
	}
}

// TestCoalesceMatchesSoloResults serves identical frames through a
// coalescing server and a plain one; the RESULT summaries must agree.
func TestCoalesceMatchesSoloResults(t *testing.T) {
	solo, soloAddr := startServer(t, testConfig())
	_ = solo
	co, coAddr := startServer(t, coalesceConfig(200*time.Millisecond, 3))
	_ = co

	f := testFrame(8)
	want, err := dialClient(t, soloAddr).Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathCPU})
	if err != nil || want.Code != CodeOK {
		t.Fatalf("solo serve: %v / %+v", err, want)
	}

	const clients = 3
	var wg sync.WaitGroup
	results := make([]*Response, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(coAddr, 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			resp, err := c.Do(context.Background(), f, frameio.Raw, FrameOptions{Path: PathCPU})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = resp
		}(i)
	}
	wg.Wait()
	for i, resp := range results {
		if resp == nil || resp.Code != CodeOK || resp.Result == nil {
			t.Fatalf("client %d: %+v", i, resp)
		}
		if len(resp.Result.Peaks) != len(want.Result.Peaks) {
			t.Fatalf("client %d: %d peaks, solo found %d", i, len(resp.Result.Peaks), len(want.Result.Peaks))
		}
		for j, p := range resp.Result.Peaks {
			w := want.Result.Peaks[j]
			if p.Centroid != w.Centroid || p.Height != w.Height || p.Area != w.Area {
				t.Fatalf("client %d peak %d: coalesced %+v != solo %+v", i, j, p, w)
			}
		}
	}
}

// TestCoalesceWindowSoloFallback: one lone CPU frame must dispatch on the
// window trigger as a batch of one.
func TestCoalesceWindowSoloFallback(t *testing.T) {
	cfg := coalesceConfig(20*time.Millisecond, 8)
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	resp, err := c.Do(context.Background(), testFrame(6), frameio.Raw, FrameOptions{Path: PathCPU})
	if err != nil || resp.Code != CodeOK {
		t.Fatalf("lone frame: %v / %+v", err, resp)
	}
	if got := s.m.coalesceBatches["window"].Value(); got != 1 {
		t.Errorf("window-triggered batches = %d, want 1", got)
	}
	if gatheredTogether(s) {
		t.Error("a lone frame dispatched in a batch of more than one")
	}
}

// TestCoalesceHybridUnbatched: hybrid-path frames flow through a
// coalescing server exactly as before — answered OK — and a worker that
// picks one up does not open a gathering window.
func TestCoalesceHybridUnbatched(t *testing.T) {
	cfg := coalesceConfig(20*time.Millisecond, 4)
	s, addr := startServer(t, cfg)
	c := dialClient(t, addr)
	for i := 0; i < 2; i++ {
		resp, err := c.Do(context.Background(), testFrame(5), frameio.Raw, FrameOptions{Path: PathHybrid})
		if err != nil || resp.Code != CodeOK {
			t.Fatalf("hybrid frame %d: %v / %+v", i, err, resp)
		}
	}
	for trigger, c := range s.m.coalesceBatches {
		if got := c.Value(); got != 0 {
			t.Errorf("acq_coalesce_batches_total{trigger=%q} = %d, want 0 for hybrid traffic", trigger, got)
		}
	}
}

// TestCoalesceDeadlineTriage: a member whose deadline lapses during the
// gather window is answered DEADLINE_EXCEEDED at its turn while its
// batch-mate still completes.
func TestCoalesceDeadlineTriage(t *testing.T) {
	cfg := coalesceConfig(150*time.Millisecond, 3)
	s, addr := startServer(t, cfg)
	_ = s
	c1 := dialClient(t, addr)
	c2 := dialClient(t, addr)

	responses := make(chan *Response, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, err := c1.Do(context.Background(), testFrame(4), frameio.Raw, FrameOptions{Path: PathCPU})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}()
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond) // join the first frame's window
		resp, err := c2.Do(context.Background(), testFrame(4), frameio.Raw,
			FrameOptions{Path: PathCPU, Deadline: 30 * time.Millisecond})
		if err != nil {
			t.Error(err)
			resp = &Response{Code: CodeInternal}
		}
		responses <- resp
	}()
	wg.Wait()
	close(responses)
	counts := map[Code]int{}
	for resp := range responses {
		counts[resp.Code]++
	}
	if counts[CodeOK] != 1 || counts[CodeDeadlineExceeded] != 1 {
		t.Fatalf("response codes %v, want 1 OK + 1 DEADLINE_EXCEEDED", counts)
	}
}

// TestCoalesceConfigValidation pins the new Config guards.
func TestCoalesceConfigValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.CoalesceWindow = -time.Second },
		func(c *Config) { c.CoalesceWindow = time.Millisecond; c.CoalesceFillTarget = 0 },
		func(c *Config) { c.CoalesceWindow = time.Millisecond; c.CoalesceFillTarget = 1 },
		func(c *Config) { c.CoalesceWindow = time.Millisecond; c.CoalesceFillTarget = 257 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	cfg := DefaultConfig()
	cfg.CoalesceWindow = 500 * time.Microsecond
	cfg.CoalesceFillTarget = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid coalesce config rejected: %v", err)
	}
}
