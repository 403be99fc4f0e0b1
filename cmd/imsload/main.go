// Command imsload is the load generator for the imsd acquisition daemon:
// it drives M concurrent clients at a target per-client rate, submits
// synthetic multiplexed frames over IMSP, and reports the latency
// distribution (p50/p95/p99), throughput, and shed rate.  A paced request
// (-rate, or -replay at a nonzero -replay-rate) is timed from the instant
// its schedule made it due, not from when it was finally sent, so requests
// held up behind a stalled response report the wait; unpaced requests are
// timed from the send.
//
// Usage:
//
//	imsload [-addr HOST:PORT] [-topology single|cluster]
//	        [-clients N] [-rate R] [-duration D]
//	        [-tof N] [-path hybrid|cpu] [-deadline D] [-enc raw|delta]
//	        [-seed N] [-json FILE] [-trace FILE]
//	        [-wait-ready URL] [-wait-ready-timeout D] [-metrics URL]
//	        [-history URL] [-replay DIR] [-replay-rate F]
//
// With -replay, instead of generating synthetic frames imsload streams a
// captured frame log (written by imsd -framelog, see docs/DURABILITY.md)
// back through IMSP: every record's payload is submitted verbatim over a
// single connection, paced by the recorded inter-frame gaps divided by
// -replay-rate (1 = recorded rate, 2 = twice as fast, 0 = as fast as
// possible).  The -json report gains a "replay" block (source directory,
// segment count, seq range, records, rate multiplier) so replay runs are
// machine-comparable with live ones.
//
// Every run — live or replay — reports a response_digest: an
// order-insensitive combination of per-result FNV-1a hashes over the
// returned peak lists (timing, shard and routing fields excluded).  Two
// runs that deconvolved the same frames to the same peaks carry the same
// digest, which is how TestReplayMatchesLiveDigest proves a replayed
// capture is bit-identical to the original responses.
//
// With -topology cluster, -addr names an imsgw gateway rather than a
// single daemon.  Gateway results carry a routing trailer (which fleet
// backend served each frame and in how many delivery attempts), so the
// run report gains a per-backend breakdown — frames served and sibling
// retries per backend id — printed on the "fleet:" line and carried into
// -json under "backends".  The flag is declarative, not behavioural: the
// wire protocol is identical either way, and trailers that arrive in
// single mode are still tallied (with a note), so pointing single mode at
// a gateway degrades gracefully.
//
// With -wait-ready, imsload blocks until the daemon's /readyz endpoint
// answers 200 (retrying with backoff up to -wait-ready-timeout) before
// opening any client connection, so a just-started or still-draining
// daemon is never mistaken for a broken one.  The readiness report it
// fetches is carried into the -json output under "server_health".
//
// With -metrics, imsload scrapes the daemon's /metrics.json endpoint
// once after the run and summarizes the acq_coalesce_* families — batches
// per dispatch trigger (fill target reached vs window timeout vs queue
// drain), batch-fill and gather-wait quantiles — on a "coalesce:" line
// and, with -json, under "coalesce", so the trade-off imsd's
// -coalesce-window makes is measurable from the client side.  Beside it a
// "budget:" line reads acq_stage_ns: the p50 of each stage of a served
// frame's round trip and the remainder no stage names (with -json, each
// stage's p50, p90 and share of the mean round trip, under "budget").
//
// With -json and a history URL (given via -history, or derived from
// -metrics when the daemon runs with -history), the report also gains a
// "server_history" block: the daemon's compute-stage p99 and
// acq_shed_total increase series over the run window, fetched from
// /metrics/history (docs/OBSERVABILITY.md).  The run report alone is then
// enough to plot how the server's tail latency and shedding evolved while
// the load was applied.
//
// With -json, the run's full report — throughput, shed rate, latency
// quantiles and the server-side span-stage breakdown (queue wait, process,
// modeled XD1 time, from RESULT payloads) — is written as machine-readable
// JSON so perf trajectories can be recorded across runs.  With -trace,
// every request is traced client-side under a trace ID that also rides the
// IMSP/2 header, so the client span trees correlate with the server's
// /debug/traces output; the trees are written as Perfetto JSON at exit.
//
// Shed responses (RESOURCE_EXHAUSTED, UNAVAILABLE) are the daemon's
// explicit backpressure and are reported separately; they are not errors.
// imsload exits non-zero only on transport or protocol failures, so a
// clean run is an exit status of 0.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/acqserver"
	"repro/internal/frameio"
	"repro/internal/framelog"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/telemetry/tsdb"
)

// clientStats is one worker's tally, merged after the run.
type clientStats struct {
	latencies []time.Duration
	ok        int
	shed      int
	rejected  map[acqserver.Code]int
	errs      []error
	server    serverBreakdown
	backends  map[uint16]*backendTally
	// digest is the wrapping sum of per-OK-result FNV-1a hashes over peak
	// lists (order-insensitive, so concurrent clients combine cleanly).
	digest uint64
	// notDurable counts OK responses flagged ResultFlagNotDurable (the
	// daemon's frame log is not fsyncing before the ACK).
	notDurable int
	// slowest holds the client's slowest requests, latency-descending,
	// capped at slowestKeep — each with the trace id the server echoed, so
	// a bad tail quantile resolves straight to a grep of the daemon's
	// /debug/traces and /debug/events output.
	slowest []slowRequest
}

// slowRequest names one completed request for the slowest-requests report.
type slowRequest struct {
	// LatencyNs is the client-observed round-trip time.
	LatencyNs int64 `json:"latency_ns"`
	// TraceID is the trace identity echoed on the IMSP/2 response header,
	// 16 lowercase hex digits; empty when tracing was off server-side.
	TraceID string `json:"trace_id,omitempty"`
	// Code is the response status.
	Code string `json:"code"`
}

// slowestKeep bounds the slowest-request lists (per client and merged).
const slowestKeep = 5

// tallySlow folds one completed request into the client's slowest list.
func (st *clientStats) tallySlow(lat time.Duration, traceID uint64, code acqserver.Code) {
	st.slowest = trimSlowest(append(st.slowest, slowRequest{
		LatencyNs: lat.Nanoseconds(),
		TraceID:   telemetry.TraceID(traceID).String(),
		Code:      code.String(),
	}))
}

// trimSlowest sorts latency-descending and keeps the top slowestKeep.
func trimSlowest(s []slowRequest) []slowRequest {
	sort.Slice(s, func(i, j int) bool { return s[i].LatencyNs > s[j].LatencyNs })
	if len(s) > slowestKeep {
		s = s[:slowestKeep]
	}
	return s
}

// tallyResult folds one OK result into the digest and durability tallies.
func (st *clientStats) tallyResult(resp *acqserver.Response) {
	st.digest += resultDigest(resp.Result)
	if resp.DurabilityError() != nil {
		st.notDurable++
	}
}

// resultDigest hashes the payload-determined part of one result — the
// peak list — excluding timing, shard and routing fields, so live and
// replayed responses to the same frame hash identically.
func resultDigest(r *acqserver.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(r.Peaks)))
	_, _ = h.Write(b[:])
	for _, p := range r.Peaks {
		for _, v := range [4]float64{p.Centroid, p.Height, p.Area, p.SNR} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			_, _ = h.Write(b[:])
		}
	}
	return h.Sum64()
}

// backendTally attributes accepted frames to one gateway fleet member,
// keyed by the 1-based backend id echoed in the RESULT routing trailer.
type backendTally struct {
	// Frames is how many OK results this backend served.
	Frames int64 `json:"frames"`
	// Retried counts the frames among them that took a sibling retry
	// (routing trailer attempts >= 2) to land here.
	Retried int64 `json:"retried"`
}

// tallyBackend records one routed result (trailer backend id nonzero).
func (st *clientStats) tallyBackend(r *acqserver.Result) {
	if r.Backend == 0 {
		return
	}
	if st.backends == nil {
		st.backends = map[uint16]*backendTally{}
	}
	bt := st.backends[r.Backend]
	if bt == nil {
		bt = &backendTally{}
		st.backends[r.Backend] = bt
	}
	bt.Frames++
	if r.Attempts >= 2 {
		bt.Retried++
	}
}

// serverBreakdown aggregates the server-side span-stage times carried in
// RESULT payloads: where accepted frames spent their time on the daemon.
type serverBreakdown struct {
	// Frames is how many RESULTs contributed.
	Frames int64 `json:"frames"`
	// QueueWaitNs, ProcessNs and SimulatedNs are summed over those frames.
	QueueWaitNs int64 `json:"queue_wait_ns_total"`
	ProcessNs   int64 `json:"process_ns_total"`
	SimulatedNs int64 `json:"simulated_ns_total"`
}

func (b *serverBreakdown) add(r *acqserver.Result) {
	b.Frames++
	b.QueueWaitNs += int64(r.QueueWaitNs)
	b.ProcessNs += int64(r.ProcessNs)
	b.SimulatedNs += int64(r.SimulatedNs)
}

// report is the -json machine-readable run summary.
type report struct {
	Clients       int              `json:"clients"`
	DurationS     float64          `json:"duration_s"`
	Path          string           `json:"path"`
	TOFBins       int              `json:"tof_bins"`
	Requests      int              `json:"requests"`
	OK            int              `json:"ok"`
	Shed          int              `json:"shed"`
	ShedRate      float64          `json:"shed_rate"`
	Rejected      map[string]int   `json:"rejected,omitempty"`
	ThroughputRPS float64          `json:"throughput_rps"`
	SubmittedMiBS float64          `json:"submitted_mib_per_s"`
	LatencyNs     map[string]int64 `json:"latency_ns"`
	Server        serverBreakdown  `json:"server"`
	// Topology echoes the -topology flag.
	Topology string `json:"topology"`
	// Backends is the per-fleet-member attribution from RESULT routing
	// trailers, keyed by the gateway's 1-based backend id; absent when no
	// routed results were seen (single-daemon runs).
	Backends     map[string]*backendTally `json:"backends,omitempty"`
	ProtoVersion uint8                    `json:"protocol_version"`
	// ServerHealth is the daemon's /readyz report fetched by -wait-ready,
	// verbatim; absent when -wait-ready was not used.
	ServerHealth json.RawMessage `json:"server_health,omitempty"`
	// ResponseDigest is the order-insensitive hash over all OK results'
	// peak lists (hex); equal digests mean two runs deconvolved the same
	// frames to bit-identical peaks.
	ResponseDigest string `json:"response_digest"`
	// OKNotDurable counts OK responses flagged as acknowledged before the
	// daemon's frame log reached stable storage.
	OKNotDurable int `json:"ok_not_durable"`
	// Replay describes the capture a -replay run streamed; absent on live
	// runs.
	Replay *replayBlock `json:"replay,omitempty"`
	// Slowest lists the run's slowest requests (latency-descending, at most
	// slowestKeep) with the trace ids the server echoed — grep one in the
	// daemon's /debug/traces output or -trace file, or in /debug/events,
	// to see where the time went.
	Slowest []slowRequest `json:"slowest_requests,omitempty"`
	// Coalesce summarizes the daemon's cross-session micro-batching
	// counters scraped from -metrics after the run; absent when -metrics
	// was not given or the daemon exports no acq_coalesce_* families.
	Coalesce *coalesceBlock `json:"coalesce,omitempty"`
	// Budget is the daemon's acq_stage_ns family scraped from -metrics
	// after the run, by stage; absent without -metrics.
	Budget map[string]budgetStage `json:"budget,omitempty"`
	// ServerHistory carries the daemon's own view of the run — the
	// compute stage's p99 and the acq_shed_total increase series over the
	// run window, fetched from /metrics/history after the run; absent when
	// the daemon runs without -history or no history URL could be derived.
	ServerHistory *serverHistoryBlock `json:"server_history,omitempty"`
}

// serverHistoryBlock is the -json view of the daemon's /metrics/history
// answer over the run window.  The two embedded results are the endpoint's
// wire shape verbatim (per-series step points), so a run report alone is
// enough to plot how the server's tail latency and shedding evolved while
// the load was applied — no live daemon needed afterwards.
type serverHistoryBlock struct {
	// SinceUnix and UntilUnix bound the queried window (the run, widened by
	// one sampler tick on each side so edge samples land inside it).
	SinceUnix int64 `json:"since_unix"`
	UntilUnix int64 `json:"until_unix"`
	// ProcessP99Ns is the compute stage's p99 per step, nanoseconds.
	ProcessP99Ns *tsdb.QueryResult `json:"process_p99_ns,omitempty"`
	// Shed is the acq_shed_total increase per step.
	Shed *tsdb.QueryResult `json:"shed,omitempty"`
}

// fetchServerHistory queries base (a /metrics/history URL) for the run
// window.  Best-effort: a daemon running without -history answers 404 and
// the block is simply omitted from the report.
func fetchServerHistory(base string, since, until time.Time) *serverHistoryBlock {
	query := func(family string, quantile float64, match ...string) (*tsdb.QueryResult, error) {
		v := neturl.Values{"match": match}
		v.Set("family", family)
		v.Set("since", fmt.Sprintf("%d", since.Unix()))
		v.Set("until", fmt.Sprintf("%d", until.Unix()))
		if quantile > 0 {
			v.Set("quantile", fmt.Sprintf("%g", quantile))
		}
		body, err := fetchOnce(base + "?" + v.Encode())
		if err != nil {
			return nil, err
		}
		var qr tsdb.QueryResult
		if err := json.Unmarshal(body, &qr); err != nil {
			return nil, err
		}
		if len(qr.Series) == 0 {
			return nil, nil
		}
		return &qr, nil
	}
	sh := &serverHistoryBlock{SinceUnix: since.Unix(), UntilUnix: until.Unix()}
	p99, err := query("acq_stage_ns", 0.99, "stage=compute")
	if err != nil {
		// One note covers both queries: if the endpoint is down or history
		// is disabled, the shed query would fail identically.
		fmt.Fprintf(os.Stderr, "imsload: history scrape: %v\n", err)
		return nil
	}
	sh.ProcessP99Ns = p99
	if shed, err := query("acq_shed_total", 0); err != nil {
		fmt.Fprintf(os.Stderr, "imsload: history scrape: %v\n", err)
	} else {
		sh.Shed = shed
	}
	if sh.ProcessP99Ns == nil && sh.Shed == nil {
		return nil
	}
	return sh
}

// coalesceBlock is the -json view of the daemon's acq_coalesce_* metric
// families (see docs/OBSERVABILITY.md): how many batches dispatched per
// trigger, how full they were, and how long they waited gathering.
type coalesceBlock struct {
	// Batches is the total coalesced batches dispatched.
	Batches int64 `json:"batches"`
	// Triggers breaks Batches down by dispatch reason: "fill" (the batch
	// hit its fill target), "window" (the -coalesce-window timer fired) or
	// "drain" (the shard queue closed mid-gather).
	Triggers map[string]int64 `json:"triggers,omitempty"`
	// BatchFillP50/P95 are quantiles of frames-per-batch at dispatch.
	BatchFillP50 float64 `json:"batch_fill_p50,omitempty"`
	BatchFillP95 float64 `json:"batch_fill_p95,omitempty"`
	// WaitNsP50/P95 are quantiles of the gather time per batch.
	WaitNsP50 float64 `json:"wait_ns_p50,omitempty"`
	WaitNsP95 float64 `json:"wait_ns_p95,omitempty"`
}

// coalesceFromSnapshot extracts the coalesce block from a decoded
// /metrics.json snapshot; nil when the daemon predates the coalescer.
func coalesceFromSnapshot(snap telemetry.Snapshot) *coalesceBlock {
	cb := &coalesceBlock{Triggers: map[string]int64{}}
	seen := false
	for _, m := range snap.Metrics {
		switch m.Name {
		case "acq_coalesce_batches_total":
			seen = true
			if m.Value != nil && *m.Value > 0 {
				cb.Batches += int64(*m.Value)
				cb.Triggers[m.Labels["trigger"]] += int64(*m.Value)
			}
		case "acq_coalesce_batch_fill":
			seen = true
			cb.BatchFillP50, cb.BatchFillP95 = m.P50, m.P95
		case "acq_coalesce_wait_ns":
			seen = true
			cb.WaitNsP50, cb.WaitNsP95 = m.P50, m.P95
		}
	}
	if !seen {
		return nil
	}
	if len(cb.Triggers) == 0 {
		cb.Triggers = nil
	}
	return cb
}

// budgetStages are acq_stage_ns's stages in a frame's order, the remainder
// (what no stage names) last but one and the whole round trip last.
var budgetStages = []string{"read", "wal", "queue", "compute", "reply", "write", "remainder", "roundtrip"}

// budgetStage is one stage of the -json "budget" block: its p50 and p90
// over the daemon's lifetime, merged across compute paths (bucket
// midpoints, within 2×; 0 when at most 1 ns), and its share of the mean
// round trip.  The shares of every stage but the round trip sum to 1.
type budgetStage struct {
	P50Ns float64 `json:"p50_ns"`
	P90Ns float64 `json:"p90_ns"`
	Share float64 `json:"share"`
}

// budgetFromSnapshot extracts the budget block from a decoded
// /metrics.json snapshot; nil when the daemon answered no frame.
func budgetFromSnapshot(snap telemetry.Snapshot) map[string]budgetStage {
	counts := map[string]*[telemetry.NumBuckets]int64{}
	sums := map[string]float64{}
	for _, m := range snap.Metrics {
		if m.Name != "acq_stage_ns" {
			continue
		}
		st := m.Labels["stage"]
		if counts[st] == nil {
			counts[st] = new([telemetry.NumBuckets]int64)
		}
		for _, b := range m.Buckets {
			i := telemetry.NumBuckets - 1 // the +Inf bucket
			if !math.IsInf(b.UpperBound, 1) {
				i = min(max(math.Ilogb(b.UpperBound), 0), i)
			}
			counts[st][i] += b.Count
		}
		sums[st] += m.Sum
	}
	if sums["roundtrip"] == 0 {
		return nil
	}
	quantile := func(c *[telemetry.NumBuckets]int64, q float64) float64 {
		if v := telemetry.QuantileOfCounts(*c, q); v > 1 {
			return v
		}
		return 0
	}
	budget := map[string]budgetStage{}
	for st, c := range counts {
		budget[st] = budgetStage{P50Ns: quantile(c, 0.5), P90Ns: quantile(c, 0.9), Share: sums[st] / sums["roundtrip"]}
	}
	return budget
}

// replayBlock is the -json summary of the capture a replay run streamed.
type replayBlock struct {
	// Dir is the frame log directory that was replayed.
	Dir string `json:"dir"`
	// Segments is how many segment files the capture spans.
	Segments int `json:"segments"`
	// FirstSeq and LastSeq bound the replayed records.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Records is the total record count streamed.
	Records int64 `json:"records"`
	// RateMultiplier echoes -replay-rate.
	RateMultiplier float64 `json:"rate_multiplier"`
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "imsload: %v\n", err)
		os.Exit(1)
	}
}

// run is imsload: it parses args, generates (or replays) the load until
// -duration elapses or ctx is done, writes the report to stdout, and
// returns an error on any transport or protocol failure.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("imsload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "daemon address")
	clients := fs.Int("clients", 16, "concurrent client connections")
	rate := fs.Float64("rate", 0, "target frames/s per client (0 = closed loop, as fast as possible)")
	duration := fs.Duration("duration", 5*time.Second, "run length")
	tofBins := fs.Int("tof", 256, "m/z bins per synthetic frame")
	pathName := fs.String("path", "hybrid", "compute path: hybrid or cpu")
	deadline := fs.Duration("deadline", 0, "per-request server-side deadline (0 = none)")
	encName := fs.String("enc", "delta", "frame encoding: raw or delta")
	seed := fs.Int64("seed", 1, "random seed for synthetic frames")
	jsonPath := fs.String("json", "", "write the machine-readable run report to this JSON file")
	tracePath := fs.String("trace", "", "trace every request client-side and write span trees as Perfetto JSON to this file")
	waitReady := fs.String("wait-ready", "", "block until this /readyz URL answers 200 before generating load")
	metricsURL := fs.String("metrics", "", "scrape this /metrics.json URL after the run for the coalesce and budget blocks")
	historyURL := fs.String("history", "", "scrape this /metrics/history URL after the run for the server_history block in -json output (default: derived from -metrics)")
	waitReadyTimeout := fs.Duration("wait-ready-timeout", 30*time.Second, "give up on -wait-ready after this long")
	topology := fs.String("topology", "single", "target topology: single (one imsd) or cluster (an imsgw gateway, per-backend attribution reported)")
	replayDir := fs.String("replay", "", "replay a captured frame log directory (written by imsd -framelog) instead of generating synthetic load")
	replayRate := fs.Float64("replay-rate", 1, "replay pacing: recorded inter-frame gaps are divided by this multiplier (0 = as fast as possible)")
	_ = fs.Parse(args)

	if *topology != "single" && *topology != "cluster" {
		return fmt.Errorf("unknown topology %q (want single or cluster)", *topology)
	}

	var path acqserver.Path
	switch *pathName {
	case "hybrid":
		path = acqserver.PathHybrid
	case "cpu":
		path = acqserver.PathCPU
	default:
		return fmt.Errorf("unknown path %q (want hybrid or cpu)", *pathName)
	}
	var enc frameio.Encoding
	switch *encName {
	case "raw":
		enc = frameio.Raw
	case "delta":
		enc = frameio.Delta
	default:
		return fmt.Errorf("unknown encoding %q (want raw or delta)", *encName)
	}
	if *clients < 1 {
		return errors.New("need at least one client")
	}

	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New()
	}

	var serverHealth json.RawMessage
	if *waitReady != "" {
		body, err := awaitReady(*waitReady, *waitReadyTimeout)
		if err != nil {
			return fmt.Errorf("wait-ready: %w", err)
		}
		serverHealth = body
		fmt.Fprintf(stdout, "imsload: %s is ready\n", *waitReady)
	}

	// One handshake up front to learn the served order and sanity-check the
	// target before unleashing the fleet.
	probe, err := acqserver.Dial(*addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", *addr, err)
	}
	info := probe.Info()
	protoVer := probe.ProtocolVersion()
	_ = probe.Close()
	driftBins := 1<<info.Order - 1
	fmt.Fprintf(stdout, "imsload: %d clients -> %s (order %d, %d shards, IMSP/%d), path %s, %v\n",
		*clients, *addr, info.Order, info.Shards, protoVer, path, *duration)

	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}

	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	var replay *replayBlock
	var replayBytes int64
	if *replayDir != "" {
		stats[0].rejected = map[acqserver.Code]int{}
		var err error
		if replay, replayBytes, err = runReplay(stdout, *addr, *replayDir, *replayRate, &stats[0], tracer); err != nil {
			return err
		}
	} else {
		runLive(ctx, *addr, stats, liveOptions{
			stop: start.Add(*duration), interval: interval, driftBins: driftBins,
			tofBins: *tofBins, seed: *seed, path: path, enc: enc,
			deadline: *deadline, tracer: tracer,
		}, &wg)
	}
	elapsed := time.Since(start)

	// Merge and report.
	var all []time.Duration
	var ok, shed, notDurable int
	var digest uint64
	rejected := map[acqserver.Code]int{}
	var errs []error
	var slowest []slowRequest
	var server serverBreakdown
	for i := range stats {
		all = append(all, stats[i].latencies...)
		ok += stats[i].ok
		shed += stats[i].shed
		digest += stats[i].digest
		notDurable += stats[i].notDurable
		for c, n := range stats[i].rejected {
			rejected[c] += n
		}
		errs = append(errs, stats[i].errs...)
		slowest = trimSlowest(append(slowest, stats[i].slowest...))
		server.Frames += stats[i].server.Frames
		server.QueueWaitNs += stats[i].server.QueueWaitNs
		server.ProcessNs += stats[i].server.ProcessNs
		server.SimulatedNs += stats[i].server.SimulatedNs
	}
	fleet := map[uint16]*backendTally{}
	for i := range stats {
		for id, bt := range stats[i].backends {
			ft := fleet[id]
			if ft == nil {
				ft = &backendTally{}
				fleet[id] = ft
			}
			ft.Frames += bt.Frames
			ft.Retried += bt.Retried
		}
	}
	total := len(all)
	if total == 0 {
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "imsload: %v\n", err)
		}
		return errors.New("no requests completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(q float64) time.Duration { return all[int(q*float64(total-1))] }

	var submittedBytes float64
	if replay != nil {
		submittedBytes = float64(replayBytes)
	} else {
		encSize, err := frameio.EncodedSize(syntheticFrame(driftBins, *tofBins, *seed), enc)
		if err != nil {
			encSize = 0
		}
		submittedBytes = float64(total) * float64(encSize)
	}
	fmt.Fprintf(stdout, "requests:   %d total, %d ok, %d shed (%.2f%% shed rate)\n",
		total, ok, shed, 100*float64(shed)/float64(total))
	fmt.Fprintf(stdout, "latency:    p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), all[total-1].Round(time.Microsecond))
	fmt.Fprintf(stdout, "throughput: %.1f req/s, %.2f MiB/s submitted\n",
		float64(total)/elapsed.Seconds(),
		submittedBytes/elapsed.Seconds()/(1<<20))
	fmt.Fprintf(stdout, "digest:     response_digest %016x over %d ok results\n", digest, ok)
	if len(slowest) > 0 {
		fmt.Fprintf(stdout, "slowest:   ")
		for _, sr := range slowest {
			id := sr.TraceID
			if id == "" {
				id = "-"
			}
			fmt.Fprintf(stdout, " %v/%s(%s)", time.Duration(sr.LatencyNs).Round(time.Microsecond), id, sr.Code)
		}
		fmt.Fprintln(stdout)
	}
	if notDurable > 0 {
		fmt.Fprintf(stdout, "imsload: note: %d of %d acks were not durable (daemon frame log is not fsyncing before the ACK)\n",
			notDurable, ok)
	}
	if server.Frames > 0 {
		fmt.Fprintf(stdout, "server:     mean queue wait %v, process %v, modeled XD1 %v (over %d frames)\n",
			time.Duration(server.QueueWaitNs/server.Frames).Round(time.Microsecond),
			time.Duration(server.ProcessNs/server.Frames).Round(time.Microsecond),
			time.Duration(server.SimulatedNs/server.Frames).Round(time.Microsecond),
			server.Frames)
	}
	if len(fleet) > 0 {
		var ids []int
		for id := range fleet {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		fmt.Fprintf(stdout, "fleet:     ")
		for _, id := range ids {
			ft := fleet[uint16(id)]
			fmt.Fprintf(stdout, " backend %d: %d frames (%d retried)", id, ft.Frames, ft.Retried)
		}
		fmt.Fprintln(stdout)
		if *topology == "single" {
			fmt.Fprintln(stdout, "imsload: note: routed results carry gateway trailers; target looks like a cluster (use -topology cluster)")
		}
	} else if *topology == "cluster" {
		fmt.Fprintln(stdout, "imsload: note: -topology cluster but no result carried a routing trailer; target looks like a bare daemon")
	}
	var coalesce *coalesceBlock
	var budget map[string]budgetStage
	if *metricsURL != "" {
		if body, err := fetchOnce(*metricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "imsload: metrics scrape: %v\n", err)
		} else {
			var snap telemetry.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				fmt.Fprintf(os.Stderr, "imsload: metrics decode: %v\n", err)
			} else if coalesce = coalesceFromSnapshot(snap); coalesce != nil && coalesce.Batches > 0 {
				fmt.Fprintf(stdout, "coalesce:   %d batches (fill %d / window %d / drain %d), fill p50 %.1f p95 %.1f, wait p50 %v p95 %v\n",
					coalesce.Batches, coalesce.Triggers["fill"], coalesce.Triggers["window"], coalesce.Triggers["drain"],
					coalesce.BatchFillP50, coalesce.BatchFillP95,
					time.Duration(coalesce.WaitNsP50).Round(time.Microsecond),
					time.Duration(coalesce.WaitNsP95).Round(time.Microsecond))
			}
			if budget = budgetFromSnapshot(snap); budget != nil {
				fmt.Fprintf(stdout, "budget:    ")
				for _, st := range budgetStages {
					fmt.Fprintf(stdout, " %s %v", st, time.Duration(budget[st].P50Ns).Round(100*time.Nanosecond))
				}
				fmt.Fprintf(stdout, " (p50s; remainder %.1f%% of the mean round trip)\n", 100*budget["remainder"].Share)
			}
		}
	}
	var serverHistory *serverHistoryBlock
	if *jsonPath != "" {
		hu := *historyURL
		if hu == "" && strings.HasSuffix(*metricsURL, "/metrics.json") {
			hu = strings.TrimSuffix(*metricsURL, "/metrics.json") + "/metrics/history"
		}
		if hu != "" {
			// Widen the window by one 5s sampler tick on each side so the
			// samples bracketing the run land inside it.
			serverHistory = fetchServerHistory(hu, start.Add(-5*time.Second), time.Now().Add(5*time.Second))
		}
	}
	for code, n := range rejected {
		fmt.Fprintf(stdout, "rejected:   %d x %v\n", n, code)
	}
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "imsload: client error: %v\n", err)
	}

	if *jsonPath != "" {
		rep := report{
			Clients:       *clients,
			DurationS:     elapsed.Seconds(),
			Path:          path.String(),
			TOFBins:       *tofBins,
			Requests:      total,
			OK:            ok,
			Shed:          shed,
			ShedRate:      float64(shed) / float64(total),
			ThroughputRPS: float64(total) / elapsed.Seconds(),
			SubmittedMiBS: submittedBytes / elapsed.Seconds() / (1 << 20),
			LatencyNs: map[string]int64{
				"p50": pct(0.50).Nanoseconds(),
				"p95": pct(0.95).Nanoseconds(),
				"p99": pct(0.99).Nanoseconds(),
				"max": all[total-1].Nanoseconds(),
			},
			Server:         server,
			Topology:       *topology,
			ProtoVersion:   protoVer,
			ServerHealth:   serverHealth,
			ResponseDigest: fmt.Sprintf("%016x", digest),
			OKNotDurable:   notDurable,
			Replay:         replay,
			Slowest:        slowest,
			Coalesce:       coalesce,
			Budget:         budget,
			ServerHistory:  serverHistory,
		}
		if replay != nil {
			rep.Clients = 1 // replay streams over a single connection
		}
		if len(fleet) > 0 {
			rep.Backends = map[string]*backendTally{}
			for id, ft := range fleet {
				rep.Backends[fmt.Sprintf("%d", id)] = ft
			}
		}
		if len(rejected) > 0 {
			rep.Rejected = map[string]int{}
			for c, n := range rejected {
				rep.Rejected[c.String()] = n
			}
		}
		if err := writeJSONReport(*jsonPath, &rep); err != nil {
			return fmt.Errorf("json report: %w", err)
		}
		fmt.Fprintf(stdout, "report written to %s\n", *jsonPath)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	if len(errs) > 0 || len(rejected) > 0 {
		n := 0
		for _, c := range rejected {
			n += c
		}
		return fmt.Errorf("%d client errors, %d rejected frames", len(errs), n)
	}
	return nil
}

// liveOptions carries the synthetic-load parameters into runLive.
type liveOptions struct {
	stop      time.Time
	interval  time.Duration
	driftBins int
	tofBins   int
	seed      int64
	path      acqserver.Path
	enc       frameio.Encoding
	deadline  time.Duration
	tracer    *trace.Tracer
}

// pacer times a client's requests open-loop: a paced request has a due
// instant fixed by the schedule — the previous due instant plus the gap, not
// the previous response plus the gap — and its latency is measured from that
// instant.  A server that stalls therefore pays for the requests it kept
// waiting behind the stall instead of hiding them (coordinated omission);
// bench/loadgen.go measures the same way.
type pacer struct {
	paced bool // false: every request is due the moment it is asked for
	due   time.Time
	now   func() time.Time
	sleep func(time.Duration)
}

// wait blocks until the next request, gap after the previous one, is due
// and returns the instant its latency counts from.  The first request of a
// run is due the moment it is asked for.
func (p *pacer) wait(gap time.Duration) time.Time {
	now := p.now()
	if !p.paced || p.due.IsZero() {
		p.due = now
		return now
	}
	p.due = p.due.Add(gap)
	if d := p.due.Sub(now); d > 0 {
		p.sleep(d)
	}
	return p.due
}

// runLive fans out one goroutine per clientStats entry, each driving its
// own connection with synthetic frames until opts.stop or ctx is done, and
// waits for all of them.
func runLive(ctx context.Context, addr string, stats []clientStats, opts liveOptions, wg *sync.WaitGroup) {
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &stats[i]
			st.rejected = map[acqserver.Code]int{}
			c, err := acqserver.Dial(addr, 5*time.Second)
			if err != nil {
				st.errs = append(st.errs, err)
				return
			}
			defer c.Close()
			// Encoded once: the timed latency holds no encoding.
			frame := syntheticFrame(opts.driftBins, opts.tofBins, opts.seed+int64(i))
			payload, err := acqserver.AppendFramePayload(nil, frame, opts.enc,
				acqserver.FrameOptions{Path: opts.path, Deadline: opts.deadline})
			if err != nil {
				st.errs = append(st.errs, err)
				return
			}
			pace := pacer{paced: opts.interval > 0, now: time.Now, sleep: time.Sleep}
			for time.Now().Before(opts.stop) && ctx.Err() == nil {
				reqStart := pace.wait(opts.interval)
				root := opts.tracer.StartTrace("client_request", 0)
				root.SetInt("client", int64(i))
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				resp, err := c.DoPayload(ctx, payload, root.TraceID())
				cancel()
				if err != nil {
					root.SetStr("error", err.Error())
					root.End()
					st.errs = append(st.errs, err)
					return
				}
				root.SetStr("code", resp.Code.String())
				if resp.Result != nil {
					root.SetInt("server_queue_wait_ns", int64(resp.Result.QueueWaitNs))
					root.SetInt("server_process_ns", int64(resp.Result.ProcessNs))
					st.server.add(resp.Result)
					st.tallyBackend(resp.Result)
					st.tallyResult(resp)
				}
				root.End()
				lat := time.Since(reqStart)
				st.latencies = append(st.latencies, lat)
				st.tallySlow(lat, resp.TraceID, resp.Code)
				switch resp.Code {
				case acqserver.CodeOK:
					st.ok++
				case acqserver.CodeResourceExhausted, acqserver.CodeUnavailable:
					st.shed++
				default:
					st.rejected[resp.Code]++
				}
			}
		}(i)
	}
	wg.Wait()
}

// runReplay streams every record of a captured frame log through one IMSP
// connection, pacing by the recorded inter-frame gaps divided by rate, and
// tallies responses into st exactly like a live client.  It returns the
// replay summary for the report and the total payload bytes submitted.
// The payloads go out verbatim (DoPayload), so the daemon re-decodes the
// exact bytes it accepted during the capture — which is what makes the
// response digest comparable across the two runs.
func runReplay(stdout io.Writer, addr, dir string, rate float64, st *clientStats, tracer *trace.Tracer) (*replayBlock, int64, error) {
	infos, err := framelog.ListSegments(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("replay %s: %w", dir, err)
	}
	blk := &replayBlock{Dir: filepath.Clean(dir), Segments: len(infos), RateMultiplier: rate}
	for _, si := range infos {
		if si.Records == 0 {
			continue
		}
		if blk.Records == 0 {
			blk.FirstSeq = si.FirstSeq
		}
		blk.LastSeq = si.LastSeq
		blk.Records += int64(si.Records)
	}
	if blk.Records == 0 {
		return nil, 0, fmt.Errorf("replay %s: no records in %d segment(s)", dir, len(infos))
	}
	fmt.Fprintf(stdout, "imsload: replaying %d records (seq %d..%d, %d segments) from %s at %gx recorded rate\n",
		blk.Records, blk.FirstSeq, blk.LastSeq, blk.Segments, blk.Dir, rate)

	c, err := acqserver.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, 0, fmt.Errorf("replay dial %s: %w", addr, err)
	}
	defer c.Close()

	var bytes int64
	var prevTs int64
	stopped := false
	pace := pacer{paced: rate > 0, now: time.Now, sleep: time.Sleep}
	for _, si := range infos {
		if _, err := framelog.ScanSegment(si.Path, func(rec framelog.Record) error {
			// Reproduce the recorded gap, scaled; cap any single gap so an
			// idle stretch in the capture cannot stall the replay for
			// minutes.
			var gap time.Duration
			if pace.paced {
				gap = min(time.Duration(float64(max(rec.Time-prevTs, 0))/rate), time.Second)
			}
			prevTs = rec.Time
			reqStart := pace.wait(gap)

			root := tracer.StartTrace("replay_request", rec.SID)
			root.SetInt("wal_seq", int64(rec.Seq))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			resp, err := c.DoPayload(ctx, rec.Payload, rec.SID)
			cancel()
			if err != nil {
				root.SetStr("error", err.Error())
				root.End()
				st.errs = append(st.errs, fmt.Errorf("replay seq %d: %w", rec.Seq, err))
				stopped = true
				return err
			}
			root.SetStr("code", resp.Code.String())
			if resp.Result != nil {
				st.server.add(resp.Result)
				st.tallyBackend(resp.Result)
				st.tallyResult(resp)
			}
			root.End()
			lat := time.Since(reqStart)
			st.latencies = append(st.latencies, lat)
			st.tallySlow(lat, resp.TraceID, resp.Code)
			bytes += int64(len(rec.Payload))
			switch resp.Code {
			case acqserver.CodeOK:
				st.ok++
			case acqserver.CodeResourceExhausted, acqserver.CodeUnavailable:
				st.shed++
			default:
				st.rejected[resp.Code]++
			}
			return nil
		}); err != nil {
			if !stopped {
				st.errs = append(st.errs, fmt.Errorf("replay scan %s: %w", si.Path, err))
			}
			break
		}
	}
	return blk, bytes, nil
}

// awaitReady polls url until it answers 200, backing off from 100 ms to
// 2 s between attempts, and returns the final response body (the daemon's
// ReadyReport JSON).  It fails once timeout elapses, reporting the last
// status or transport error so the operator knows what it was stuck on.
func awaitReady(url string, timeout time.Duration) (json.RawMessage, error) {
	deadline := time.Now().Add(timeout)
	backoff := 100 * time.Millisecond
	var lastErr error
	for {
		body, err := fetchOnce(url)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if !time.Now().Add(backoff).Before(deadline) {
			return nil, fmt.Errorf("%s not ready after %v: %v", url, timeout, lastErr)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// fetchOnce performs one bounded GET, demanding a 200.
func fetchOnce(url string) (json.RawMessage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %s", resp.Status, firstLine(body))
	}
	return json.RawMessage(body), nil
}

// firstLine trims a response body to its first line for error messages.
func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// writeJSONReport writes the run report, indented, to path.
func writeJSONReport(path string, rep *report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syntheticFrame builds a multiplexed-looking frame: pseudorandom counts
// with a few hot drift rows so the deconvolved profile has real peaks.
func syntheticFrame(driftBins, tofBins int, seed int64) *instrument.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := instrument.NewFrame(driftBins, tofBins)
	for i := range f.Data {
		f.Data[i] = float64(rng.Intn(8))
	}
	for h := 0; h < 3; h++ {
		row := rng.Intn(driftBins)
		for t := 0; t < tofBins; t++ {
			f.Set(row, t, float64(200+rng.Intn(100)))
		}
	}
	return f
}
