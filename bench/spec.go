package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/acqserver"
	"repro/internal/frameio"
)

// metricDef names one reported number.  Names, units and directions here
// are the source BENCHMARK.json is checked against (bench_test.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the serving stack sees.  Every
// workload reports every one of them and none is ever zero; their bounds
// live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"throughput_fps", "frames/s", "higher"}, // closed phase: correct OK frames/s, best half-second slice
	{"latency_p50_ms", "ms", "lower"},        // open phase: due instant to response, median per slice of >= 100 arrivals, best slice
	{"latency_p90_ms", "ms", "lower"},        // open phase: due instant to response, 90th percentile per slice, best slice
	{"cpu_ms_per_frame", "ms", "lower"},      // closed phase: process user+sys CPU per correct frame, server and generator (best half-second slice)
	{"alloc_kb_per_frame", "KiB", "lower"},   // closed phase: bytes allocated per frame
	{"allocs_per_frame", "count", "lower"},   // closed phase: heap objects allocated per frame
	{"live_heap_mb", "MiB", "lower"},         // HeapInuse after a forced GC at the end of the closed phase, servers up
	{"setup_s", "s", "lower"},                // frame generation + reference decode + log pre-fill + topology start until first OK (each stage's fastest of the set-ups in one run, summed)
}

// Workload-specific headline numbers.  The issue lists them as end-to-end
// metrics; they are declared per-layer in BENCHMARK.json because the driver
// requires every end-to-end metric on every workload and never zero.
const (
	metricRealtimeMargin = "hybrid.realtime_margin"
	metricRecoveryFPS    = "framelog.recovery_fps"
	metricFailedShare    = "loadgen.failed_share"
)

// perLayer are the single-layer metrics (layer = package name).  A layer
// that is not on a workload's path reports 0 there.
var perLayer = []metricDef{
	{"frameio.read_us_per_frame", "us", "lower"},        // frameio.ReadLimited on the workload's wire bytes, median
	{"frameio.read_alloc_kb_per_frame", "KiB", "lower"}, // bytes allocated by one ReadLimited
	{"frameio.read_allocs_per_frame", "count", "lower"}, // objects allocated by one ReadLimited
	{"frameio.wire_bytes_per_frame", "bytes", "lower"},  // mean encoded payload size of the pool (exact)
	{"frameio.write_us_per_frame", "us", "lower"},       // frameio.Write in the workload's encoding, median

	{"hadamard.decode_batch_ns_per_col", "ns", "lower"}, // 16-lane FHTDecoder.DecodeBatch per column
	{"hadamard.gflops", "GFLOP/s", "higher"},            // N*log2(N) add/sub per column over decode_batch time

	{"instrument.gather_scatter_ns_per_col", "ns", "lower"}, // GatherColumns+ScatterColumns per column
	{"instrument.computed_bytes_per_col", "bytes", "lower"}, // bytes moved by gather+scatter per column, computed from tile sizes

	{"pipeline.deconvolve_us_per_frame", "us", "lower"}, // the server's deconvolve call on one frame (per frame of the batch on the coalesced path)
	{"pipeline.deconvolve_ns_per_col", "ns", "lower"},   // the same per column
	{"pipeline.allocs_per_frame", "count", "lower"},     // objects allocated by one DeconvolveFrameIntoContext
	{"pipeline.alloc_kb_per_frame", "KiB", "lower"},     // bytes allocated by one DeconvolveFrameIntoContext
	{"pipeline.multiframe_ns_per_col", "ns", "lower"},   // DeconvolveFramesIntoContext over 8 narrow frames, per column
	{"pipeline.overhead_share", "ratio", "lower"},       // 1 - kernel time / single-worker frame time

	{"fpga.deconvolve_batch_ns_per_col", "ns", "lower"}, // fixed-point FHTCore.DeconvolveBatch per column
	{"fpga.saturations_per_frame", "count", "lower"},    // fixed-point overflow events per frame (exact)

	{"hybrid.offload_us_per_frame", "us", "lower"},    // Offloader.DeconvolveFrameInto, median
	{"hybrid.simulated_us_per_frame", "us", "lower"},  // modeled XD1 time per frame (exact)
	{"hybrid.model_overhead_share", "ratio", "lower"}, // 1 - fpga core time / offload time
	{metricRealtimeMargin, "ratio", "higher"},         // instrument cycle duration / mean Result.SimulatedNs (exact; fpga_hybrid_wide)

	{"peaks.detect_us_per_frame", "us", "lower"}, // drift profile + peaks.Detect + sort, median

	{"framelog.append_us_per_frame", "us", "lower"},     // Log.Append on a scratch log with the workload's policy, median
	{"framelog.disk_bytes_per_frame", "bytes", "lower"}, // scratch log directory size per appended record
	{"framelog.fsyncs_per_frame", "count", "lower"},     // framelog_fsync_total / appended records on the live log
	{"framelog.scan_us_per_record", "us", "lower"},      // Reader.Next over the scratch log, mean
	{"framelog.open_ms", "ms", "lower"},                 // framelog.Open of the pre-filled recovery log
	{metricRecoveryFPS, "frames/s", "higher"},           // recovery records / time from framelog.Open to last record completed (durable_wal_wide)

	{"acqserver.roundtrip_us_p50", "us", "lower"},      // serial DoPayload round trip on the live topology, median
	{"acqserver.queue_wait_us_p50", "us", "lower"},     // Result.QueueWaitNs in the open phase, median
	{"acqserver.queue_wait_us_p90", "us", "lower"},     // Result.QueueWaitNs in the open phase, 90th percentile
	{"acqserver.process_us_p50", "us", "lower"},        // Result.ProcessNs in the open phase, median
	{"acqserver.result_codec_us", "us", "lower"},       // EncodeResult + DecodeResult, median
	{"acqserver.unattributed_us", "us", "lower"},       // round trip minus the layer calls on its path
	{"acqserver.unattributed_share", "ratio", "lower"}, // unattributed / round trip
	{"acqserver.shed_share", "ratio", "lower"},         // RESOURCE_EXHAUSTED responses / attempted
	{"acqserver.coalesce_fill_p50", "count", "higher"}, // frames per coalesced batch, median
	{"acqserver.coalesce_wait_us_p50", "us", "lower"},  // time a batch spent gathering, median

	{"gateway.hop_us_p50", "us", "lower"},           // serial round trip via the gateway minus direct to a backend
	{"gateway.retries_per_frame", "count", "lower"}, // sibling retries per frame
	{"gateway.backend_skew", "ratio", "lower"},      // max / min frames per backend

	{"telemetry.metrics_overhead_share", "ratio", "lower"}, // cpu_ms_per_frame with registries on / off - 1

	{"loadgen.max_late_ms", "ms", "lower"},        // latest open-phase send after its due instant
	{"loadgen.latency_p99_ms", "ms", "lower"},     // open phase 99th percentile (diagnostic)
	{"loadgen.latency_max_ms", "ms", "lower"},     // open phase maximum (diagnostic)
	{"loadgen.peak_rss_mb", "MiB", "lower"},       // process peak resident set
	{"loadgen.cpu_steal_share", "ratio", "lower"}, // share of the machine's CPU time the hypervisor gave away during the run (/proc/stat)
	{metricFailedShare, "ratio", "lower"},         // failed / attempted over the closed and open phases
}

// workload is one traffic mix; BENCHMARK.json and the README say why each
// exists.  Rates are constants: they were sized once against seed
// throughput (README "How the rates were sized") and never scale with
// measured capacity.
type workload struct {
	Name string
	// Path is the compute backend every request selects.
	Path acqserver.Path
	// TOFBins is the m/z width of the pool frames (256 wide, 64 narrow).
	TOFBins int
	// Encodings are applied by pool frame index, round robin.
	Encodings []frameio.Encoding
	// WAL puts a framelog on the ack path and adds the recovery phase.
	WAL bool
	// Gateway fronts two coalescing backends with a gateway.
	Gateway bool
	// InFlight is the closed-phase requests in flight per connection.
	InFlight int
	// Rate is the open-phase arrival rate, frames/s; Burst > 1 sends that
	// many back to back at the same due instant.
	Rate  float64
	Burst int
}

var workloads = []workload{
	{
		Name: "ingest_cpu_wide",
		Path: acqserver.PathCPU, TOFBins: 256, Encodings: []frameio.Encoding{frameio.Delta},
		InFlight: 1, Rate: 150, Burst: 1,
	},
	{
		Name: "fpga_hybrid_wide",
		Path: acqserver.PathHybrid, TOFBins: 256, Encodings: []frameio.Encoding{frameio.Delta},
		InFlight: 1, Rate: 60, Burst: 1,
	},
	{
		Name: "durable_wal_wide",
		Path: acqserver.PathCPU, TOFBins: 256, Encodings: []frameio.Encoding{frameio.Delta},
		WAL: true, InFlight: 1, Rate: 100, Burst: 1,
	},
	{
		Name: "fleet_narrow_bursty",
		Path: acqserver.PathCPU, TOFBins: 64, Encodings: []frameio.Encoding{frameio.Delta, frameio.Raw},
		Gateway: true, InFlight: 4, Rate: 240, Burst: 8,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// bounds returns the end-to-end bound of each metric, by name.
func (s *benchSpec) bounds() map[string]specMetric {
	out := make(map[string]specMetric, len(s.EndToEnd))
	for _, m := range s.EndToEnd {
		out[m.Name] = m
	}
	return out
}
