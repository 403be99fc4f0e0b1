# Quality gates for the reproduction.  `make check` is the full suite the
# CI (and every PR) must keep green.

GO ?= go

# Build stamping: the buildinfo package's Version/Commit are injected via
# ldflags so every binary's build_info metric names the build it came
# from (cmd/imsd's TestServeTraceAndDrain and cmd/imsgw's
# TestFrontFleetAndDrain set buildinfo.Version and read it back off
# build_info).
VERSION ?= dev
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS = -X repro/internal/buildinfo.Version=$(VERSION) -X repro/internal/buildinfo.Commit=$(COMMIT)

# Packages whose exported identifiers must all carry doc comments: the
# telemetry layer, the instrumented entry points it is wired through, and
# the serving stack.
DOCLINT_DIRS = internal/telemetry internal/telemetry/trace \
               internal/telemetry/health internal/telemetry/runtimemetrics \
               internal/telemetry/flightrec internal/telemetry/profiler \
               internal/telemetry/tsdb \
               internal/buildinfo internal/daemon \
               internal/pipeline internal/hybrid internal/butterfly \
               internal/fpga internal/xd1 internal/acqserver \
               internal/gateway internal/frameio internal/framelog internal/seglog \
               internal/core

# Markdown files whose relative links `make docs-verify` must keep alive.
DOCS_MD = README.md docs/ARCHITECTURE.md docs/CLUSTER.md \
          docs/DURABILITY.md docs/OBSERVABILITY.md docs/PERFORMANCE.md \
          docs/SERVING.md

.PHONY: check fmt vet build test test-purego docslint docs-verify fuzz-short bench bench-json bench-diff bench-smoke allocgate

check: fmt vet build test test-purego docslint docs-verify allocgate fuzz-short bench-diff bench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The arm64 cross-build (pure Go, nothing to download) keeps the
# no-assembly stub of internal/butterfly compiling.
build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...
	GOARCH=arm64 $(GO) build ./...

# Every package's tests under the race detector, the daemons end to end
# among them: cmd/imsd, cmd/imsgw, cmd/imsload, cmd/imstop and
# cmd/framedump run their binaries' code in process over loopback, with
# injected signals and test-driven clocks.
test:
	$(GO) test -race ./...

# Assembly compiled out: under the purego tag internal/butterfly's AVX2
# kernels (the network, and the fixed-point model's integer tile step:
# quantize and row reduce) are not built, so the generic Go code and the
# fallbacks — what every non-amd64 or pre-AVX2 machine runs — carry their
# own suites and the suites of everything that decodes through them, the
# served CPU path's transform and the hybrid path included, even on an
# AVX2 box.
test-purego:
	$(GO) test -tags purego ./internal/butterfly ./internal/hadamard \
		./internal/fpga ./internal/pipeline ./internal/hybrid \
		./internal/acqserver

# Doc-comment hygiene on the listed packages, plus the metric-catalogue
# gate: every telemetry family registered in code must be documented in
# docs/OBSERVABILITY.md.
docslint:
	$(GO) run ./scripts/docslint -metrics-doc docs/OBSERVABILITY.md $(DOCLINT_DIRS)

# Docs consistency: docslint plus the relative-link checker over the
# operator docs — a renamed file or typo'd cross-reference fails here.
docs-verify: docslint
	$(GO) run ./scripts/linkcheck $(DOCS_MD)

# Short coverage-guided passes over the binary-format readers — the frame
# decoder (its round-trip invariant, and agreement with the byte-at-a-time
# reference decoder on arbitrary bytes) and the two segment scanners on
# internal/seglog, the frame log's and the metric history's (CRCs
# recomputed so mutations reach its decoders, healing rescanned), so
# regressions in the header, CRC and decode guards surface before they
# reach the wire or a recovery pass — over the network-facing
# IMSP decoders and the session reader both daemons run behind them, over
# the two HTTP query parsers of the observability plane (/debug/events
# and /metrics/history: 200 or 400, 500 only from the store, a 200 body
# in its documented shape), and
# over the three kernel equivalences: the butterfly network (every element
# type, both backends) against the scalar transforms, the fixed-point tile
# path (the plain network under the headroom bound, saturating levels
# otherwise) against the scalar core at the saturation edge, and the CPU
# path's served profile — one transform of the frame's row sums — against
# the frame decoded column by column, on counts at the int32 edges and on
# fractional cells.
fuzz-short:
	$(GO) test ./internal/frameio -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 5s
	$(GO) test ./internal/frameio -run '^$$' -fuzz '^FuzzReadMatchesReference$$' -fuzztime 5s
	$(GO) test ./internal/framelog -run '^$$' -fuzz FuzzSegmentRead -fuzztime 5s
	$(GO) test ./internal/telemetry/tsdb -run '^$$' -fuzz '^FuzzChunkRead$$' -fuzztime 5s
	$(GO) test ./internal/telemetry/tsdb -run '^$$' -fuzz '^FuzzHistoryQuery$$' -fuzztime 5s
	$(GO) test ./internal/telemetry/flightrec -run '^$$' -fuzz '^FuzzEventsQuery$$' -fuzztime 5s
	$(GO) test ./internal/acqserver -run '^$$' -fuzz '^FuzzWireDecoders$$' -fuzztime 5s
	$(GO) test ./internal/acqserver -run '^$$' -fuzz '^FuzzSessionReader$$' -fuzztime 5s
	$(GO) test ./internal/butterfly -run '^$$' -fuzz '^FuzzBlockMatchesScalar$$' -fuzztime 5s
	$(GO) test ./internal/fpga -run '^$$' -fuzz '^FuzzDeconvolveTileMatchesScalar$$' -fuzztime 5s
	$(GO) test ./internal/acqserver -run '^$$' -fuzz '^FuzzServedProfileMatchesColumns$$' -fuzztime 5s

# The ingest-to-ack benchmark (bench/, a module of its own that the root
# `go test ./...` does not reach): its unit tests, then every phase of
# every topology in a few seconds with all responses checked.  Builds
# into .bench_build/ and writes bench/out/ (both git-ignored).
bench-smoke:
	cd bench && $(GO) test ./...
	bash bench/run.sh -smoke

# The nil-registry overhead contract (<5 ns/op, 0 allocs/op on the nil
# path) and the disabled-tracer contract (<10 ns/op, 0 allocs/op across
# six span sites).
bench:
	$(GO) test ./internal/telemetry -run XXX -bench TelemetryOverhead -benchmem
	$(GO) test ./internal/telemetry/trace -run XXX -bench TraceOverhead -benchmem

# The zero-steady-state-allocation contract of the data plane
# (docs/PERFORMANCE.md): the testing.AllocsPerRun gates across the
# hadamard kernels, the pipeline block decoder, the frame codec decoding
# into a supplied frame, the fixed-point core (scalar, tile and strided
# entry points, storing and reducing), the hybrid offloader (storing and
# reducing into a drift profile, each pinned at its 2 objects of per-frame
# report bookkeeping), the telemetry hot path (Observe stays 0-alloc with
# rolling windows on) and the frame-log append submission path, plus the
# serving path's per-frame budget end to end on both compute paths
# (acqserver TestServeFrameAllocs: CPU <= 2.8 KiB and <= 26 objects per
# frame, 29 through the coalescer; hybrid <= 3.5 KiB and <= 39).
allocgate:
	$(GO) test ./internal/hadamard ./internal/pipeline ./internal/fpga \
		./internal/hybrid ./internal/telemetry ./internal/framelog \
		./internal/frameio ./internal/acqserver \
		-run 'Allocs|DeconvolveToMatchesDeconvolve' -count=1

# Refresh the decode-path benchmark ledger: the Micro* data-path
# benchmarks (frame codec on synthetic and acquired frames, the store-mode
# decode and the served row-sum profile) plus the E3/E4 experiment benchmarks, the butterfly
# network per element type and backend, the float decoders and tile steps,
# the noise estimate, the fixed-point tile path, the one-shot offload
# (construction included) and the served one (a reused offloader on a
# 511 × 256 frame, storing then re-reading vs reducing to the profile),
# parsed into $(BENCH_OUT) under the "after" label with the machine
# and butterfly backend they ran on (see scripts/benchjson).  BENCH_OUT
# names the ledger of the PR being measured and has no default: a run
# merges into the file it is given.
bench-json:
	@test -n "$(BENCH_OUT)" || { echo "bench-json: give the ledger to write, e.g. make bench-json BENCH_OUT=BENCH_PR19.json"; exit 1; }
	$(GO) test -run XXX -bench 'Micro|E3FPGAvsCPU|E4CPUScaling' -benchmem . | \
		$(GO) run ./scripts/benchjson -label after -out $(BENCH_OUT)
	$(GO) test -run XXX -bench . -benchmem ./internal/butterfly | \
		$(GO) run ./scripts/benchjson -label after -out $(BENCH_OUT)
	$(GO) test -run XXX -bench . -benchmem ./internal/hadamard | \
		$(GO) run ./scripts/benchjson -label after -out $(BENCH_OUT)
	$(GO) test -run XXX -bench 'NoiseMAD$$' -benchmem ./internal/peaks | \
		$(GO) run ./scripts/benchjson -label after -out $(BENCH_OUT)
	$(GO) test -run XXX -bench 'FHTCoreDeconvolveBatch$$|HybridDeconvolveFrame$$|OffloaderProfile' -benchmem \
		./internal/fpga ./internal/hybrid | \
		$(GO) run ./scripts/benchjson -label after -out $(BENCH_OUT)

# Decode-path regression gate: rerun the benchmark families the ledgers
# pin — the store-mode frame deconvolution and the blocked FWHT batch
# decode, plus the rungs the server runs: the served CPU profile of a
# counts frame, its row sums and one transform (MicroFrameProfile/profile),
# the pooled counts read of an acquired
# frame (MicroFrameIOReadDelta/acquired/pooled) and the served hybrid
# offload (OffloaderProfile/profile) — and fail if any allocates more than
# the "after" label of
# $(BENCH_BASELINE) — allocs/op or B/op up by more than 5 %
# (-max-regress; from a zero baseline any allocation fails) — by default
# the newest ledger, the version-sorted last BENCH_PR*.json.  The
# allocation figures repeat run to run to within a truncated mean's
# resolution; ns/op on a shared box does not (MicroFrameDeconvolve reads
# 600–830 µs from one binary), so its delta is printed, not gated (see
# scripts/benchjson -diff).
BENCH_BASELINE ?= $(lastword $(shell ls BENCH_PR*.json | sort -V))
bench-diff:
	{ $(GO) test -run XXX -bench 'MicroFrameDeconvolve$$' -benchmem . ; \
	  $(GO) test -run XXX -bench 'MicroFrameProfile$$/^profile$$' -benchmem . ; \
	  $(GO) test -run XXX -bench 'MicroFrameIOReadDelta$$/^acquired$$/^pooled$$' -benchmem . ; \
	  $(GO) test -run XXX -bench 'FHTDecodeBatch$$' -benchmem ./internal/hadamard ; \
	  $(GO) test -run XXX -bench 'OffloaderProfile$$/^profile$$' -benchmem ./internal/hybrid ; } | \
		$(GO) run ./scripts/benchjson -diff $(BENCH_BASELINE) \
			-match 'MicroFrameDeconvolve$$|FHTDecodeBatch$$|MicroFrameProfile/profile$$|MicroFrameIOReadDelta/acquired/pooled$$|OffloaderProfile/profile$$' -max-regress 5
