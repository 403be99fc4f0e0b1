#!/bin/sh
# obs-smoke.sh: end-to-end observability-plane smoke test.
#
# Starts imsd with the full observability surface on (flight recorder +
# dump dir, a deliberately impossible latency SLO so the health evaluator
# must degrade, continuous profiling, dedicated pprof port, build_info
# stamped via ldflags), drives a traced imsload burst, then asserts the
# joins that make the plane useful rather than merely present:
#
#   1. a histogram exemplar's trace id resolves to a wide event on
#      /debug/events (the metrics -> events pivot),
#   2. the forced SLO degradation tripped a flight-recorder black-box
#      dump with events in it,
#   3. build_info carries the ldflags-stamped version,
#   4. the imsload -json report names its slowest requests by trace id,
#   5. `go tool pprof` reads the on-disk profile ring back,
#   6. an imsgw in front reports the backend up on /metrics/fleet,
#   7. both daemons drain cleanly on SIGTERM.
#
# Phase 2 exercises the embedded metric history store and the anomaly
# SLO (PR 10): a fresh imsd runs with -history and a fast sampler, a
# baseline burst warms the anomaly detector, an injected latency spike
# (64x the frame size) must flip anomaly_active{target=frame_latency_p99}
# and degrade health, then the daemon is SIGKILLed and restarted on the
# same history directory — /metrics/history must serve a continuous
# acq_process_ns p99 spanning both lifetimes, and the post-restart
# imsload -json report must carry the server_history block.
#
# With OBS_SMOKE_DIR set, artifacts (logs, dumps, profiles, report, the
# tsdb directory) are written there instead of a throwaway mktemp dir, so
# CI can upload them on failure.
set -eu

GO=${GO:-go}
PORT=${SMOKE_PORT:-17075}
MPORT=$((PORT + 1))
PPROF_PORT=$((PORT + 2))
GW_PORT=$((PORT + 3))
GW_MPORT=$((PORT + 4))
VERSION=obs-smoke

if [ -n "${OBS_SMOKE_DIR:-}" ]; then
    TMP=$OBS_SMOKE_DIR
    mkdir -p "$TMP"
    KEEP_TMP=1
else
    TMP=$(mktemp -d)
    KEEP_TMP=0
fi
DAEMON_PID=""
GW_PID=""
H_PID=""

cleanup() {
    for pid in "$DAEMON_PID" "$GW_PID" "$H_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    if [ "$KEEP_TMP" -eq 0 ]; then
        rm -rf "$TMP"
    fi
}
trap cleanup EXIT

echo "obs-smoke: building binaries (version stamp: $VERSION)"
$GO build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$TMP/imsd" ./cmd/imsd
$GO build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$TMP/imsgw" ./cmd/imsgw
$GO build -o "$TMP/imsload" ./cmd/imsload
$GO build -o "$TMP/obscheck" ./scripts/obscheck
$GO build -o "$TMP/httpget" ./scripts/httpget

echo "obs-smoke: starting imsd on 127.0.0.1:$PORT (impossible SLO, profiling on)"
"$TMP/imsd" -addr "127.0.0.1:$PORT" -metrics "127.0.0.1:$MPORT" \
    -pprof "127.0.0.1:$PPROF_PORT" \
    -events 1024 -events-dump "$TMP/dumps" \
    -slo-latency 1ns -health-interval 200ms \
    -profile-dir "$TMP/profiles" -profile-cpu 500ms -profile-interval 500ms -profile-retain 4 \
    -drain-timeout 10s >"$TMP/imsd.log" 2>&1 &
DAEMON_PID=$!

"$TMP/httpget" -expect 200 -for 5s "http://127.0.0.1:$MPORT/healthz" >/dev/null || {
    echo "obs-smoke: FAIL — imsd never became live"; cat "$TMP/imsd.log"; exit 1; }

echo "obs-smoke: starting imsgw on 127.0.0.1:$GW_PORT over the backend"
"$TMP/imsgw" -addr "127.0.0.1:$GW_PORT" -metrics "127.0.0.1:$GW_MPORT" \
    -backends "127.0.0.1:$PORT@http://127.0.0.1:$MPORT/readyz" \
    -probe-interval 100ms -drain-timeout 10s >"$TMP/imsgw.log" 2>&1 &
GW_PID=$!

"$TMP/httpget" -expect 200 -for 5s "http://127.0.0.1:$GW_MPORT/readyz" >/dev/null || {
    echo "obs-smoke: FAIL — imsgw never became ready"; cat "$TMP/imsgw.log"; exit 1; }

echo "obs-smoke: traced 2s burst, 4 clients"
if ! "$TMP/imsload" -addr "127.0.0.1:$PORT" -clients 4 -duration 2s -tof 128 \
    -json "$TMP/report.json" -trace "$TMP/client-trace.json" >"$TMP/imsload.log" 2>&1; then
    echo "obs-smoke: FAIL — imsload reported errors"
    cat "$TMP/imsload.log" "$TMP/imsd.log"
    exit 1
fi

echo "obs-smoke: asserting exemplar -> wide-event join"
"$TMP/obscheck" join -metrics "http://127.0.0.1:$MPORT/metrics.json" \
    -events "http://127.0.0.1:$MPORT/debug/events"

echo "obs-smoke: asserting build_info version stamp"
"$TMP/obscheck" buildinfo -metrics "http://127.0.0.1:$MPORT/metrics.json" -version "$VERSION"
"$TMP/obscheck" buildinfo -metrics "http://127.0.0.1:$GW_MPORT/metrics.json" -version "$VERSION"

echo "obs-smoke: asserting the fleet rollup sees the backend"
"$TMP/obscheck" fleet -url "http://127.0.0.1:$GW_MPORT/metrics/fleet" -min-up 1

echo "obs-smoke: asserting the dedicated pprof port answers"
"$TMP/httpget" -expect 200 "http://127.0.0.1:$PPROF_PORT/debug/pprof/cmdline" >/dev/null

echo "obs-smoke: asserting the slowest-request trace ids in the report"
if ! grep -q '"slowest_requests"' "$TMP/report.json"; then
    echo "obs-smoke: FAIL — report lacks slowest_requests"; cat "$TMP/report.json"; exit 1
fi
if ! grep -Eq '"trace_id": *"[0-9a-f]{16}"' "$TMP/report.json"; then
    echo "obs-smoke: FAIL — slowest_requests carry no trace ids"; cat "$TMP/report.json"; exit 1
fi

# The impossible SLO may burn through DEGRADED straight to UNHEALTHY
# within one health tick; either transition must have tripped a dump.
echo "obs-smoke: waiting for the forced SLO degradation to dump the flight recorder"
i=0
until "$TMP/obscheck" dump -dir "$TMP/dumps" -reason degraded 2>/dev/null ||
    "$TMP/obscheck" dump -dir "$TMP/dumps" -reason unhealthy 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "obs-smoke: FAIL — no degraded black-box dump appeared"
        ls -l "$TMP/dumps" 2>/dev/null || true
        cat "$TMP/imsd.log"
        exit 1
    fi
    sleep 0.1
done

echo "obs-smoke: summarizing the profile ring"
i=0
until [ -n "$(ls "$TMP/profiles"/heap-*.pprof 2>/dev/null)" ]; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: FAIL — no heap captures in the profile ring"; cat "$TMP/imsd.log"; exit 1
    fi
    sleep 0.1
done
if ! $GO tool pprof -top -nodecount=3 "$TMP"/profiles/heap-*.pprof >"$TMP/pprof-top.txt" 2>&1 ||
    ! grep -q "flat%" "$TMP/pprof-top.txt"; then
    echo "obs-smoke: FAIL — go tool pprof produced no summary"; cat "$TMP/pprof-top.txt"; exit 1
fi

echo "obs-smoke: draining imsgw"
kill -TERM "$GW_PID"
rc=0
wait "$GW_PID" || rc=$?
GW_PID=""
if [ "$rc" -ne 0 ]; then
    echo "obs-smoke: FAIL — imsgw exited $rc"; cat "$TMP/imsgw.log"; exit 1
fi

echo "obs-smoke: draining imsd"
kill -TERM "$DAEMON_PID"
rc=0
wait "$DAEMON_PID" || rc=$?
DAEMON_PID=""
if [ "$rc" -ne 0 ]; then
    echo "obs-smoke: FAIL — imsd exited $rc"; cat "$TMP/imsd.log"; exit 1
fi

# ---------------------------------------------------------------------------
# Phase 2: metric history store + anomaly SLO.
# ---------------------------------------------------------------------------
H_PORT=$((PORT + 5))
H_MPORT=$((PORT + 6))

start_history_daemon() {
    "$TMP/imsd" -addr "127.0.0.1:$H_PORT" -metrics "127.0.0.1:$H_MPORT" \
        -history "$TMP/tsdb" -history-interval 250ms \
        -anomaly-threshold 3 -anomaly-warmup 4 \
        -health-interval 200ms -drain-timeout 10s >>"$TMP/imsd-history.log" 2>&1 &
    H_PID=$!
    "$TMP/httpget" -expect 200 -for 5s "http://127.0.0.1:$H_MPORT/healthz" >/dev/null || {
        echo "obs-smoke: FAIL — history imsd never became live"
        cat "$TMP/imsd-history.log"; exit 1; }
}

echo "obs-smoke: phase 2 — starting imsd with -history on 127.0.0.1:$H_PORT"
start_history_daemon

echo "obs-smoke: baseline burst (small frames) to warm the anomaly detector"
"$TMP/imsload" -addr "127.0.0.1:$H_PORT" -clients 2 -duration 2s -tof 64 -path cpu \
    >"$TMP/imsload-baseline.log" 2>&1 || {
    echo "obs-smoke: FAIL — baseline burst errored"; cat "$TMP/imsload-baseline.log"; exit 1; }
sleep 1

echo "obs-smoke: injected latency spike (64x frame size) must flip the anomaly SLO"
# The episode is polled for while the spike runs, not after it: the detector
# re-learns a sustained shift within about ten samples, by design.
"$TMP/imsload" -addr "127.0.0.1:$H_PORT" -clients 2 -duration 3s -tof 4096 -path cpu \
    >"$TMP/imsload-spike.log" 2>&1 &
SPIKE_PID=$!
"$TMP/obscheck" anomaly -metrics "http://127.0.0.1:$H_MPORT/metrics.json" \
    -target frame_latency_p99 -want 1 -for 10s || {
    echo "obs-smoke: FAIL — latency spike never flipped anomaly_active"
    "$TMP/httpget" "http://127.0.0.1:$H_MPORT/metrics.json" | grep anomaly || true
    cat "$TMP/imsd-history.log"; exit 1; }
wait "$SPIKE_PID" || {
    echo "obs-smoke: FAIL — spike burst errored"; cat "$TMP/imsload-spike.log"; exit 1; }

echo "obs-smoke: SIGKILL the daemon mid-flight, restart on the same history dir"
KILL_TS=$(date +%s)
kill -9 "$H_PID" 2>/dev/null || true
wait "$H_PID" 2>/dev/null || true
H_PID=""
start_history_daemon

echo "obs-smoke: post-restart burst (report must gain server_history)"
if ! "$TMP/imsload" -addr "127.0.0.1:$H_PORT" -clients 2 -duration 2s -tof 64 -path cpu \
    -metrics "http://127.0.0.1:$H_MPORT/metrics.json" \
    -json "$TMP/report-history.json" >"$TMP/imsload-after.log" 2>&1; then
    echo "obs-smoke: FAIL — post-restart burst errored"; cat "$TMP/imsload-after.log"; exit 1
fi
if ! grep -q '"server_history"' "$TMP/report-history.json"; then
    echo "obs-smoke: FAIL — report lacks server_history"; cat "$TMP/report-history.json"; exit 1
fi

echo "obs-smoke: asserting history is continuous across the SIGKILL"
"$TMP/obscheck" history -url "http://127.0.0.1:$H_MPORT/metrics/history" \
    -family acq_process_ns -quantile 0.99 -since -10m -min-points 2 \
    -span-unix "$KILL_TS" -for 10s || {
    echo "obs-smoke: FAIL — no continuous acq_process_ns history across restart"
    ls -lR "$TMP/tsdb" 2>/dev/null || true
    cat "$TMP/imsd-history.log"; exit 1; }

echo "obs-smoke: draining the history daemon"
kill -TERM "$H_PID"
rc=0
wait "$H_PID" || rc=$?
H_PID=""
if [ "$rc" -ne 0 ]; then
    echo "obs-smoke: FAIL — history imsd exited $rc"; cat "$TMP/imsd-history.log"; exit 1
fi

echo "obs-smoke: OK"
