// Package gateway is the cluster front tier: an IMSP/2-speaking proxy
// (cmd/imsgw) that fans client sessions out over a fleet of imsd
// backends.  Everything below it — acqserver, the hybrid/CPU compute
// paths, health and tracing — is single-process; this package is what
// turns N of those processes into one service (docs/CLUSTER.md).
//
// Routing is consistent hashing: each gateway session is hashed onto a
// ring of virtual nodes (ring.go), so a session sticks to one backend
// while it lives, and a backend leaving the ring remaps only its own
// arcs.  Ring membership follows readiness: a prober per backend polls
// /readyz (backend.go), so a draining daemon — SIGTERM flips its
// /readyz 503 before connections die — leaves the ring ahead of any
// request loss, and a transport failure takes a backend out passively
// the moment it is observed.
//
// Frames are proxied raw: the gateway reads the FRAME payload off the
// client socket and forwards the bytes verbatim over a pooled,
// multiplexed upstream connection (acqserver.Client.DoPayload) without
// ever decoding the frame.  The client's trace id rides the IMSP/2
// header end to end, so gateway spans (gw_request → gw_upstream) and the
// backend's span tree (frame → worker → …) share one trace identity.
//
// A shed or failed upstream request is retried once on a sibling backend
// — the next distinct backend clockwise on the ring — under an explicit
// per-session retry budget; retries are annotated on the trace and
// counted under gw_retries_total.  RESULT payloads are re-encoded with a
// routing trailer (backend id, attempts) so clients can attribute every
// response to a fleet member.  All gateway behaviour is observable under
// the gw_* metric families (docs/OBSERVABILITY.md).
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acqserver"
	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/trace"
)

// Config names the fleet and wires the gateway into the daemon's
// observability plane.  The tuning is fixed: DefaultReplicas, the
// constants below, and acqserver.NewCore's session bounds.
type Config struct {
	// Backends is the imsd fleet, in a stable order: Result.Backend
	// reported to clients is the 1-based index into this list.
	Backends []BackendConfig
	// Metrics, when non-nil, receives the gw_* families.
	Metrics *telemetry.Registry
	// Trace, when non-nil, records a gateway span tree per proxied frame.
	Trace *trace.Tracer
	// FlightRecorder, when non-nil, receives one wide event per proxied
	// frame — recorded as the response goes downstream, carrying the
	// serving backend, attempt count and outcome — so an operator can ask
	// "which backend served the slow requests" from the gateway alone.
	FlightRecorder *flightrec.Recorder
	// Logger, when non-nil, receives structured session/routing events.
	Logger *slog.Logger

	// replicas, probeInterval and retryBudget, when nonzero, replace the
	// constants of those names (DefaultReplicas for the ring) — test
	// seams for a cheap ring, fast readiness flips and a budget a test
	// can spend.
	replicas      int
	probeInterval time.Duration
	retryBudget   int
}

// What the gateway fixes rather than takes from its Config.
const (
	// poolSize is the multiplexed upstream connections kept per backend.
	poolSize = 4
	// probeInterval is the readiness poll period per backend.
	probeInterval = time.Second
	// dialTimeout bounds one upstream dial (and the TCP fallback probe).
	dialTimeout = 3 * time.Second
	// upstreamTimeout bounds one proxied request against one backend; a
	// request that retries can take up to twice this.
	upstreamTimeout = 30 * time.Second
	// retryBudget is the sibling retries one client session may consume
	// over its lifetime.
	retryBudget = 64
	// maxInflight bounds the concurrently proxied frames per session; the
	// read loop blocks past it, pushing backpressure into the client's
	// socket instead of buffering without bound.
	maxInflight = 32
	// fallbackOrder is the m-sequence order advertised in HELLO_OK while
	// no backend is reachable to ask (a client that connects during a
	// full fleet outage still gets a well-formed handshake).
	fallbackOrder = 9
)

// DefaultConfig returns a Config with no backends; set Backends.
func DefaultConfig() Config { return Config{} }

// Validate reports the first unusable setting.
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return errors.New("gateway: no backends configured")
	}
	for i, b := range c.Backends {
		if b.Addr == "" {
			return fmt.Errorf("gateway: backend %d has no address", i)
		}
	}
	return nil
}

// gwMetrics bundles the gw_* telemetry handles, resolved once at
// construction (all nil on a nil registry — free to update).
type gwMetrics struct {
	sessionsTotal  *telemetry.Counter
	sessionsActive *telemetry.Gauge
	requests       []*telemetry.Counter // per backend
	upstreamNs     []*telemetry.Histogram
	backendReady   []*telemetry.Gauge
	responses      map[acqserver.Code]*telemetry.Counter
	retries        map[string]*telemetry.Counter
	shed           map[string]*telemetry.Counter
	ringRebuilds   *telemetry.Counter
	ringBackends   *telemetry.Gauge
	bytesIn        *telemetry.Counter
	bytesOut       *telemetry.Counter
	protocolErrs   *telemetry.Counter
}

// gwRetryOutcomes are the label values of gw_retries_total: a retry that
// recovered the request, one that did not, and a retry forgone because
// the session's budget was spent.
var gwRetryOutcomes = []string{"ok", "failed", "budget_exhausted"}

// gwShedReasons are the label values of gw_shed_total.
var gwShedReasons = []string{"no_backend", "draining"}

func newGwMetrics(reg *telemetry.Registry, backends []BackendConfig) gwMetrics {
	m := gwMetrics{
		sessionsTotal:  reg.Counter("gw_sessions_total", "client sessions accepted by the gateway"),
		sessionsActive: reg.Gauge("gw_sessions_active", "currently open gateway client sessions"),
		ringRebuilds:   reg.Counter("gw_ring_rebuilds_total", "consistent-hash ring rebuilds (readiness flips)"),
		ringBackends:   reg.Gauge("gw_ring_backends", "backends currently on the routing ring"),
		bytesIn:        reg.Counter("gw_bytes_in_total", "downstream wire bytes received (headers + payloads)"),
		bytesOut:       reg.Counter("gw_bytes_out_total", "downstream wire bytes sent (headers + payloads)"),
		protocolErrs:   reg.Counter("gw_protocol_errors_total", "malformed downstream messages and framing violations"),
		responses:      map[acqserver.Code]*telemetry.Counter{},
		retries:        map[string]*telemetry.Counter{},
		shed:           map[string]*telemetry.Counter{},
	}
	for _, b := range backends {
		l := telemetry.L("backend", b.Addr)
		m.requests = append(m.requests, reg.Counter("gw_requests_total", "frames proxied upstream per backend (attempts, including retries)", l))
		m.upstreamNs = append(m.upstreamNs, reg.Histogram("gw_upstream_ns", "upstream request latency per backend, nanoseconds", l).EnableExemplars())
		m.backendReady = append(m.backendReady, reg.Gauge("gw_backend_ready", "backend readiness as routed (1 on the ring, 0 off)", l))
	}
	for _, c := range []acqserver.Code{acqserver.CodeOK, acqserver.CodeInvalidArgument,
		acqserver.CodeResourceExhausted, acqserver.CodeDeadlineExceeded,
		acqserver.CodeUnavailable, acqserver.CodeInternal, acqserver.CodeTooLarge} {
		m.responses[c] = reg.Counter("gw_responses_total", "downstream responses sent per status code",
			telemetry.L("code", c.String()))
	}
	for _, o := range gwRetryOutcomes {
		m.retries[o] = reg.Counter("gw_retries_total", "sibling retry decisions per outcome",
			telemetry.L("outcome", o))
	}
	for _, r := range gwShedReasons {
		m.shed[r] = reg.Counter("gw_shed_total", "frames shed at the gateway, per reason",
			telemetry.L("reason", r))
	}
	return m
}

// Gateway is the cluster front tier: the shared IMSP core's accept loop,
// per-session read loops, and the shared routing ring.
type Gateway struct {
	acqserver.Core // listener, session reader, message writer

	cfg      Config
	backends []*backend
	m        gwMetrics
	tracer   *trace.Tracer
	flight   *flightrec.Recorder
	log      *slog.Logger

	ringMu  sync.RWMutex
	current *Ring

	stopc    chan struct{}
	stopOnce func()

	proberWG sync.WaitGroup
	sessWG   sync.WaitGroup
	proxyWG  sync.WaitGroup
	nextSess atomic.Uint64

	sessMu   sync.Mutex
	sessions map[*gwSession]struct{}

	// upstreamInfo caches the first successful backend handshake for
	// HELLO_OK synthesis.
	upstreamInfo atomic.Pointer[acqserver.ServerInfo]
}

// New validates the config and builds the gateway: backend pools, the
// initial ring (all backends optimistically ready until the first probe
// says otherwise), telemetry handles, and one prober per backend.  Call
// Serve to start accepting.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.DiscardLogger()
	}
	m := newGwMetrics(cfg.Metrics, cfg.Backends)
	g := &Gateway{
		cfg:      cfg,
		m:        m,
		tracer:   cfg.Trace,
		flight:   cfg.FlightRecorder,
		log:      log,
		stopc:    make(chan struct{}),
		sessions: map[*gwSession]struct{}{},
	}
	g.Core = acqserver.NewCore(g.startSession, m.bytesIn, m.bytesOut, m.protocolErrs)
	g.stopOnce = sync.OnceFunc(func() { close(g.stopc) })
	for i, bc := range cfg.Backends {
		b := &backend{
			id:     i,
			cfg:    bc,
			pool:   newClientPool(bc.Addr),
			labels: pprof.WithLabels(context.Background(), pprof.Labels("stage", "gw_upstream", "backend", bc.Addr)),
		}
		b.ready.Store(true)
		g.backends = append(g.backends, b)
	}
	g.rebuildRing()
	for _, b := range g.backends {
		g.proberWG.Add(1)
		go g.proberLoop(b)
	}
	return g, nil
}

// rebuildRing swaps in a ring over the currently-ready backends and
// refreshes the readiness gauges.  Reading the ready bits, building and
// publishing all happen under ringMu: were the bits read outside it, two
// probers flipping backends concurrently could publish the older snapshot
// last and leave a dead backend on the ring until the next flip.
func (g *Gateway) rebuildRing() {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	var ready []int
	for _, b := range g.backends {
		up := b.ready.Load()
		if up {
			ready = append(ready, b.id)
		}
		g.m.backendReady[b.id].Set(boolGauge(up))
	}
	g.current = BuildRing(ready, func(i int) string { return g.backends[i].cfg.Addr }, g.cfg.replicas)
	g.m.ringRebuilds.Inc()
	g.m.ringBackends.Set(float64(len(ready)))
}

// boolGauge renders a readiness bit for a gauge.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ring returns the current routing ring.
func (g *Gateway) ring() *Ring {
	g.ringMu.RLock()
	defer g.ringMu.RUnlock()
	return g.current
}

// ReadyBackends reports how many backends are on the routing ring — the
// gateway's own readiness signal (a gateway with zero ready backends can
// only shed).
func (g *Gateway) ReadyBackends() int { return g.ring().Backends() }

// Shutdown drains the gateway: stop accepting, answer new frames with
// UNAVAILABLE, wait for in-flight proxied requests to finish (their
// backends keep serving them), then close sessions, probers and upstream
// pools.  Returns nil on a complete drain or ctx.Err() after
// force-closing everything when the context expires first.
func (g *Gateway) Shutdown(ctx context.Context) error {
	if !g.StartDrain() {
		<-g.stopc
		return nil
	}

	err := func() error {
		done := make(chan struct{})
		go func() { g.proxyWG.Wait(); close(done) }()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}()

	g.sessMu.Lock()
	open := make([]*gwSession, 0, len(g.sessions))
	for sess := range g.sessions {
		open = append(open, sess)
	}
	g.sessMu.Unlock()
	for _, sess := range open {
		sess.teardown() // deregisters under sessMu itself; don't hold it here
	}
	g.stopOnce()
	g.proberWG.Wait()
	g.sessWG.Wait()
	for _, b := range g.backends {
		b.pool.closeAll()
	}
	return err
}

// serverInfo synthesizes the HELLO_OK summary for a downstream client:
// the cached (or freshly fetched) upstream handshake with the negotiated
// version and the gateway's own payload bound applied, or fleet-outage
// fallbacks when no backend is reachable.
func (g *Gateway) serverInfo(ver uint8) acqserver.ServerInfo {
	info := g.upstreamInfo.Load()
	if info == nil {
		if b, ok := g.pickBackend(0, -1); ok {
			if si, err := b.pool.info(); err == nil {
				info = &si
				g.upstreamInfo.Store(info)
			}
		}
	}
	out := acqserver.ServerInfo{
		Version:         ver,
		Order:           fallbackOrder,
		MaxPayloadBytes: g.MaxPayloadBytes,
	}
	if info != nil {
		out.Shards = info.Shards
		out.Order = info.Order
		if info.MaxPayloadBytes < out.MaxPayloadBytes {
			out.MaxPayloadBytes = info.MaxPayloadBytes
		}
	}
	return out
}

// pickBackend routes a session key on the current ring, skipping avoid
// (pass -1 to skip nothing).
func (g *Gateway) pickBackend(key uint64, avoid int) (*backend, bool) {
	id, ok := g.ring().Pick(key, avoid)
	if !ok {
		return nil, false
	}
	return g.backends[id], true
}
