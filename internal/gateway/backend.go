// backend.go: one member of the imsd fleet as the gateway sees it — a
// pool of multiplexed upstream connections (acqserver.Client, so one TCP
// connection carries many concurrent proxied frames) plus a readiness
// flag driven two ways:
//
//   - Actively, by a prober goroutine polling the backend's /readyz once a
//     second (or, with no health URL configured, attempting a bare
//     TCP dial).  A daemon that flips /readyz to 503 at SIGTERM — the
//     drain-grace pattern of cmd/imsd — leaves the ring before its
//     connections start dying, which is what makes rolling restarts
//     lossless.
//   - Passively, by the proxy path: a transport error against a backend
//     marks it not-ready immediately, because waiting out a probe period
//     against a dead peer sheds frames for no reason.  The prober brings
//     it back once /readyz answers 200 again.
//
// Either flip triggers a ring rebuild in the gateway.
package gateway

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acqserver"
)

// BackendConfig names one imsd fleet member.
type BackendConfig struct {
	// Addr is the backend's IMSP listen address (host:port).
	Addr string
	// HealthURL, when set, is the backend's /readyz endpoint; the prober
	// treats HTTP 200 as ready, anything else (or a transport error) as
	// not ready.  When empty the prober falls back to a TCP dial check.
	HealthURL string
}

// backend is the runtime state of one fleet member.
type backend struct {
	id     int // index into Config.Backends; Result.Backend carries id+1
	cfg    BackendConfig
	ready  atomic.Bool
	pool   *clientPool
	labels context.Context // pprof labels of an upstream wait: stage=gw_upstream, backend=Addr
}

// clientPool is a fixed-size, lazily-dialed set of multiplexed upstream
// connections to one backend.  get hands out clients round-robin; a
// client whose connection has died is redialed in place, and a caller
// that observed a transport failure mid-request discards the client so
// the next request redials instead of re-failing.
type clientPool struct {
	addr string

	mu      sync.Mutex
	clients []*acqserver.Client
	next    uint64
}

// newClientPool sizes the pool; connections are dialed on first use.
func newClientPool(addr string) *clientPool {
	return &clientPool{addr: addr, clients: make([]*acqserver.Client, poolSize)}
}

// get returns a live pooled client, dialing (or redialing a dead slot)
// when needed.
func (p *clientPool) get() (*acqserver.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot := int(p.next % uint64(len(p.clients)))
	p.next++
	c := p.clients[slot]
	if c != nil {
		select {
		case <-c.Done():
			c = nil // connection died; redial below
		default:
			return c, nil
		}
	}
	c, err := acqserver.Dial(p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	p.clients[slot] = c
	return c, nil
}

// discard drops a client that failed mid-request so its slot redials.
func (p *clientPool) discard(c *acqserver.Client) {
	_ = c.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, pc := range p.clients {
		if pc == c {
			p.clients[i] = nil
		}
	}
}

// info returns the handshake summary of any live pooled connection.
func (p *clientPool) info() (acqserver.ServerInfo, error) {
	c, err := p.get()
	if err != nil {
		return acqserver.ServerInfo{}, err
	}
	return c.Info(), nil
}

// closeAll tears the pool down.
func (p *clientPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.clients {
		if c != nil {
			_ = c.Close()
			p.clients[i] = nil
		}
	}
}

// probe performs one readiness check: HTTP GET against HealthURL when
// configured (200 = ready), a bare TCP dial otherwise.
func (b *backend) probe(client *http.Client) bool {
	if b.cfg.HealthURL == "" {
		conn, err := net.DialTimeout("tcp", b.cfg.Addr, dialTimeout)
		if err != nil {
			return false
		}
		_ = conn.Close()
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.cfg.HealthURL, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// proberLoop polls the backend until stop closes, reporting readiness
// flips through onFlip (which rebuilds the ring).
func (g *Gateway) proberLoop(b *backend) {
	defer g.proberWG.Done()
	period := cmp.Or(g.cfg.probeInterval, probeInterval)
	httpc := &http.Client{Timeout: period}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		ready := b.probe(httpc)
		if b.ready.Swap(ready) != ready {
			g.log.Info("backend readiness flipped", "backend", b.cfg.Addr, "ready", ready)
			g.rebuildRing()
		}
		select {
		case <-g.stopc:
			return
		case <-ticker.C:
		}
	}
}

// markDown is the passive path: a transport failure against the backend
// takes it off the ring immediately; the prober restores it.
func (g *Gateway) markDown(b *backend, reason error) {
	if b.ready.Swap(false) {
		g.log.Warn("backend marked down", "backend", b.cfg.Addr, "err", fmt.Sprint(reason))
		g.rebuildRing()
	}
}
