// Package daemon is the process shell imsd and imsgw share: the flags both
// take, the observability plane both build (structured logger, registry
// with runtime metrics, flight recorder, tracer, metric history,
// continuous profiler, the -metrics and -pprof HTTP servers), and the one
// life cycle both follow — listen, serve, wait for a signal, flip /readyz
// to 503, hold the drain grace, shut down under the drain timeout, write
// the trace file, take a last history sample, close.  A daemon's main
// keeps what is its own: its serving flags, how it builds its server, and
// any route or SLO only it has.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/flightrec"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/profiler"
	"repro/internal/telemetry/runtimemetrics"
	"repro/internal/telemetry/trace"
	"repro/internal/telemetry/tsdb"
)

// Flags are the options every daemon takes, defined once by AddFlags.
type Flags struct {
	DrainTimeout, DrainGrace time.Duration
	MetricsAddr, PprofAddr   string
	TracePath, HistoryDir    string
	HistoryInterval          time.Duration
	Trace                    trace.Config     // -trace-slow, -trace-sample, -trace-ring
	Events                   flightrec.Config // -events, -events-dump
	Profile                  profiler.Config  // -profile-dir, -profile-cpu, -profile-interval, -profile-retain
}

// AddFlags defines the shared flags on fs and returns where they land.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
	fs.DurationVar(&f.DrainGrace, "drain-grace", 0, "after SIGTERM, hold /readyz at 503 this long before draining so load balancers stop routing first")
	fs.StringVar(&f.MetricsAddr, "metrics", "", "serve telemetry, health and pprof on this HTTP address (e.g. localhost:9090)")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof, and nothing else, on this dedicated HTTP address")
	fs.StringVar(&f.TracePath, "trace", "", "trace every frame and write retained span trees as Perfetto JSON to this file on exit")
	fs.DurationVar(&f.Trace.SlowThreshold, "trace-slow", 0, "keep every trace at least this slow (0 keeps all)")
	fs.IntVar(&f.Trace.SampleEvery, "trace-sample", trace.DefaultSampleEvery, "uniformly keep 1 in N traces under the slow threshold")
	fs.IntVar(&f.Trace.RingSize, "trace-ring", trace.DefaultRingSize, "retained traces per ring (slow and sampled)")
	fs.IntVar(&f.Events.Size, "events", 4096, "wide events retained in the flight-recorder ring (0 disables)")
	fs.StringVar(&f.Events.DumpDir, "events-dump", "", "write flight-recorder black-box dumps to this directory on SLO degradation and recovered panics")
	fs.StringVar(&f.Profile.Dir, "profile-dir", "", "continuously capture rotating CPU+heap profiles into this directory")
	fs.DurationVar(&f.Profile.CPUDuration, "profile-cpu", 10*time.Second, "length of each continuous CPU profile capture")
	fs.DurationVar(&f.Profile.Interval, "profile-interval", 60*time.Second, "period between continuous profile captures")
	fs.IntVar(&f.Profile.Retain, "profile-retain", 16, "profiles kept per kind before the janitor deletes the oldest")
	fs.StringVar(&f.HistoryDir, "history", "", "persist sampled metric history into this directory and serve /metrics/history (see docs/OBSERVABILITY.md)")
	fs.DurationVar(&f.HistoryInterval, "history-interval", 5*time.Second, "metric history sampling period")
	return f
}

// Server is what Run serves and drains: acqserver.Server and
// gateway.Gateway both are one.
type Server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Draining() bool
}

// Daemon is one process's observability plane, built by Start and driven
// by Run.  The exported fields are for the daemon's main to wire into its
// server's config; each is nil when its flag left it off (a nil Flight,
// Tracer, History or Sampler is inert wherever it is used).
type Daemon struct {
	Log      *slog.Logger
	Registry *telemetry.Registry
	Flight   *flightrec.Recorder
	Tracer   *trace.Tracer
	History  *tsdb.Store
	Sampler  *tsdb.Sampler // not running until Run: OnSample may still be set
	// Mux is what the -metrics address serves: /metrics, /metrics.json,
	// /metrics/history, /debug/traces, /debug/events, /debug/pprof/ and
	// /healthz from Start, /readyz from Run; main may add its own routes.
	Mux *http.ServeMux

	name     string
	flags    *Flags
	profiler *profiler.Sampler
	https    []*http.Server // -metrics, then -pprof, whichever are on
	draining atomic.Bool
	after    func(time.Duration) <-chan time.Time // the drain-grace clock (a test holds it)
}

// Start builds the plane f describes for the daemon called name.  Both
// HTTP addresses are bound (and served) before it returns, so a port that
// cannot be had is an error here, not a log line beside a daemon that
// serves frames without a /readyz.
func Start(name string, f *Flags) (_ *Daemon, err error) {
	d := &Daemon{
		Log:      slog.New(slog.NewTextHandler(os.Stdout, nil)),
		Registry: telemetry.NewRegistry(),
		Mux:      http.NewServeMux(),
		name:     name,
		flags:    f,
		after:    time.After,
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	runtimemetrics.Register(d.Registry)
	if ev := f.Events; ev.Size > 0 {
		ev.Metrics, ev.Logger = d.Registry, d.Log
		d.Flight = flightrec.New(ev)
	}
	if f.TracePath != "" {
		d.Tracer = trace.New(f.Trace)
	}
	if f.HistoryDir != "" {
		hcfg := tsdb.DefaultConfig(f.HistoryDir)
		hcfg.Metrics = d.Registry
		hcfg.Logf = func(format string, args ...any) { d.Log.Info(fmt.Sprintf(format, args...)) }
		if d.History, err = tsdb.Open(hcfg); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		d.Sampler = tsdb.NewSampler(d.Registry, d.History, f.HistoryInterval)
		d.Log.Info("metric history on", "dir", f.HistoryDir, "interval", f.HistoryInterval.String())
	}
	if pc := f.Profile; pc.Dir != "" {
		pc.Metrics, pc.Logger = d.Registry, d.Log
		if d.profiler, err = profiler.New(pc); err != nil {
			return nil, err
		}
		d.Log.Info("continuous profiling on", "dir", f.Profile.Dir, "cpu", f.Profile.CPUDuration.String(), "interval", f.Profile.Interval.String())
	}

	d.Mux.Handle("/metrics", d.Registry.Handler())
	d.Mux.Handle("/metrics.json", d.Registry.Handler())
	d.Mux.Handle("/metrics/history", d.History.Handler())
	d.Mux.Handle("/debug/traces", d.Tracer.Handler())
	d.Mux.Handle("/debug/events", d.Flight.Handler())
	d.Mux.Handle("/healthz", health.LivenessHandler())
	handlePprof(d.Mux)
	if err := d.serveHTTP("metrics", f.MetricsAddr, "/metrics", d.Mux); err != nil {
		return nil, err
	}
	// Its own port and its own mux: some deploys firewall /metrics but want
	// profiling reachable.
	pprofMux := http.NewServeMux()
	handlePprof(pprofMux)
	if err := d.serveHTTP("pprof", f.PprofAddr, "/debug/pprof/", pprofMux); err != nil {
		return nil, err
	}
	return d, nil
}

// handlePprof mounts net/http/pprof on mux (the package itself only knows
// http.DefaultServeMux, which no server here serves).
func handlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveHTTP binds addr and serves mux on it until close.  An empty addr
// leaves the server off.
func (d *Daemon) serveHTTP(what, addr, path string, mux *http.ServeMux) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s server: %w", what, err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	d.https = append(d.https, srv)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			d.Log.Error(what+" server failed", "err", err)
		}
	}()
	d.Log.Info(d.name+" "+what+" server up", "url", "http://"+ln.Addr().String()+path)
	return nil
}

// close releases what Start acquired and Run started: the history sampler,
// both HTTP servers and the history store.  Closing twice is harmless.
func (d *Daemon) close() error {
	if d.Sampler != nil {
		d.Sampler.Stop()
	}
	for _, srv := range d.https {
		_ = srv.Close()
	}
	return d.History.Close()
}

// Signals returns the channel a daemon's main hands to Run: SIGINT and
// SIGTERM.
func Signals() <-chan os.Signal {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	return sigc
}

// Run serves srv on addr until a signal arrives on sigc, then drains it.
// /readyz follows eval (nil: always ready) except that it answers 503
// "draining" from the signal on — before Shutdown is called, so that under
// a -drain-grace load balancers stop routing while the daemon still
// answers — and 503 with notReady's reason whenever that (when non-nil)
// reports true.  attrs join the "listening on" log line.  A nil return is a
// clean drain; anything else the caller should exit non-zero on.
func (d *Daemon) Run(addr string, srv Server, eval *health.Evaluator, notReady func() (bool, string), sigc <-chan os.Signal, attrs ...any) error {
	defer d.close()
	d.Mux.Handle("/readyz", eval.ReadinessHandler(func() (bool, string) {
		if d.draining.Load() || srv.Draining() {
			return true, "draining"
		}
		if notReady != nil {
			return notReady()
		}
		return false, ""
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bg, stop := context.WithCancel(context.Background())
	defer stop()
	if d.Sampler != nil {
		go d.Sampler.Run()
	}
	if d.profiler != nil {
		go d.profiler.Run(bg)
	}
	d.Log.Info(d.name+" listening on "+ln.Addr().String(), append(attrs, "tracing", d.Tracer != nil)...)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var sig os.Signal
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig = <-sigc:
	}
	d.draining.Store(true)
	if d.flags.DrainGrace > 0 {
		d.Log.Info(d.name+" not ready, holding for drain grace", "grace", d.flags.DrainGrace.String())
		<-d.after(d.flags.DrainGrace)
	}
	d.Log.Info(d.name+" draining", "signal", sig.String(), "bound", d.flags.DrainTimeout.String())
	ctx, cancel := context.WithTimeout(context.Background(), d.flags.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := d.Tracer.WriteFile(d.flags.TracePath); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if d.Sampler != nil {
		d.Sampler.Stop()
		d.Sampler.SampleOnce(time.Now()) // capture the drain's final deltas
	}
	if err := d.close(); err != nil {
		return fmt.Errorf("history close: %w", err)
	}
	d.Log.Info(d.name + " drained cleanly")
	return nil
}
