// Package daemon is the process shell imsd and imsgw share: the flags both
// take, the observability plane both build (structured logger, registry
// with runtime metrics, flight recorder, tracer, metric history,
// continuous profiler, the -metrics and -pprof HTTP servers), and the one
// life cycle both follow — listen, serve, wait for a signal, flip /readyz
// to 503, hold the drain grace, shut down under the drain timeout, write
// the trace file, take a last history sample, close.  A daemon's main
// keeps what is its own: its serving flags, how it builds its server, and
// any route or SLO only it has.
//
// The flags are what a deployment sets: addresses, directories and the
// drain bounds.  How each surface is tuned is a constant of its package,
// not a setting: the tracer keeps the newest trace.RingSize traces; the
// flight recorder holds flightrec.RingSize events; the profiler's cycle,
// the history's retention and chunk rotation, the health burn windows and
// the anomaly detector's policy are each package's named constants
// (docs/OBSERVABILITY.md lists them); metric history is sampled every
// historyInterval.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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

// historyInterval is the metric history sampling period.
const historyInterval = 5 * time.Second

// Flags are the options every daemon takes, defined once by Parse.
type Flags struct {
	DrainTimeout, DrainGrace time.Duration
	MetricsAddr, PprofAddr   string
	TracePath, HistoryDir    string
	EventsDump, ProfileDir   string
}

// errUsage marks a command line the flag package rejected (and has already
// reported, with the usage).
var errUsage = errors.New("usage")

// Parse defines the shared flags on fs, parses args into them and into the
// daemon's own flags already defined there, and returns the shared ones.
// fs must be flag.ContinueOnError: -h returns flag.ErrHelp, a bad command
// line an error Main exits 2 on.
func Parse(fs *flag.FlagSet, args []string) (*Flags, error) {
	f := &Flags{}
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on SIGTERM")
	fs.DurationVar(&f.DrainGrace, "drain-grace", 0, "after SIGTERM, hold /readyz at 503 this long before draining so load balancers stop routing first")
	fs.StringVar(&f.MetricsAddr, "metrics", "", "serve telemetry, health and pprof on this HTTP address (e.g. localhost:9090)")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof, and nothing else, on this dedicated HTTP address")
	fs.StringVar(&f.TracePath, "trace", "", "trace every frame and write retained span trees as Perfetto JSON to this file on exit")
	fs.StringVar(&f.EventsDump, "events-dump", "", "write flight-recorder black-box dumps to this directory on SLO degradation and recovered panics")
	fs.StringVar(&f.ProfileDir, "profile-dir", "", "continuously capture rotating CPU+heap profiles into this directory")
	fs.StringVar(&f.HistoryDir, "history", "", "persist sampled metric history into this directory and serve /metrics/history (see docs/OBSERVABILITY.md)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	return f, nil
}

// Main is a daemon's main: it calls run with the process's arguments,
// SIGINT and SIGTERM, and its stdout (the log) and stderr (the usage), then
// exits 0 on a clean drain or -h, 2 on a bad command line, 1 on any other
// error.
func Main(name string, run func(args []string, sigc <-chan os.Signal, stdout, stderr io.Writer) error) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	err := run(os.Args[1:], sigc, os.Stdout, os.Stderr)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
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
// server's config; Tracer, History and Sampler are nil when their flag
// left them off (and inert wherever they are used).
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

// Start builds the plane f describes for the daemon called name, logging
// to logw.  Both HTTP addresses are bound (and served) before it returns,
// so a port that cannot be had is an error here, not a log line beside a
// daemon that serves frames without a /readyz.
func Start(name string, f *Flags, logw io.Writer) (_ *Daemon, err error) {
	d := &Daemon{
		Log:      slog.New(slog.NewTextHandler(logw, nil)),
		Registry: telemetry.NewRegistry(),
		Mux:      http.NewServeMux(),
		name:     name,
		flags:    f,
		after:    time.After,
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	runtimemetrics.Register(d.Registry)
	d.Flight = flightrec.New(flightrec.Config{DumpDir: f.EventsDump, Metrics: d.Registry, Logger: d.Log})
	if f.TracePath != "" {
		d.Tracer = trace.New()
	}
	if f.HistoryDir != "" {
		logf := func(format string, args ...any) { d.Log.Info(fmt.Sprintf(format, args...)) }
		if d.History, err = tsdb.Open(tsdb.Config{Dir: f.HistoryDir, Metrics: d.Registry, Logf: logf}); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		d.Sampler = tsdb.NewSampler(d.Registry, d.History, historyInterval)
		d.Log.Info("metric history on", "dir", f.HistoryDir, "interval", historyInterval.String())
	}
	if f.ProfileDir != "" {
		if d.profiler, err = profiler.New(profiler.Config{Dir: f.ProfileDir, Metrics: d.Registry, Logger: d.Log}); err != nil {
			return nil, err
		}
		d.Log.Info("continuous profiling on", "dir", f.ProfileDir)
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

// Close releases what Start acquired and Run started: the history sampler,
// both HTTP servers and the history store.  Run closes the daemon on its
// way out; a main that fails between Start and Run closes it itself.
// Closing twice is harmless.
func (d *Daemon) Close() error {
	if d.Sampler != nil {
		d.Sampler.Stop()
	}
	for _, srv := range d.https {
		_ = srv.Close()
	}
	return d.History.Close()
}

// Run serves srv on addr until a signal arrives on sigc, then drains it.
// /readyz follows eval (nil: always ready) except that it answers 503
// "draining" from the signal on — before Shutdown is called, so that under
// a -drain-grace load balancers stop routing while the daemon still
// answers — and 503 with notReady's reason whenever that (when non-nil)
// reports true.  attrs join the "listening on" log line.  A nil return is a
// clean drain; anything else the caller should exit non-zero on.
func (d *Daemon) Run(addr string, srv Server, eval *health.Evaluator, notReady func() (bool, string), sigc <-chan os.Signal, attrs ...any) error {
	defer d.Close()
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
	if err := d.Close(); err != nil {
		return fmt.Errorf("history close: %w", err)
	}
	d.Log.Info(d.name + " drained cleanly")
	return nil
}
