// Command calibserved is the calibration-scheduling daemon: it hosts
// many independent online scheduling sessions (Algorithm 1 or 2 of the
// paper as incremental engines) behind a JSON/HTTP API with bounded
// arrival queues, idle-session eviction, decision-event tracing, and a
// Prometheus/expvar metrics plane.
//
// Quickstart:
//
//	calibserved -addr :8373 &
//	curl -s localhost:8373/healthz
//	curl -s -X POST localhost:8373/v1/sessions -d '{"t":10,"g":32,"alg":"alg2"}'
//	curl -s localhost:8373/v1/sessions/s-000001/trace
//	curl -s localhost:8373/metrics | grep calibserved
//
// All logging is structured JSON on stderr (one record per line). With
// -debug-addr set, net/http/pprof and /debug/vars are served on that
// separate listener so the profiling surface never shares the API port.
//
// cmd/calibload is the matching load generator; DESIGN.md §7 documents
// the API schema and the backpressure contract, §8 the observability
// plane.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"calibsched/internal/online"
	"calibsched/internal/server"
	"calibsched/internal/server/metrics"
	"calibsched/internal/store"
)

// version identifies the build in calibserved_build_info; release
// tooling overrides it with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stderr, signalContext()))
}

// signalContext cancels on SIGINT/SIGTERM.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

// cliMain parses flags and runs the daemon until ctx is cancelled.
// Split from main so tests can drive a full boot/serve/drain cycle.
func cliMain(args []string, stderr io.Writer, ctx context.Context) int {
	fs := flag.NewFlagSet("calibserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr            = fs.String("addr", ":8373", "listen address (host:port; :0 picks a free port)")
		debugAddr       = fs.String("debug-addr", "", "separate listen address for pprof and /debug/vars (empty disables)")
		maxSessions     = fs.Int("max-sessions", 1024, "maximum live sessions (creation beyond it gets 429)")
		maxBuffer       = fs.Int("buffer", 4096, "per-session arrival buffer bound (fuller gets 429 + Retry-After)")
		maxStepBatch    = fs.Int64("max-step-batch", 100_000, "maximum steps one request may simulate")
		traceRing       = fs.Int("trace-ring", 1024, "per-session decision-event ring capacity for /v1/sessions/{id}/trace")
		idleTTL         = fs.Duration("idle-ttl", 10*time.Minute, "evict sessions idle this long (0 disables)")
		shutdownTimeout = fs.Duration("shutdown-timeout", 10*time.Second, "grace period for draining on shutdown")
		logLevel        = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		dataDir         = fs.String("data-dir", "", "directory for durable session state: per-session WAL + snapshots, replayed on boot (empty disables persistence)")
		fsyncMode       = fs.String("fsync", "batch", "WAL durability with -data-dir: always (fsync every record), batch (fsync every 64 records), or none (OS-buffered)")
		groupCommit     = fs.Bool("group-commit", true, "with -fsync always, share one journal fsync across all commands in flight instead of one fsync per record (same durability, amortized cost)")
		snapshotEvery   = fs.Int("snapshot-every", 256, "WAL records between snapshots with -data-dir (each snapshot truncates the log)")
		readTimeout     = fs.Duration("read-timeout", 30*time.Second, "maximum duration for reading an entire request, body included (0 disables)")
		writeTimeout    = fs.Duration("write-timeout", 60*time.Second, "maximum duration for writing a response (0 disables)")
		idleTimeout     = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle timeout (0 means use read-timeout)")
		solveWorkers    = fs.Int("solve-workers", 0, "concurrent exact-DP solves in the /v1/solve pool (0 = GOMAXPROCS)")
		solveQueue      = fs.Int("solve-queue", 64, "queued /v1/solve requests before 429 backpressure")
		solveCache      = fs.Int("solve-cache", 128, "solve result-cache capacity in entries (negative disables caching)")
		spanStore       = fs.Int("span-store", 512, "request-trace store capacity in traces for GET /v1/traces (negative disables span recording)")
		slowThreshold   = fs.Duration("trace-slow-threshold", 250*time.Millisecond, "retain traces whose root span is at least this slow ahead of FIFO eviction (0 keeps pure FIFO)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "calibserved: unexpected argument %q (flags only)\n", fs.Arg(0))
		return 2
	}
	if *maxSessions < 1 || *maxBuffer < 1 || *maxStepBatch < 1 || *traceRing < 1 {
		fmt.Fprintln(stderr, "calibserved: -max-sessions, -buffer, -max-step-batch, and -trace-ring must all be >= 1")
		return 2
	}
	if *snapshotEvery < 1 {
		fmt.Fprintln(stderr, "calibserved: -snapshot-every must be >= 1")
		return 2
	}
	if *readTimeout < 0 || *writeTimeout < 0 || *idleTimeout < 0 {
		fmt.Fprintln(stderr, "calibserved: -read-timeout, -write-timeout, and -idle-timeout must all be >= 0")
		return 2
	}
	if *solveWorkers < 0 || *solveQueue < 1 {
		fmt.Fprintln(stderr, "calibserved: -solve-workers must be >= 0 and -solve-queue >= 1")
		return 2
	}
	fsyncPolicy, err := store.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		fmt.Fprintf(stderr, "calibserved: bad -fsync %q (want always, batch, or none)\n", *fsyncMode)
		return 2
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(stderr, "calibserved: bad -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		return 2
	}
	logger := slog.New(slog.NewJSONHandler(stderr, &slog.HandlerOptions{Level: level}))
	var st *store.Store
	if *dataDir != "" {
		// Open probes writability, so a missing or read-only data dir
		// fails the boot here rather than surfacing on the first append.
		st, err = store.Open(*dataDir, store.Options{Fsync: fsyncPolicy, GroupCommit: *groupCommit})
		if err != nil {
			fmt.Fprintln(stderr, "calibserved:", err)
			return 1
		}
		// Sessions settle during serve's shutdown drain; stopping the
		// group committer after that never strands an in-flight append.
		defer st.Close()
		logger.Info("persistence enabled", "data_dir", *dataDir, "fsync", fsyncPolicy.String(),
			"group_commit", st.Committer() != nil, "snapshot_every", *snapshotEvery)
	}
	timeouts := httpTimeouts{
		Read:  *readTimeout,
		Write: *writeTimeout,
		Idle:  *idleTimeout,
	}
	fsyncLabel := "none"
	if *dataDir != "" {
		fsyncLabel = fsyncPolicy.String()
	}
	metrics.SetBuildInfo(metrics.BuildInfo{
		Version: version,
		Fsync:   fsyncLabel,
		Engines: strings.Join(online.EngineNames(), ","),
	})
	if err := serve(ctx, *addr, *debugAddr, server.Config{
		MaxSessions:        *maxSessions,
		MaxBuffer:          *maxBuffer,
		MaxStepBatch:       *maxStepBatch,
		TraceRing:          *traceRing,
		IdleTTL:            *idleTTL,
		Logger:             logger,
		Store:              st,
		SnapshotEvery:      *snapshotEvery,
		SolveWorkers:       *solveWorkers,
		SolveQueueDepth:    *solveQueue,
		SolveCacheSize:     *solveCache,
		SpanStoreSize:      *spanStore,
		SlowTraceThreshold: *slowThreshold,
	}, timeouts, *shutdownTimeout, logger, nil); err != nil {
		fmt.Fprintln(stderr, "calibserved:", err)
		return 1
	}
	return 0
}

// debugMux is the operational debug plane: pprof profiles plus the raw
// expvar registry. It is mounted on its own listener (-debug-addr) so
// the profiling surface is never exposed on the API address.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// httpTimeouts bundles the connection deadlines applied to every
// http.Server the daemon builds (API and debug alike). Only
// ReadHeaderTimeout used to be set, which left slow-body clients free to
// pin connections and session workers forever; full read/write/idle
// deadlines close that hole.
type httpTimeouts struct {
	Read  time.Duration
	Write time.Duration
	Idle  time.Duration
}

// readHeaderTimeout bounds just the request-header read; it is not
// flag-tunable because the full read deadline subsumes it for every
// legitimate client.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds an http.Server with the full set of connection
// deadlines. Split out so tests can assert the configuration and so the
// API and debug listeners can never drift apart.
func newHTTPServer(h http.Handler, t httpTimeouts) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}

// bootHandler answers for the daemon between listen and the end of
// boot-time WAL replay: /healthz reports the process alive, /readyz
// reports "booting" with a 503 (so the cluster gateway's health prober
// does not route sessions here yet — see internal/cluster), and every
// other path gets a 503 + Retry-After.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.ReadyResponse{Status: "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, server.ReadyResponse{Status: "booting"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			server.ErrorResponse{Error: "booting: replaying durable session state; retry shortly"})
	})
	return mux
}

// serve listens on addr (and debugAddr, when set) and serves until ctx
// is cancelled, then drains HTTP connections and session workers within
// the grace period. When ready is non-nil it receives the bound API
// address once the Server has replaced the boot handler, so a request
// sent after the receive is served, never answered "booting" (tests use
// it to learn the :0 port).
//
// The listener opens before server.New runs, fronted by bootHandler, so
// a node recovering a large WAL is observable (and observably
// not-ready) for the whole replay instead of connection-refusing.
func serve(ctx context.Context, addr, debugAddr string, cfg server.Config, timeouts httpTimeouts, grace time.Duration, logger *slog.Logger, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	logger.Info("listening", "addr", ln.Addr().String())

	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listen: %w", err)
		}
		logger.Info("debug listening", "addr", dln.Addr().String())
		debugSrv = newHTTPServer(debugMux(), timeouts)
		go func() {
			if err := debugSrv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	var handler atomic.Pointer[http.Handler] // bootHandler, then the Server
	boot := bootHandler()
	handler.Store(&boot)
	httpSrv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	}), timeouts)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	srv, err := server.New(cfg) // boot-time WAL replay happens in here
	if err != nil {
		httpSrv.Close()
		if debugSrv != nil {
			debugSrv.Close()
		}
		<-serveErr
		return fmt.Errorf("boot: %w", err)
	}
	var live http.Handler = srv
	handler.Store(&live)
	logger.Info("serving")
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", grace.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			logger.Warn("debug drain incomplete", "err", err)
		}
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		// Connections outlived the grace period; session state is still
		// drained below before we give up the process.
		logger.Warn("http drain incomplete", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("session drain incomplete: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained cleanly")
	return nil
}
