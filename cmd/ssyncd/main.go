// Command ssyncd serves S-SYNC compilation over HTTP JSON: single
// compiles, worker-pool batches and portfolio races, backed by a shared
// tiered content-addressed artifact store — an in-memory result cache
// over an optional persistent disk tier (-cache-dir, so compiled
// results survive restarts), plus an in-memory per-stage snapshot cache
// (-stage-cache) that reuses pipeline prefixes such as a
// decompose→place placement across route variants — and single-flight
// coalescing so repeated and concurrent identical requests skip
// compilation.
//
// Compile capacity is governed by a priority-aware admission scheduler:
// requests carry a "priority" class (interactive — the single-compile
// default — batch, or background; batch entries and portfolio entrants
// default to batch), worker slots are handed out by class weight so a
// batch flood cannot starve interactive compiles, each class's queue is
// bounded at -queue entries (shed with 429 + Retry-After when full),
// and a "deadline_ms" budget is enforced at admission: a request whose
// queue-wait estimate already exceeds its deadline is rejected with
// 503 + Retry-After instead of timing out after queueing. GET /v2/stats
// reports the scheduler under "sched".
//
// The service is observable end to end: every request gets one trace,
// whose ID answers X-Trace-ID and X-Request-ID (unless the caller sent
// an acceptable X-Request-ID, which is echoed), appears as trace_id on
// all of its structured log lines (-log-format json|text, -log-level)
// and names its span tree at GET /v2/traces/{id}. GET /metrics exposes
// Prometheus counters/gauges/histograms for the scheduler, artifact
// store, passes and HTTP layer, the event histograms derived from the
// spans, and -debug-addr starts a separate net/http/pprof listener.
//
// Usage:
//
//	ssyncd -addr :8484 -workers 8 -queue 256 -cache 1024 -stage-cache 1024 \
//	    -cache-dir /var/cache/ssyncd -cache-disk-max 268435456 \
//	    -timeout 60s -drain 30s \
//	    -log-format json -log-level info -debug-addr localhost:8485
//
// Endpoints:
//
//	POST /v2/compile   {"benchmark":"QFT_24","topology":"G-2x3","priority":"interactive","deadline_ms":2000}
//	POST /v2/batch     {"requests":[{...},{...}]}
//	GET  /v2/compilers
//	GET  /v2/stats
//	GET  /v2/traces    (flight recorder: ?route=&principal=&min_ms=&limit=)
//	GET  /v2/traces/{id}  (one request's span tree; stitched fleet-wide in router mode)
//	GET  /metrics      (Prometheus text exposition)
//
// On SIGINT/SIGTERM the listener closes immediately and in-flight
// compilations get -drain to finish before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ssync/internal/engine"
	"ssync/internal/obs"
)

// version is the build identity reported by ssync_build_info; release
// builds stamp it via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		addr    = flag.String("addr", ":8484", "listen address")
		workers = flag.Int("workers", 0, "batch worker count (default: GOMAXPROCS)")
		queue   = flag.Int("queue", 0,
			"per-priority-class admission queue bound; arrivals beyond it are shed with 429 (0 = default, negative = unbounded)")
		cache      = flag.Int("cache", engine.DefaultCacheSize, "result-cache entries (negative disables)")
		stageCache = flag.Int("stage-cache", engine.DefaultStageCacheSize,
			"in-memory per-stage snapshot cache entries for pipeline prefix reuse (0 disables)")
		cacheDir = flag.String("cache-dir", "",
			"persistent on-disk tier directory for compiled results, which survive restarts (empty disables; one live daemon per directory unless -cache-shared)")
		cacheShared = flag.Bool("cache-shared", false,
			"open -cache-dir as a cross-process shared tier (advisory file locking), so N replica daemons can mount one directory and serve each other's compiled results")
		cacheDiskMax = flag.Int64("cache-disk-max", engine.DefaultDiskMax,
			"disk-tier size cap in bytes, LRU-by-access eviction (negative = unbounded)")
		timeout   = flag.Duration("timeout", 60*time.Second, "default per-job compile timeout (0 = unbounded)")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown drain timeout for in-flight requests")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (debug adds per-pass and trace-span lines)")
		debugAddr = flag.String("debug-addr", "",
			"separate listen address for net/http/pprof and a /metrics mirror (empty disables; bind to localhost)")
		mode = flag.String("mode", "replica",
			"process role: \"replica\" serves compilations; \"router\" fronts a fleet of replicas, consistent-hashing each request's cache key so identical circuits land on the replica already holding (or compiling) their result")
		replicas = flag.String("replicas", "",
			"router mode: comma-separated replica base URLs (e.g. http://replica1:8484,http://replica2:8484)")
		authKeys = flag.String("auth-keys", "",
			"API-key file guarding the compile-submitting endpoints: one \"<sha256-hex>  <principal>  [rate=N] [burst=N] [inflight=N] [max-priority=class]\" per line, hot-reloaded on change (empty leaves the service open)")
		authOptional = flag.Bool("auth-optional", false,
			"admit requests without a credential as the shared \"anonymous\" principal instead of rejecting them with 401 (a wrong key is still rejected)")
		clusterSecret = flag.String("cluster-secret", "",
			"shared HMAC secret for the internal identity header: a router signs the authenticated principal toward its replicas, replicas verify it — so API keys never leave the edge")
		traceBuffer = flag.Int("trace-buffer", 512,
			"flight-recorder capacity in retained traces (errored and slow requests are always kept; 0 disables the recorder and /v2/traces)")
		traceSample = flag.Int("trace-sample", 16,
			"keep one of every N normal (fast, successful) traces per route in the flight recorder")
		traceSlow = flag.Duration("trace-slow", 0,
			"dump the span tree of any request slower than this to the log at warn level, regardless of -log-level (0 disables)")
	)
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		log.Fatal(err)
	}
	aopt := authOptions{keysFile: *authKeys, optional: *authOptional, secret: *clusterSecret}
	topt := traceOptions{buffer: *traceBuffer, sample: *traceSample, slow: *traceSlow}
	switch *mode {
	case "router":
		if err := runRouter(*addr, *replicas, *drain, aopt, topt, logger); err != nil {
			log.Fatal(err)
		}
		return
	case "replica":
	default:
		log.Fatalf("unknown -mode %q (want replica or router)", *mode)
	}
	eng, err := engine.Open(engine.Options{
		CacheSize:      *cache,
		StageCacheSize: *stageCache,
		CacheDir:       *cacheDir,
		DiskMax:        *cacheDiskMax,
		SharedCache:    *cacheShared,
		Workers:        *workers,
		QueueLimit:     *queue,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := newServer(eng, *workers, *timeout)
	srv.log = logger
	srv.recorder = topt.recorder()
	srv.traceSlow = topt.slow
	if aopt.enabled() {
		al, err := newAuthLayer(aopt, srv.reg, logger)
		if err != nil {
			log.Fatal(err)
		}
		srv.auth = al
		logger.Info("access control enabled",
			"keys_file", *authKeys, "optional", *authOptional,
			"identity_verification", *clusterSecret != "")
	}
	hs := &http.Server{
		Handler: srv.routes(),
		// Bound how long a client may dribble headers/body and how long an
		// idle keep-alive connection holds a file descriptor; compile time
		// itself is governed by the per-job timeout, not these.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			if err := http.Serve(dln, debugMux(srv)); !errors.Is(err, http.ErrServerClosed) && err != nil {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listener started", "addr", dln.Addr().String())
	}
	fmt.Printf("ssyncd listening on %s (workers=%d queue=%d cache=%d stage-cache=%d cache-dir=%q timeout=%s drain=%s)\n",
		ln.Addr(), *workers, *queue, *cache, *stageCache, *cacheDir, *timeout, *drain)
	if err := serve(ctx, hs, ln, *drain); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ssyncd drained and stopped")
}

// debugMux builds the -debug-addr surface: the pprof handlers (an
// explicit mux, so the choice to expose them is this function and not a
// DefaultServeMux side effect) plus a /metrics mirror, so a scraper
// pinned to the debug port needs no access to the service port.
func debugMux(srv *server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.reg)
	return mux
}

// serve runs hs on ln until ctx is cancelled (SIGINT/SIGTERM in main),
// then shuts down gracefully: the listener closes so no new requests are
// accepted, while in-flight requests — compilations included — get up to
// drain to finish instead of being killed mid-request. A nil return
// means a clean drain; context.DeadlineExceeded means the drain timeout
// expired with requests still running (they are then abandoned).
func serve(ctx context.Context, hs *http.Server, ln net.Listener, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		// Serve failed on its own (bad listener, etc.) before any signal.
		return err
	case <-ctx.Done():
	}
	sdCtx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sdCtx, cancel = context.WithTimeout(sdCtx, drain)
		defer cancel()
	}
	if err := hs.Shutdown(sdCtx); err != nil {
		return err
	}
	return <-errc
}
