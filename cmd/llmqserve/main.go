// Command llmqserve runs the reordering optimizer — and, when tables are
// registered, a concurrent LLM-SQL serving runtime — as an HTTP service.
//
//	llmqserve -addr :8080
//	llmqserve -addr :8080 -csv tickets=tickets.csv -dataset Movies -workers 8
//	llmqserve -addr :8080 -csv tickets=tickets.csv -backend persistent
//	llmqserve -addr :8091 -worker -backend persistent                 (cluster worker)
//	llmqserve -addr :8080 -csv tickets=tickets.csv -backend remote \
//	    -cluster-workers localhost:8091,localhost:8092               (cluster router)
//
// Endpoints (JSON over POST unless noted; the full wire contract, including
// the structured error envelope every endpoint returns on failure, is in
// docs/API.md):
//
//	/v1/reorder   {table:{columns,rows,fds}, algorithm?}      -> schedule + PHC
//	/v1/estimate  {provider, hitOriginal, hitGGR}             -> cost savings
//	/v1/simulate  {table, prompt, policy?}                    -> serving metrics
//	/v1/sql       {sql, client?, class?, deadlineMs?,         -> result relation +
//	               options: {naive?, policy?, trace?}}           per-statement stats +
//	                                                             fleet totals
//	/v1/metrics   (GET) fleet-wide runtime metrics snapshot: the totals
//	              plus the per-stage / per-client / per-class /
//	              per-worker breakdowns
//	              (JSON; ?format=prometheus for text exposition)
//	/v1/traces    (GET) retained statement traces (opt-in + slow queries)
//	/healthz      (GET)
//
// /v1/sql executes LLM-SQL statements over the tables registered with -csv
// (name=path, repeatable) and -dataset (bundled dataset name, repeatable) on
// the concurrent serving runtime: statements run on a bounded worker pool,
// pending LLM calls that share a prompt coalesce across requests into
// GGR-reordered batches (-batch-window), and an exact-match result cache
// plus inflight dedup keep repeated dashboard statements from paying for
// model calls twice. Each statement is scoped to its HTTP request's context,
// so a disconnecting client cancels its statement. Without registrations the
// endpoint answers 503 and the three stateless endpoints work as before.
//
// Admission is multi-tenant: each statement names a client (default "anon")
// and a service class. Interactive statements get a high deficit-round-robin
// weight and the short -batch-window; batch-class statements get a low
// weight and the longer -batch-class-window, and an interactive statement
// joining a batch-held coalescing window closes it early. -fifo reverts to
// the old anonymous first-come-first-served queue for A/B runs. -quota-calls
// and -quota-tokens arm per-client post-paid token buckets (burst caps via
// -quota-call-burst / -quota-token-burst): a client that overdraws gets 429
// with a Retry-After header until its buckets refill.
//
// -backend selects the serving target behind the whole stack (the
// llmq.Backend seam): "sim" builds one confined engine per batch (the
// paper's setting); "persistent" keeps a pool of long-lived engine replicas
// per stage fingerprint so the prefix cache survives between batch windows —
// repeated dashboard refreshes hit prefixes cached by earlier refreshes —
// and concurrent windows on one hot stage overlap on separate replicas.
// -shards N (or the sharded-sim/sharded-persistent names) adds data-parallel
// execution: each coalesced batch is split at its prefix-group boundaries
// and fanned out over N concurrent engine runs, cutting batch latency while
// keeping relations byte-identical.
//
// The distributed tier turns one llmqserve into a fleet. -worker runs this
// process as a cluster worker: POST /v1/batch executes remote batches on
// the local -backend, /v1/metrics reports the worker's batch accounting,
// and /healthz turns 503 while draining so routers mark the worker down
// before shutdown. "-backend remote -cluster-workers host:port,..." runs
// this process as the router: each batch is consistent-hashed by its stage
// fingerprint onto the worker ring (so persistent engines stay
// stage-affine fleet-wide), hot stages replicate onto a second node when
// the primary saturates, and dead or draining workers fail over to the
// next ring node. The router sends each batch whole; the worker that
// serves it cuts it at its prefix-group boundaries across its own engine
// replicas (4 wide by default, -shards N on the worker to change it), so
// -shards does not compose with the remote backend.
//
// Observability: logs are structured (log/slog; -log-format json switches
// from text to JSON). Every /v1/sql request writes one access-log line with
// the client, class, outcome code, queue wait, JCT, and model calls.
// -slow-query THRESHOLD arms the slow-query log: statements whose wall time
// (admission to settlement) meets the threshold are logged and their full
// traces retained in GET /v1/traces. -debug-addr starts a SEPARATE debug
// listener serving net/http/pprof profiles and an expvar snapshot of the
// runtime metrics — never exposed on the public mux.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting
// connections, drains in-flight requests for up to -drain, then closes the
// runtime (flushing any batch still waiting on its window) and the backend.
//
// Example:
//
//	curl -s localhost:8080/v1/sql -d \
//	  '{"sql":"SELECT region, COUNT(*) AS n FROM tickets GROUP BY region HAVING COUNT(*) > 3 ORDER BY n DESC, region",
//	    "client":"dashboard-7","class":"interactive","deadlineMs":2000,"options":{"policy":"cache-ggr"}}'
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/sqlfront"
)

func main() {
	var csvs, datasets []string
	flag.Func("csv", "CSV to register for /v1/sql, as name=path (repeatable)", func(v string) error { csvs = append(csvs, v); return nil })
	flag.Func("dataset", "bundled dataset to register under its own name (repeatable)", func(v string) error { datasets = append(datasets, v); return nil })
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		scale       = flag.Float64("scale", 0.05, "dataset scale when -dataset is used")
		seed        = flag.Int64("seed", 1, "dataset seed")
		workers     = flag.Int("workers", 4, "concurrent statement executors")
		window      = flag.Duration("batch-window", 2*time.Millisecond, "cross-query batch coalescing window for interactive statements")
		classWindow = flag.Duration("batch-class-window", 0, "coalescing window for batch-class statements (default 10x -batch-window)")
		fifo        = flag.Bool("fifo", false, "revert admission to anonymous FIFO (disables weighted-fair scheduling; for A/B runs)")
		quotaCalls  = flag.Float64("quota-calls", 0, "per-client model-call quota in calls/sec (0 = unlimited)")
		quotaCallB  = flag.Float64("quota-call-burst", 0, "call-quota burst capacity (default max(1, -quota-calls))")
		quotaToks   = flag.Float64("quota-tokens", 0, "per-client prompt-token quota in tokens/sec (0 = unlimited)")
		quotaTokB   = flag.Float64("quota-token-burst", 0, "token-quota burst capacity (default max(1, -quota-tokens))")
		cache       = flag.Int("cache", 65536, "result cache capacity in entries (negative disables)")
		backendName = flag.String("backend", "sim", "serving backend: sim (one engine per batch), persistent (long-lived engine replicas per stage, prefix cache survives between batches), or sharded-sim/sharded-persistent (data-parallel fan-out)")
		shards      = flag.Int("shards", 1, "data-parallel shards per batch: >1 wraps -backend in a sharded fan-out (sharded-* backends default to 4); with -worker, 1 leaves /v1/batch at the worker's own default of 4")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests")
		slowQuery   = flag.Duration("slow-query", 0, "slow-query threshold: statements at least this slow are logged and their traces retained in /v1/traces (0 disables)")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		debugAddr   = flag.String("debug-addr", "", "separate listen address for pprof and expvar debug endpoints (empty disables; never served on the public address)")
		workerMode  = flag.Bool("worker", false, "run as a cluster worker: serve POST /v1/batch against the local -backend (no tables or runtime needed)")
		clusterW    = flag.String("cluster-workers", "", "comma-separated worker addresses for -backend remote (the cluster router)")
		faultSpec   = flag.String("faults", "", "chaos fault-injection spec (see docs/API.md): on a -worker it corrupts/aborts/delays served responses; with -backend remote it faults router→worker traffic")
		hedgeAfter  = flag.Duration("hedge-after", 0, "with -backend remote: hedge a batch to the next ring node after this long without an answer (0 = adaptive: the slowest of the last 128 successful batches; negative disables)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	var injector *faults.Injector
	if *faultSpec != "" {
		if injector, err = faults.Parse(*faultSpec); err != nil {
			fatal(err)
		}
		logger.Warn("llmqserve: CHAOS MODE, fault injection armed", "spec", *faultSpec)
	}

	// A worker's chaos faults the wire it serves (middleware below), not its backend.
	backendChaos := injector
	if *workerMode {
		backendChaos = nil
	}
	be, err := cli.ResolveBackend(*backendName, *shards, *clusterW, cluster.Config{HedgeAfter: *hedgeAfter}, backendChaos)
	if err != nil {
		fatal(err)
	}
	var worker *server.Worker
	if *workerMode {
		if *backendName == "remote" {
			fatal(fmt.Errorf("-worker does not compose with -backend remote: a worker serves a local backend"))
		}
		worker = server.NewWorker(be, logger)
		logger.Info("llmqserve: cluster worker mode, serving /v1/batch", "backend", *backendName)
	}

	var rt *runtime.Runtime
	if len(csvs) > 0 || len(datasets) > 0 {
		db := sqlfront.NewDB()
		if err := cli.RegisterTables(db, datasets, csvs, datagen.Options{Scale: *scale, Seed: *seed}); err != nil {
			fatal(err)
		}
		rt = runtime.New(db, runtime.Config{
			Workers:          *workers,
			BatchWindow:      *window,
			BatchClassWindow: *classWindow,
			FIFOAdmission:    *fifo,
			CacheCapacity:    *cache,
			Backend:          be,
			DefaultQuota: runtime.Quota{
				CallsPerSec:  *quotaCalls,
				CallBurst:    *quotaCallB,
				TokensPerSec: *quotaToks,
				TokenBurst:   *quotaTokB,
			},
			SlowQueryThreshold: *slowQuery,
			SlowLogger:         logger,
		})
		admission := "weighted-fair"
		if *fifo {
			admission = "FIFO"
		}
		logger.Info("llmqserve: /v1/sql serving",
			"tables", strings.Join(db.Tables(), ","),
			"workers", *workers,
			"batchWindow", window.String(),
			"backend", *backendName,
			"admission", admission,
			"slowQuery", slowQuery.String())
	} else {
		logger.Info("llmqserve: no tables registered; /v1/sql disabled (use -csv/-dataset)")
	}

	router, _ := be.(*cluster.Router)
	srvCfg := server.Config{Runtime: rt, Worker: worker, Cluster: router, AccessLog: logger}
	handler := server.NewWithConfig(srvCfg)
	if injector != nil && *workerMode {
		// Worker-side chaos faults the wire as served: 5xx answers, corrupt
		// bodies, aborted connections, latched crashes — including /healthz,
		// so routers see exactly what a dead process looks like.
		handler = faults.Middleware(injector, handler)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = startDebugServer(*debugAddr, srvCfg, logger)
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections, let
	// in-flight statements finish (bounded by -drain), then drain the
	// runtime's worker pool so nothing dies mid-batch.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("llmqserve listening", "addr", *addr)

	select {
	case err := <-errCh:
		// Listener died on its own; drain what we can and report.
		shutdown(rt, be, debugSrv)
		logger.Error("llmqserve: listener failed", "error", err)
		os.Exit(1)
	case <-sigCtx.Done():
		stop() // restore default signal behavior: a second signal kills hard
		logger.Info("llmqserve: signal received, draining", "deadline", drain.String())
		if worker != nil {
			// Flip the drain flag BEFORE shutting the listener down: /healthz
			// starts answering 503, so cluster routers mark this worker down
			// and re-ring its stages while in-flight batches finish below.
			worker.SetDraining(true)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Warn("llmqserve: shutdown", "error", err)
		}
		shutdown(rt, be, debugSrv)
		logger.Info("llmqserve: drained, exiting")
	}
}

// buildLogger constructs the process logger for -log-format.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q: want text or json", format)
	}
}

// startDebugServer serves pprof and expvar on their own listener, separate
// from the public API mux: profiles and runtime internals never ride the
// address a load balancer exposes. Handlers are registered on a private mux
// (not http.DefaultServeMux) so nothing else the process imports can leak
// endpoints onto it.
func startDebugServer(addr string, cfg server.Config, logger *slog.Logger) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	if cfg.Runtime != nil {
		// Publish the GET /v1/metrics snapshot as an expvar, computed on
		// demand per scrape.
		expvar.Publish("llmq", expvar.Func(func() any { return cfg.Metrics() }))
		mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(cfg.Metrics())
		})
	}
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Warn("llmqserve: debug listener failed", "error", err)
		}
	}()
	logger.Info("llmqserve debug listening", "addr", addr)
	return srv
}

// shutdown drains the runtime (in-flight statements complete, pending
// batches flush), releases the backend's long-lived engines, and closes the
// debug listener.
func shutdown(rt *runtime.Runtime, be backend.Backend, debugSrv *http.Server) {
	if rt != nil {
		rt.Close()
	}
	if be != nil {
		_ = be.Close()
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llmqserve: %v\n", err)
	os.Exit(1)
}
