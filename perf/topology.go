package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// topology is the system under test, assembled in-process with the exact
// constructors and defaults cmd/llmqserve uses: cluster.Resolve →
// runtime.New(Workers 4, BatchWindow 2 ms, CacheCapacity 65536) →
// server.NewWithConfig on a real 127.0.0.1:0 listener, the access log going
// to a discarding slog handler; fleet workers are backend.ByName
// ("persistent") → server.NewWorker on listeners of their own. With a
// recorder the traced run's decorators are mounted at the seams; without
// one nothing of the benchmark's sits between the program's layers.
type topology struct {
	db     *sqlfront.DB
	rt     *runtime.Runtime
	be     backend.Backend
	router *cluster.Router
	url    string // "" when the workload drives the Runtime API directly

	front   *node
	workers []*node

	// Decorator handles, nil in the untraced run.
	handler       *spanHandler
	backendSpans  *spanBackend
	workerHandles []*spanHandler
	workerEngines []*spanBackend
}

// node is one HTTP listener of the topology.
type node struct {
	srv  *http.Server
	addr string
	done chan error
	be   backend.Backend // a worker's local backend; nil on the front end
}

type topoKind int

const (
	topoRuntime topoKind = iota // Runtime API only, no listener (dashboard-refresh)
	topoSolo                    // /v1/sql on one process (adhoc-cold)
	topoFleet                   // router + 2 workers (fleet-routed)
)

// fleetWorkers is the fleet-routed topology's worker count.
const fleetWorkers = 2

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// serve starts h on a fresh loopback listener with llmqserve's timeouts.
func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      5 * time.Minute,
		},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// stop shuts the listener down and waits for its serve goroutine.
func (n *node) stop(ctx context.Context) {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(sctx); err != nil {
		_ = n.srv.Close() // drain deadline passed: drop what is left
	}
	<-n.done
	if n.be != nil {
		_ = n.be.Close() // engines only; nothing to report at teardown
	}
}

// newTopology boots the topology over tbl registered as "reviews".
func newTopology(ctx context.Context, kind topoKind, tbl *table.Table, rec *recorder) (*topology, error) {
	tp := &topology{db: sqlfront.NewDB()}
	tp.db.Register("reviews", tbl)
	logger := discardLogger()

	backendName := "sim"
	var workerAddrs []string
	clusterCfg := cluster.Config{}
	if kind == topoFleet {
		backendName = "remote"
		for i := 0; i < fleetWorkers; i++ {
			local, err := backend.ByName("persistent")
			if err != nil {
				tp.close(ctx)
				return nil, fmt.Errorf("worker backend: %w", err)
			}
			if rec != nil {
				eng := &spanBackend{inner: local, rec: rec, name: "cluster.worker_engine"}
				tp.workerEngines = append(tp.workerEngines, eng)
				local = eng
			}
			var h http.Handler = server.NewWithConfig(server.Config{Worker: server.NewWorker(local, logger), AccessLog: logger})
			if rec != nil {
				sh := &spanHandler{inner: h, rec: rec, name: "cluster.worker_handle", path: "/v1/batch"}
				tp.workerHandles = append(tp.workerHandles, sh)
				h = sh
			}
			n, err := serve(h)
			if err != nil {
				_ = local.Close()
				tp.close(ctx)
				return nil, err
			}
			n.be = local
			tp.workers = append(tp.workers, n)
			workerAddrs = append(workerAddrs, n.addr)
		}
		if rec != nil {
			clusterCfg.HTTPClient = &http.Client{Transport: &spanTransport{inner: http.DefaultTransport, rec: rec}}
		}
	}

	be, err := cluster.Resolve(backendName, 1, workerAddrs, clusterCfg)
	if err != nil {
		tp.close(ctx)
		return nil, fmt.Errorf("resolve backend: %w", err)
	}
	tp.router, _ = be.(*cluster.Router)
	if rec != nil {
		tp.backendSpans = &spanBackend{inner: be, rec: rec, name: "backend.run_batch"}
		be = tp.backendSpans
	}
	tp.be = be
	tp.rt = runtime.New(tp.db, runtime.Config{
		Workers:       4,
		BatchWindow:   2 * time.Millisecond,
		CacheCapacity: 65536,
		Backend:       be,
		SlowLogger:    logger,
	})
	if kind == topoRuntime {
		return tp, nil
	}

	var h http.Handler = server.NewWithConfig(server.Config{Runtime: tp.rt, Cluster: tp.router, AccessLog: logger})
	if rec != nil {
		tp.handler = &spanHandler{inner: h, rec: rec, name: "server.handle", path: "/v1/sql"}
		h = tp.handler
	}
	if tp.front, err = serve(h); err != nil {
		tp.close(ctx)
		return nil, err
	}
	tp.url = "http://" + tp.front.addr
	return tp, nil
}

// close tears the topology down in llmqserve's shutdown order: listener,
// runtime, backend, then the workers.
func (tp *topology) close(ctx context.Context) {
	if tp.front != nil {
		tp.front.stop(ctx)
	}
	if tp.rt != nil {
		tp.rt.Close()
	}
	if tp.be != nil {
		_ = tp.be.Close() // engines and idle connections only
	}
	for _, w := range tp.workers {
		w.stop(ctx)
	}
}
