package cluster

import (
	"fmt"

	"repro/internal/backend"
)

// Resolve is the fleet-aware backend resolver both CLIs share: the name
// "remote" builds a Router over the given worker addresses, and every other
// name delegates to backend.ByNameShards — one source of truth, so the
// local and distributed flag surfaces cannot drift apart.
//
// shards composes only with local backends: the router sends whole batches
// and each worker owns its own fan-out (server.NewWorker), so a shard count
// on the router is rejected rather than silently ignored.
//
// cfg's Workers field is overridden by the workers argument, so the only
// thing a caller sets in it is the HTTPClient (a chaos transport, or a
// benchmark's tracing one); the zero Config is the production router.
func Resolve(name string, shards int, workers []string, cfg Config) (backend.Backend, error) {
	if name == "remote" {
		if len(workers) == 0 {
			return nil, fmt.Errorf("cluster: backend %q needs worker addresses: pass -cluster-workers host:port,...", name)
		}
		if shards > 1 {
			return nil, fmt.Errorf("cluster: -shards does not compose with backend %q: a worker owns its own fan-out: set -shards on the worker", name)
		}
		cfg.Workers = workers
		return NewRouter(cfg)
	}
	if len(workers) > 0 {
		return nil, fmt.Errorf("cluster: -cluster-workers only composes with -backend remote, got %q", name)
	}
	return backend.ByNameShards(name, shards)
}
