// Package cli is the flag plumbing the llmqserve and llmqsql mains share, so
// the two cannot drift apart.
package cli

import (
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"unicode"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// RegisterTables registers each bundled dataset under its own name
// (generated with opts) and each "name=path" CSV under name.
func RegisterTables(db *sqlfront.DB, datasets, csvs []string, opts datagen.Options) error {
	register := func(name string, t *table.Table) error {
		// Register is last-write-wins; a repeated name is a typo that would
		// silently shadow an earlier table.
		if slices.Contains(db.Tables(), name) {
			return fmt.Errorf("table %q registered twice; give each -csv/-dataset a distinct name", name)
		}
		db.Register(name, t)
		return nil
	}
	for _, name := range datasets {
		d, err := datagen.RelationalByName(name, opts)
		if err != nil {
			return err
		}
		if err := register(name, d.Table); err != nil {
			return err
		}
	}
	for _, spec := range csvs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("malformed -csv %q: want name=path", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		t, err := table.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := register(name, t); err != nil {
			return err
		}
	}
	return nil
}

// ResolveBackend builds the -backend named name (see cluster.Resolve) over
// the comma-separated -cluster-workers list. A non-nil chaos injector faults
// the serving path: the router→worker wire of the "remote" backend, the
// backend itself otherwise.
func ResolveBackend(name string, shards int, workers string, cfg cluster.Config, chaos *faults.Injector) (backend.Backend, error) {
	addrs := strings.FieldsFunc(workers, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	if chaos != nil {
		cfg.HTTPClient = &http.Client{Transport: faults.NewRoundTripper(nil, chaos)}
	}
	be, err := cluster.Resolve(name, shards, addrs, cfg)
	if err != nil || chaos == nil || name == "remote" {
		return be, err
	}
	return faults.NewBackend(be, chaos), nil
}
