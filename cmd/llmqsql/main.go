// Command llmqsql executes an LLM-SQL statement over CSV tables and/or the
// bundled benchmark datasets, on the serving simulator.
//
// Usage:
//
//	llmqsql -csv tickets.csv -table tickets \
//	   "SELECT ticket_id, LLM('Did it help?', support_response, request) FROM tickets"
//
//	llmqsql -dataset Movies -scale 0.05 \
//	   "SELECT movietitle FROM Movies WHERE LLM('Suitable for kids?', movieinfo, genres) = 'Yes'"
//
//	llmqsql -csv tickets=tickets.csv -csv customers=customers.csv \
//	   "SELECT t.ticket_id, c.region \
//	    FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id \
//	    WHERE c.tier = 'pro' AND LLM('Did it help?', t.support_response) = 'Yes'"
//
// Both -csv (name=path, or a bare path registered under -table) and
// -dataset repeat, so FROM clauses may join any mix of registrations with
// inner equi-joins, qualifying columns as alias.column. WHERE clauses are
// AND/OR/NOT trees over LLM and plain-column comparisons; SELECT lists admit
// COUNT/SUM/MIN/MAX/AVG aggregates, GROUP BY, and ORDER BY ... LIMIT.
// Statements run through the logical planner (table-local plain predicates
// pushed below the join, distinct LLM calls deduplicated, LLM filters
// cascaded cheapest-first); -naive disables the planner so its savings can
// be measured.
//
// The -policy flag switches scheduling (no-cache / cache-original /
// cache-ggr) without changing results; -backend picks the serving target
// ("sim" = one engine per stage batch, "persistent" = long-lived engine
// replicas whose prefix cache survives between this statement's stages that
// share a prompt, "sharded-sim"/"sharded-persistent" = the same behind a
// data-parallel fan-out, "remote" = a cluster router over the workers named
// by -cluster-workers) and -shards N composes a fan-out of N engine
// replicas with the local backends. None of these change results; serving
// statistics print on stderr.
//
// Statements run on the same multi-tenant runtime llmqserve serves from, so
// the identity knobs carry through: -client names the tenant the statement
// is accounted to and -class picks its service class ("interactive" or
// "batch" — the class selects the admission weight and coalescing window a
// server would apply; for this one-shot CLI it is mostly an accounting
// label). Neither changes results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

func main() {
	var csvs, datasets []string
	flag.Func("csv", "CSV to register, as name=path or a bare path named by -table (repeatable)", func(v string) error { csvs = append(csvs, v); return nil })
	flag.Func("dataset", "bundled dataset to register under its own name (repeatable)", func(v string) error { datasets = append(datasets, v); return nil })
	var (
		tblName = flag.String("table", "t", "name for a bare-path -csv registration")
		scale   = flag.Float64("scale", 0.05, "dataset scale when -dataset is used")
		seed    = flag.Int64("seed", 1, "dataset seed")
		policy  = flag.String("policy", "cache-ggr", "no-cache, cache-original, or cache-ggr")
		naive   = flag.Bool("naive", false, "disable the logical planner (no pushdown, dedup, or cost-ordered filters)")
		client  = flag.String("client", "", "client identity the statement is accounted to (default anonymous)")
		class   = flag.String("class", "", "service class: interactive (default) or batch")
		beName  = flag.String("backend", "sim", "serving backend: sim, persistent, sharded-sim, sharded-persistent, or remote (cluster router; needs -cluster-workers)")
		shards  = flag.Int("shards", 1, "data-parallel shards per batch: >1 wraps -backend in a sharded fan-out (sharded-* backends default to 4)")
		workers = flag.String("cluster-workers", "", "comma-separated worker addresses for -backend remote")
		maxRows = flag.Int("max-rows", 20, "result rows to print (0 = all)")
		faultsF = flag.String("faults", "", "chaos fault-injection spec (see docs/API.md): faults the serving path — router→worker wire with -backend remote, the local backend otherwise")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "llmqsql: exactly one SQL statement argument is required")
		os.Exit(2)
	}
	if len(csvs) == 0 && len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "llmqsql: provide at least one -csv or -dataset")
		os.Exit(2)
	}

	// A bare-path -csv is this CLI's own shorthand: -table names it (a second
	// bare path is then rejected below as that name registered twice).
	for i, spec := range csvs {
		if !strings.Contains(spec, "=") {
			csvs[i] = *tblName + "=" + spec
		}
	}
	db := sqlfront.NewDB()
	if err := cli.RegisterTables(db, datasets, csvs, datagen.Options{Scale: *scale, Seed: *seed}); err != nil {
		fatal(err)
	}

	var injector *faults.Injector
	if *faultsF != "" {
		var err error
		if injector, err = faults.Parse(*faultsF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "llmqsql: CHAOS MODE, fault injection armed: %s\n", *faultsF)
	}
	be, err := cli.ResolveBackend(*beName, *shards, *workers, cluster.Config{}, injector)
	if err != nil {
		fatal(err)
	}
	defer be.Close()

	cls, err := runtime.ParseClass(*class)
	if err != nil {
		fatal(err)
	}

	// One-shot statements still go through the serving runtime, not straight
	// at db.Exec: the runtime is what carries client identity and service
	// class, so a CLI run is accounted exactly like a server request.
	rt := runtime.New(db, runtime.Config{Workers: 1, BatchWindow: -1, Backend: be})
	defer rt.Close()
	res, err := rt.Exec(flag.Arg(0), runtime.Options{
		Naive:  *naive,
		Policy: query.Policy(*policy),
		Client: runtime.ClientID(*client),
		Class:  cls,
	})
	if err != nil {
		fatal(err)
	}

	out := table.New(res.Columns...)
	n := len(res.Rows)
	if *maxRows > 0 && n > *maxRows {
		n = *maxRows
	}
	for _, row := range res.Rows[:n] {
		out.MustAppendRow(row...)
	}
	if err := out.WriteCSV(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d rows (%d shown), %d LLM calls over %d stage(s)\n",
		len(res.Rows), n, res.LLMCalls, res.Stages)
	plan := "planned"
	if *naive {
		plan = "naive"
	}
	fmt.Fprintf(os.Stderr, "virtual serving time %.1fs, prefix hit rate %.1f%%, solver %.3fs (policy %s, %s)\n",
		res.JCT, 100*res.HitRate, res.SolverSeconds, *policy, plan)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llmqsql: %v\n", err)
	os.Exit(1)
}
