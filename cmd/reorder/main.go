// Command reorder reads a CSV table on stdin, computes a cache-maximizing
// request schedule, and writes the reordered table as CSV on stdout with a
// summary on stderr.
//
// Usage:
//
//	reorder < table.csv > reordered.csv
//	reorder -algorithm bestfixed -fds "id,name" < table.csv
//	reorder -stats-only < table.csv        # just print PHC / hit rates
//
// Note that the emitted CSV uses a single header but per-row field orders
// may differ; the -emit row-json form preserves per-row key order, which is
// what an LLM prompt would contain.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

func main() {
	var (
		algorithm = flag.String("algorithm", "ggr", "ggr, ggr-exhaustive, ophr, or bestfixed")
		fds       = flag.String("fds", "", "comma-separated FD groups, ';'-separated, e.g. \"id,name;city,zip\"")
		mineFDs   = flag.Bool("mine-fds", false, "discover functional dependencies from the data")
		statsOnly = flag.Bool("stats-only", false, "print PHC and hit rates, no table output")
		emit      = flag.String("emit", "csv", "output form: csv or row-json (preserves per-row field order)")
	)
	flag.Parse()

	t, err := table.ReadCSV(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if *mineFDs {
		if err := t.SetFDs(table.Mine(t)); err != nil {
			fatal(err)
		}
	} else if *fds != "" {
		set := table.NewFDSet()
		for _, group := range strings.Split(*fds, ";") {
			var cols []string
			for _, c := range strings.Split(group, ",") {
				if c = strings.TrimSpace(c); c != "" {
					cols = append(cols, c)
				}
			}
			set.AddGroup(cols...)
		}
		if err := t.SetFDs(set); err != nil {
			fatal(err)
		}
		if err := set.Validate(t); err != nil {
			fatal(fmt.Errorf("declared FDs do not hold: %w", err))
		}
	}

	// "ggr-exhaustive" is this command's spelling of the Exhaustive option.
	solver, exhaustive := *algorithm, false
	if solver == "ggr-exhaustive" {
		solver, exhaustive = "ggr", true
	}
	res, err := core.Solve(t, solver, core.SolveOptions{LenOf: tokenizer.Count, Exhaustive: exhaustive})
	if err != nil {
		fatal(err)
	}

	orig := core.Original(t)
	fmt.Fprintf(os.Stderr, "rows=%d cols=%d\n", t.NumRows(), t.NumCols())
	fmt.Fprintf(os.Stderr, "PHC:      original=%d  %s=%d\n", core.PHC(orig, tokenizer.Count), *algorithm, res.PHC)
	fmt.Fprintf(os.Stderr, "hit rate: original=%.1f%%  %s=%.1f%%\n",
		100*core.Hits(orig, tokenizer.Count).Rate(), *algorithm, 100*core.Hits(res.Schedule, tokenizer.Count).Rate())
	if *statsOnly {
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	switch *emit {
	case "row-json":
		for _, row := range res.Schedule.Rows {
			fmt.Fprintln(w, query.RowJSON(row.Cells))
		}
	case "csv":
		out := table.New(t.Columns()...)
		for _, row := range res.Schedule.Rows {
			out.MustAppendRow(t.Row(row.Source)...)
		}
		if err := out.WriteCSV(w); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown emit form %q", *emit))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "reorder: %v\n", err)
	os.Exit(1)
}
