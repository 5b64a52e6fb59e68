// Command llmqbench regenerates the paper's tables and figures.
//
// Usage:
//
//	llmqbench -exp fig3a                 # one experiment, default scale
//	llmqbench -exp all -scale 1 -seed 1  # every experiment at paper scale
//	llmqbench -list                      # available experiment IDs
//	llmqbench -exp table2 -format csv    # machine-readable output
//
// Experiment IDs map to paper artifacts in internal/bench's registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment ID (see -list) or 'all'")
		scale  = flag.Float64("scale", 0.1, "dataset scale; 1.0 = the paper's sizes")
		seed   = flag.Int64("seed", 1, "random seed for data generation and resampling")
		reps   = flag.Int("reps", 10000, "bootstrap resamples for fig6")
		budget = flag.Int64("ophr-budget", 3_000_000, "OPHR node budget for table6")
		format = flag.String("format", "text", "output format: text or csv")
		list   = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}

	cfg := bench.Config{
		Scale:          *scale,
		Seed:           *seed,
		BootstrapReps:  *reps,
		OPHRNodeBudget: *budget,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.RunContext(context.Background(), id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmqbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			fmt.Print(rep.CSV())
		case "text":
			fmt.Print(rep.Text())
			fmt.Printf("(%s in %.1fs wall clock, scale %g)\n\n", id, time.Since(start).Seconds(), *scale)
		default:
			fmt.Fprintf(os.Stderr, "llmqbench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}
}
