// Command perf is this repo's benchmark: four workloads, measured on two
// clocks (the virtual JCT the serving simulator charges, and the wall time,
// CPU and allocations the Go process spends) at two grains (an op end to
// end, and each layer it crosses). See README.md.
//
//	go run -C perf . -seed 1                       every workload, untraced + traced
//	go run -C perf . -workload adhoc-cold -seed 1  one workload, untraced + traced
//	go run -C perf . -workload adhoc-cold -seed 1 -seconds 12 -trace 0
//	                                               one run; last stdout line is its JSON result
//	go run -C perf . -compare old.json new.json    diff two (sets of) result files
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
)

// sizes are the input sizes of the four workloads.
type sizes struct {
	batchScale float64 // dataset scale of batch-analytics (1.0 = the paper's sizes)
	dashRows   int     // dashboard-refresh's table
	dashWarmup int     // dashboard-refresh's untimed warm-up ticks
	adhocRows  int     // adhoc-cold's and fleet-routed's table
}

// fullSize is the benchmark's own sizing: the paper's datasets at a tenth,
// 656 days of 16 rows under the dashboard, and a 300-row ad-hoc table of
// which the pushdown keeps a quarter.
var fullSize = sizes{batchScale: 0.1, dashRows: 10_500, dashWarmup: 20, adhocRows: 300}

// workloads is the benchmark. The whys are repeated in BENCHMARK.json.
var workloads = workloadsOf(fullSize)

func workloadsOf(sz sizes) []workload {
	return []workload{
		{
			name:  "batch-analytics",
			why:   "the paper's own setting: its 16 queries through the library path under cache-ggr and cache-original; core, tokenizer, llmsim and query do all the work, the serving tier none",
			setup: setupBatch(sz.batchScale),
		},
		{
			name:  "dashboard-refresh",
			why:   "8 tenants re-submit 3 shared LLM prompts over a sliding window through the Runtime API: ~94% result-cache reads, inflight dedup, and a batch window that pays by coalescing",
			setup: setupDashboard(sz.dashRows, sz.dashWarmup),
		},
		{
			name:  "adhoc-cold",
			why:   "2 closed-loop clients POST unique-prompt statements to /v1/sql: every plan and result cache lookup misses, nothing coalesces, and the batch window is pure tax on the whole stack",
			setup: setupAdhoc(topoSolo, sz.adhocRows),
		},
		{
			name:  "fleet-routed",
			why:   "the adhoc-cold stream against a router and 2 persistent workers: its difference to adhoc-cold is the cost of cluster.Router, backend.Remote, the JSON wire and the worker handler",
			setup: setupAdhoc(topoFleet, sz.adhocRows),
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeconds is one run's measuring time; BENCHMARK.json's run_seconds
// repeats it.
const defaultSeconds = 12

func main() {
	var (
		name       = flag.String("workload", "", "run one workload (default: all four)")
		seed       = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds    = flag.Float64("seconds", defaultSeconds, "wall seconds the timed phase measures for")
		ops        = flag.Int64("ops", 0, "serve exactly this many ops instead of measuring for -seconds (virtual counters then repeat exactly)")
		trace      = flag.String("trace", "", "0: one untraced run printing the end-to-end metrics; 1: one traced run printing the per-layer metrics; unset: both, each in a process of its own")
		outDir     = flag.String("out", "out", "directory for result and trace files")
		compare    = flag.Bool("compare", false, "compare result files: -compare OLD[,OLD...] NEW[,NEW...]")
		benchFile  = flag.String("benchmark", "", "BENCHMARK.json holding the bounds -compare applies (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run (with -trace 0 or 1)")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run (with -trace 0 or 1)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, *benchFile, flag.Args())
	case *trace == "":
		err = runAll(ctx, *name, *seed, budget{Seconds: *seconds, Ops: *ops}, *outDir)
	default:
		err = runOne(ctx, *name, *seed, budget{Seconds: *seconds, Ops: *ops}, *trace == "1", *outDir, *cpuProfile, *memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// errIncorrect is a completed run whose checks failed: results are printed,
// the exit code is non-zero.
var errIncorrect = errors.New("run incorrect: an op failed or a correctness check was violated")

// runOne is one run of one workload in this process. The human-readable
// report goes to standard error, the contract's JSON line to standard
// output, and the full record to <out>/<workload>.<e2e|layers>.json.
func runOne(ctx context.Context, name string, seed int64, b budget, traced bool, outDir, cpuProfile, memProfile string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	prov := newProvenance(seed, b)
	o, err := runWorkload(ctx, w, seed, b, traced, setupReps)
	if err != nil {
		return err
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
	}

	defs, values, kind := endToEndDefs, endToEnd(o), "e2e"
	var traceFile string
	if traced {
		defs, kind = perLayerDefs, "layers"
		values = o.layers
		values["trace.spans"] = float64(len(o.spans))
		// The tracing overhead is the untraced run's throughput over this
		// one's: the reference is a fresh untraced process of the same
		// workload, seed and budget.
		ref, err := childRun(ctx, name, seed, b, false, outDir)
		if err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
		values["trace.overhead_ratio"] = ratio(ref.Metrics["ops_per_s"].Value, ratio(float64(o.d.count.OK), o.d.m.Wall.Seconds()))
		values["trace.blocking_path_ratio"] = blockingPathRatio(values, ref.Metrics["latency_p50_ms"].Value)
		if traceFile, err = writeTrace(outDir, name, seed, o.rec, o.spans); err != nil {
			return err
		}
	}
	r := record(o, defs, complete(defs, values))
	r.TraceFile = traceFile
	printRun(os.Stderr, r, defs)
	if err := writeResult(fmt.Sprintf("%s/%s.%s.json", outDir, name, kind), resultFile{Provenance: prov, Runs: []runRecord{r}}); err != nil {
		return err
	}
	fmt.Println(contractLine(r))
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

// blockingPathRatio is the sum of the per-layer parts on a served
// statement's blocking path over the untraced median latency: with two
// closed-loop clients nothing queues, so the parts should account for the
// whole.
func blockingPathRatio(v map[string]float64, latencyP50Ms float64) float64 {
	if v["server.handle_ms_p50"] == 0 {
		return 0 // no served blocking path on the library and Runtime-API workloads
	}
	parts := (v["loadgen.client_overhead_us"]+v["server.self_us_per_stmt"]+v["runtime.self_us_per_stmt"]+v["sqlfront.relational_us_per_stmt"])/1e3 +
		v["sqlfront.stages_per_stmt"]*(v["query.self_ms_per_stage"]+v["backend.run_batch_ms_p50"])
	return ratio(parts, latencyP50Ms)
}

// childRun runs one workload in a fresh process of this same binary, so
// set-up time, peak RSS, allocation counts and cache state never leak from
// one run into the next, and reads back the record it wrote.
func childRun(ctx context.Context, name string, seed int64, b budget, traced bool, outDir string) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, fmt.Errorf("locate own binary: %w", err)
	}
	mode, kind := "0", "e2e"
	if traced {
		mode, kind = "1", "layers"
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(b.Seconds, 'g', -1, 64), "-ops", strconv.FormatInt(b.Ops, 10),
		"-trace", mode, "-out", outDir)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	rf, err := readResult(fmt.Sprintf("%s/%s.%s.json", outDir, name, kind))
	if err != nil {
		if runErr != nil {
			return runRecord{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return runRecord{}, err
	}
	return rf.Runs[0], nil
}

// runAll runs every workload (or the one named) untraced and traced, each in
// a fresh process, and merges their records into <out>/result.json.
func runAll(ctx context.Context, only string, seed int64, b budget, outDir string) error {
	rf := resultFile{Provenance: newProvenance(seed, b)}
	correct := true
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		for _, traced := range []bool{false, true} {
			r, err := childRun(ctx, w.name, seed, b, traced, outDir)
			if err != nil {
				return err
			}
			correct = correct && r.Correct
			rf.Runs = append(rf.Runs, r)
		}
	}
	if len(rf.Runs) == 0 {
		return fmt.Errorf("unknown workload %q (have %s)", only, strings.Join(workloadNames(), ", "))
	}
	path := outDir + "/result.json"
	if err := writeResult(path, rf); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs, seed %d, %d closed-loop clients)\n", path, len(rf.Runs), seed, clients())
	if !correct {
		return errIncorrect
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
