package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance is what two result files must agree on before their numbers
// are compared.
type provenance struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"gitCommit"`
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Clients    int     `json:"clients"`
	Loop       string  `json:"loop"`
	Seconds    float64 `json:"seconds,omitempty"`
	Ops        int64   `json:"ops,omitempty"`
	Started    string  `json:"started"`
}

func newProvenance(seed int64, b budget) provenance {
	return provenance{
		Seed:       seed,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Clients:    clients(),
		Loop:       "closed",
		Seconds:    b.Seconds,
		Ops:        b.Ops,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the checked-out commit, "unknown" outside a git checkout
// (the benchmark's driver runs from an export without .git). The checkout
// root is the working directory under perf/run.sh and its parent under
// go run -C perf; git is only asked when one of them is a repository, so it
// never walks above the checkout.
func gitCommit() string {
	root := "."
	if _, err := os.Stat("perf/go.mod"); err != nil {
		root = ".."
	}
	if _, err := os.Stat(root + "/.git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload as the result file keeps it.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Phases     map[string]phase       `json:"phases"`
	OpCounts   map[string]int64       `json:"opCounts"`
	SetupS     []float64              `json:"setupSeconds"`
	Latency    timing                 `json:"latencyMs"`
	Totals     map[string]float64     `json:"totals"`
	Metrics    map[string]metricValue `json:"metrics"`
	Violations []string               `json:"violations,omitempty"`
	Errors     []string               `json:"errors,omitempty"`
	TraceFile  string                 `json:"traceFile,omitempty"`
}

// resultFile is what a run writes and what -compare reads.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// record renders an outcome for the result file.
func record(o *outcome, defs []metricDef, values map[string]float64) runRecord {
	d := o.d
	r := runRecord{
		Workload: o.workload,
		Traced:   o.traced,
		Phases: map[string]phase{
			"setup": o.warm,
			"timed": d.count,
			"check": {Attempted: o.checks, OK: o.checks - int64(len(o.violations)), Failed: int64(len(o.violations)), WallS: o.checkWallS},
		},
		OpCounts: o.opCounts,
		SetupS:   o.setupS,
		Latency:  summarize(d.latMs),
		Totals: map[string]float64{
			"wallSeconds":      d.m.Wall.Seconds(),
			"cpuSeconds":       d.m.CPU.Seconds(),
			"jctVirtualS":      d.virt.JCT,
			"jctOriginalS":     d.jctOriginal,
			"promptTokens":     float64(d.virt.PromptTokens),
			"matchedTokens":    float64(d.virt.MatchedTokens),
			"llmCalls":         float64(d.virt.LLMCalls),
			"failedRatio":      ratio(float64(d.count.Failed), float64(d.count.Attempted)),
			"goroutinesAtExit": float64(o.goroutines),
		},
		Metrics:    map[string]metricValue{},
		Violations: o.violations,
		Errors:     d.errs,
	}
	for _, def := range defs {
		r.Metrics[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
	}
	r.Correct = d.count.Failed == 0 && d.count.OK > 0 && len(o.violations) == 0
	return r
}

// printRun writes the human-readable report of one run.
func printRun(w io.Writer, r runRecord, defs []metricDef) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	s, t, c := r.Phases["setup"], r.Phases["timed"], r.Phases["check"]
	fmt.Fprintf(w, "== %s (%s, %d closed-loop clients) ==\n", r.Workload, mode, clients())
	fmt.Fprintf(w, "warm-up: attempted %d, ok %d, failed %d (last set-up %.2fs)\n", s.Attempted, s.OK, s.Failed, s.WallS)
	fmt.Fprintf(w, "timed phase: attempted %d, ok %d, failed %d in %.2fs; checks: ran %d, violated %d in %.2fs\n",
		t.Attempted, t.OK, t.Failed, t.WallS, c.Attempted, c.Failed, c.WallS)
	l := r.Latency
	fmt.Fprintf(w, "latency: median %.3f ms", l.P50)
	if l.TailP > 0 {
		fmt.Fprintf(w, ", p%g %.3f ms", l.TailP, l.Tail)
	}
	fmt.Fprintf(w, " (n=%d)\n", l.N)
	for _, def := range defs {
		fmt.Fprintf(w, "  %-36s %14.4f %-6s (%s is better)\n", def.Name, r.Metrics[def.Name].Value, def.Unit, def.Better)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED OP: %s\n", e)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", r.TraceFile)
	}
}

// writeResult writes rf to path, creating its directory.
func writeResult(path string, rf resultFile) error {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		if err := os.MkdirAll(path[:i], 0o755); err != nil {
			return fmt.Errorf("result dir: %w", err)
		}
	}
	body, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	body, err := os.ReadFile(path)
	if err != nil {
		return rf, fmt.Errorf("read result: %w", err)
	}
	if err := json.Unmarshal(body, &rf); err != nil {
		return rf, fmt.Errorf("decode %s: %w", path, err)
	}
	return rf, nil
}

// contractLine is the one JSON object a single run prints last on standard
// output: the benchmark contract's result.
func contractLine(r runRecord) string {
	t := r.Phases["timed"]
	c := r.Phases["check"]
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, t.Attempted + c.Attempted, t.Failed + c.Failed, r.Metrics}
	body, err := json.Marshal(line)
	if err != nil {
		panic(err) // unreachable: plain numbers and strings
	}
	return string(body)
}
