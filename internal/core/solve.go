package core

import (
	"errors"
	"fmt"

	"repro/internal/table"
)

// ErrUnknownAlgorithm is returned by Solve for a solver name it does not know.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// SolveOptions is what the library, POST /v1/reorder and cmd/reorder let a
// caller vary; each keeps its own spelling of these at its surface.
type SolveOptions struct {
	LenOf          table.LenFunc // measures cell values; nil means table.CharLen
	Exhaustive     bool          // GGR only: no early stopping
	DisableFDs     bool          // GGR only: ignore the table's functional dependencies
	OPHRNodeBudget int64         // bounds the exact solver; 0 means OPHR's default
}

// Solve runs the named solver — "ggr" (or ""), "ophr", "bestfixed" — over t
// under the paper's evaluation settings, and returns the schedule only after
// Verify confirms it preserves query semantics. An OPHR that runs out of
// nodes fails with ErrBudget.
func Solve(t *table.Table, algorithm string, opt SolveOptions) (*Result, error) {
	if opt.LenOf == nil {
		opt.LenOf = table.CharLen
	}
	var res *Result
	switch algorithm {
	case "", "ggr":
		o := DefaultGGROptions(opt.LenOf)
		if opt.Exhaustive {
			o = ExhaustiveGGROptions(opt.LenOf)
		}
		o.UseFDs = !opt.DisableFDs
		res = GGR(t, o)
	case "ophr":
		var err error
		res, err = OPHR(t, OPHROptions{LenOf: opt.LenOf, MaxNodes: opt.OPHRNodeBudget})
		if err != nil {
			return nil, err
		}
	case "bestfixed":
		s := BestFixed(t, opt.LenOf)
		phc := PHC(s, opt.LenOf)
		res = &Result{Schedule: s, Estimate: phc, PHC: phc}
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownAlgorithm, algorithm)
	}
	if err := Verify(t, res.Schedule); err != nil {
		return nil, fmt.Errorf("core: internal error, schedule failed verification: %w", err)
	}
	return res, nil
}
