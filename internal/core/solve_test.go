package core

import (
	"errors"
	"testing"

	"repro/internal/table"
)

// TestSolve: every solver name yields a verified schedule whose PHC is the
// direct call's, option spellings reach the solver, and the two failures a
// caller must tell apart carry their sentinels.
func TestSolve(t *testing.T) {
	tb := fig1bTable(3)
	opt := SolveOptions{LenOf: table.UnitLen}
	want := map[string]int64{
		"":          GGR(tb, DefaultGGROptions(table.UnitLen)).PHC,
		"ggr":       GGR(tb, DefaultGGROptions(table.UnitLen)).PHC,
		"bestfixed": PHC(BestFixed(tb, table.UnitLen), table.UnitLen),
	}
	exact, err := OPHR(tb, OPHROptions{LenOf: table.UnitLen})
	if err != nil {
		t.Fatal(err)
	}
	want["ophr"] = exact.PHC
	for alg, phc := range want {
		res, err := Solve(tb, alg, opt)
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if err := Verify(tb, res.Schedule); err != nil {
			t.Errorf("%q: %v", alg, err)
		}
		if res.PHC != phc || PHC(res.Schedule, table.UnitLen) != phc {
			t.Errorf("%q: PHC = %d (recount %d), want %d", alg, res.PHC, PHC(res.Schedule, table.UnitLen), phc)
		}
	}
	if want["ophr"] <= want["bestfixed"] {
		t.Errorf("Fig. 1b: exact PHC %d should exceed the best fixed order's %d", want["ophr"], want["bestfixed"])
	}

	if _, err := Solve(tb, "nope", opt); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := Solve(tb, "ophr", SolveOptions{LenOf: table.UnitLen, OPHRNodeBudget: 1}); !errors.Is(err, ErrBudget) {
		t.Errorf("one-node OPHR: err = %v, want ErrBudget", err)
	}

	// Exhaustive and DisableFDs are GGR's own options under Solve's names.
	fd := table.New("id", "name", "note")
	fd.MustAppendRow("1", "ann", "x")
	fd.MustAppendRow("2", "bob", "y")
	fd.MustAppendRow("1", "ann", "z")
	fds := table.NewFDSet()
	fds.AddGroup("id", "name")
	if err := fd.SetFDs(fds); err != nil {
		t.Fatal(err)
	}
	for _, o := range []SolveOptions{{Exhaustive: true}, {DisableFDs: true}, {Exhaustive: true, DisableFDs: true}} {
		direct := ExhaustiveGGROptions(table.CharLen)
		if !o.Exhaustive {
			direct = DefaultGGROptions(table.CharLen)
		}
		direct.UseFDs = !o.DisableFDs
		res, err := Solve(fd, "ggr", o)
		if err != nil {
			t.Fatal(err)
		}
		if d := GGR(fd, direct); res.PHC != d.PHC || res.Estimate != d.Estimate {
			t.Errorf("%+v: Solve PHC/Estimate %d/%d, GGR %d/%d", o, res.PHC, res.Estimate, d.PHC, d.Estimate)
		}
	}
}
