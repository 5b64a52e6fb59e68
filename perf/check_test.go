package main

import (
	"context"
	"strings"
	"testing"
)

func TestSameRelationFailsOnCorruption(t *testing.T) {
	cols := []string{"movietitle", "n"}
	rows := [][]string{{"Alpha", "3"}, {"Beta", "5"}}
	got := relation{st: stmt{ID: 9}, cols: cols, rows: [][]string{{"Alpha", "3"}, {"Beta", "5"}}}
	if err := sameRelation(got, cols, rows); err != nil {
		t.Fatalf("identical relation rejected: %v", err)
	}
	corrupt := []struct {
		name string
		rel  relation
		want string
	}{
		{"one cell differs", relation{st: stmt{ID: 9}, cols: cols, rows: [][]string{{"Alpha", "3"}, {"Beta", "6"}}}, "row 1"},
		{"row missing", relation{st: stmt{ID: 9}, cols: cols, rows: rows[:1]}, "1 rows"},
		{"rows swapped", relation{st: stmt{ID: 9}, cols: cols, rows: [][]string{rows[1], rows[0]}}, "row 0"},
		{"column renamed", relation{st: stmt{ID: 9}, cols: []string{"movietitle", "count"}, rows: rows}, "columns"},
	}
	for _, c := range corrupt {
		err := sameRelation(c.rel, cols, rows)
		if err == nil {
			t.Errorf("%s: corrupted relation accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "op 9") {
			t.Errorf("%s: error %q does not name op 9 and %q", c.name, err, c.want)
		}
	}
}

func TestConservedFailsOnMismatch(t *testing.T) {
	if err := conserved(1200, 1200); err != nil {
		t.Fatalf("equal sums rejected: %v", err)
	}
	if err := conserved(1199, 1200); err == nil {
		t.Fatal("a model call the responses do not account for went unnoticed")
	}
}

func TestValidateRejectsWrongShape(t *testing.T) {
	st := stmt{ID: 1, Columns: []string{"a", "b"}, Rows: 2, MaxRows: 5}
	ok := reply{cols: []string{"a", "b"}, rows: [][]string{{"1", "2"}, {"3", "4"}}}
	if err := validate(st, ok); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	if validate(st, reply{cols: []string{"a"}, rows: ok.rows}) == nil {
		t.Error("wrong column list accepted")
	}
	if validate(st, reply{cols: ok.cols, rows: ok.rows[:1]}) == nil {
		t.Error("wrong row count accepted")
	}
	open := stmt{ID: 2, Columns: []string{"a", "b"}, Rows: -1, MaxRows: 1}
	if validate(open, ok) == nil {
		t.Error("more rows than the plain predicates admit accepted")
	}
}

// TestCheckerCatchesCorruptedServedRelation runs a real (tiny) adhoc-cold
// session and corrupts what it retained: the end-of-run checker must notice
// both a changed relation and a broken llmCalls sum.
func TestCheckerCatchesCorruptedServedRelation(t *testing.T) {
	ctx := context.Background()
	s, err := setupAdhoc(topoSolo, tiny.adhocRows)(ctx, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close(ctx)
	d := s.drive(ctx, budget{Ops: 48})
	if d.count.Failed != 0 {
		t.Fatalf("failed ops: %v", d.errs)
	}
	if n, bad := s.check(ctx, d); len(bad) != 0 || n == 0 {
		t.Fatalf("clean run: %d checks, violations %v", n, bad)
	}

	as := s.(*adhocSession)
	if len(as.sample) == 0 {
		t.Fatal("no statement fell in the correctness sample")
	}
	victim := &as.sample[0]
	if len(victim.rows) == 0 {
		victim.rows = append(victim.rows, []string{"phantom", "row"})
	} else {
		victim.rows[0] = append([]string(nil), victim.rows[0]...)
		victim.rows[0][0] += " (tampered)"
	}
	_, bad := s.check(ctx, d)
	if len(bad) != 1 || !strings.Contains(bad[0], "op ") {
		t.Fatalf("corrupted relation: violations %v, want exactly the tampered op", bad)
	}

	as.respLLMCalls.Add(1)
	_, bad = s.check(ctx, d)
	if len(bad) != 2 || !strings.Contains(strings.Join(bad, "\n"), "llmCalls not conserved") {
		t.Fatalf("non-conserved llmCalls: violations %v", bad)
	}
}
