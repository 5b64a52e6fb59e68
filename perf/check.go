package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/sqlfront"
)

// The correctness checks of the served workloads. Every op was already
// validated (columns, row count) when it was served; these run after the
// timed phase and fail the run like any failed op.

// sameRelation requires a served relation to be byte-identical to the
// reference one.
func sameRelation(got relation, wantCols []string, wantRows [][]string) error {
	if !slices.Equal(got.cols, wantCols) {
		return fmt.Errorf("op %d: served columns %v, reference %v", got.st.ID, got.cols, wantCols)
	}
	if len(got.rows) != len(wantRows) {
		return fmt.Errorf("op %d: served %d rows, reference %d", got.st.ID, len(got.rows), len(wantRows))
	}
	for i := range wantRows {
		if !slices.Equal(got.rows[i], wantRows[i]) {
			return fmt.Errorf("op %d: row %d served %q, reference %q", got.st.ID, i, got.rows[i], wantRows[i])
		}
	}
	return nil
}

// conserved requires the model calls the responses reported to sum to what
// the runtime's own accounting charged over the same phase.
func conserved(responses, charged int64) error {
	if responses != charged {
		return fmt.Errorf("llmCalls not conserved: responses sum to %d, Runtime.Metrics().LLMCalls moved by %d", responses, charged)
	}
	return nil
}

// check re-executes the seeded 1-in-8 sample of served statements through
// plain single-process sqlfront.DB.ExecContext — no runtime, no cache, the
// default per-batch sim backend — and requires byte-identical relations;
// then the accounting identities.
func (s *served) check(ctx context.Context, d *drive) (int64, []string) {
	var checks int64
	var bad []string
	ref := sqlfront.NewDB()
	ref.Register("reviews", s.tbl)
	s.mu.Lock()
	sample := s.sample
	s.mu.Unlock()
	for _, got := range sample {
		checks++
		want, err := ref.ExecContext(ctx, got.st.SQL, sqlfront.ExecConfig{})
		if err != nil {
			bad = append(bad, fmt.Sprintf("op %d: reference execution: %v", got.st.ID, err))
			continue
		}
		if err := sameRelation(got, want.Columns, want.Rows); err != nil {
			bad = append(bad, err.Error())
		}
	}
	if d.count.OK > 0 && len(sample) == 0 && d.count.OK >= 4*sampleEvery {
		bad = append(bad, "correctness sample is empty")
	}

	checks++
	if err := conserved(s.respLLMCalls.Load(), d.virt.LLMCalls); err != nil {
		bad = append(bad, err.Error())
	}
	checks++
	if n := s.after.StatementsFailed - s.before.StatementsFailed; n != 0 {
		bad = append(bad, fmt.Sprintf("runtime counted %d failed statements", n))
	}
	if s.tp.router != nil {
		checks++
		var opens int64
		for _, w := range s.tp.router.Metrics().Workers {
			opens += w.Markdowns
		}
		if opens != 0 {
			bad = append(bad, fmt.Sprintf("cluster.breaker_opens = %d, want 0", opens))
		}
	}
	return checks, bad
}
