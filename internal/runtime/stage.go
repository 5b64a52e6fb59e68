package runtime

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// RunStage is the runtime's stage executor, injected into
// sqlfront.ExecConfig.StageRunner for every statement the runtime serves.
// For each row of the stage it decides, in one atomic cache step, whether
// the call's answer is already cached, already being computed by a
// concurrent statement (inflight dedup), or ours to compute; owned rows go
// through the cross-query micro-batcher. The returned StageResult matches
// query.RunStageContext's contract — Outputs indexed by tbl's rows — with
// ModelCalls reporting only the rows that actually reached an engine.
//
// Cancellation: ctx is honored at entry, while parked in the batch window,
// and while waiting on another statement's inflight computation. A canceled
// owner abandons its wait but never its obligations — the coalesced run it
// joined completes regardless (it may carry other statements' rows), and a
// detached resolver commits or fails the owner's result-cache reservations
// when the run lands, so subscribed statements still complete and nothing
// stays reserved forever.
//
// Specs without content-derived row keys (Spec.RowKeys == nil) are
// rejected: a positional row identity says nothing about the row's content,
// so exact-match caching would be unsound. The LLM-SQL executor always
// content-keys its stages.
func (rt *Runtime) RunStage(ctx context.Context, spec query.Spec, tbl *table.Table, qcfg query.Config) (*query.StageResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if n == 0 {
		return &query.StageResult{Spec: spec}, nil
	}
	if spec.RowKeys == nil {
		return nil, errors.New("runtime: stage spec has no content-derived row keys")
	}

	fp := query.StageKey(spec, tbl.Columns(), qcfg)
	outputs := make([]string, n)
	// first maps each distinct row part (fp is the other half of every cache
	// key) to the row that resolves it; every later copy is a dup of it.
	first := make(map[rowKey]int, n)
	var dups []rowCopy
	var subs []rowSub
	var ownedRows []int
	var ownedKeys []rowKey
	var hits, inflightJoins, deduped int64
	for i := 0; i < n; i++ {
		key := stageRowKey(tbl, spec, i)
		if j, ok := first[key]; ok {
			// Duplicate row content within this stage: one computation
			// serves every copy.
			deduped++
			dups = append(dups, rowCopy{i, j})
			continue
		}
		first[key] = i
		switch state, val, fl := rt.cache.acquire(resultKey{fp, key}); state {
		case acquireHit:
			hits++
			outputs[i] = val
		case acquireSubscribed:
			inflightJoins++
			subs = append(subs, rowSub{i, fl})
		case acquireOwned:
			ownedRows = append(ownedRows, i)
			ownedKeys = append(ownedKeys, key)
		}
	}
	rt.c.rowsDeduped.Add(deduped)
	rt.c.cacheHits.Add(hits)
	rt.c.inflightDeduped.Add(inflightJoins)
	rt.c.cacheMisses.Add(int64(len(ownedRows)))
	rt.rollups.ObserveCache(fp, hits, int64(len(ownedRows)), inflightJoins, deduped)
	sp := obs.FromContext(ctx)
	if sp != nil {
		sp.Set("rows", n)
		sp.Set("cacheHits", hits)
		sp.Set("cacheMisses", len(ownedRows))
		sp.Set("inflightDeduped", inflightJoins)
		sp.Set("rowsDeduped", deduped)
	}

	// SolverSeconds and PHC stay zero here unless this stage owns rows, in
	// which case the batch result below overwrites them.
	//llmqlint:partial
	st := &query.StageResult{Spec: spec, Rows: n, ModelCalls: len(ownedRows)}
	if len(ownedRows) > 0 {
		parkStart := time.Now()
		m := rt.batcher.submit(ctx, fp, spec, tbl, ownedRows, qcfg)
		select {
		case <-m.done:
		case <-ctx.Done():
			// Abandon the wait, not the reservations: the batch proceeds
			// without us and the detached resolver settles our keys when it
			// lands, so subscribers and later statements are not poisoned.
			rt.batcher.abandon(m)
			go func() {
				<-m.done
				rt.resolveOwned(fp, ownedKeys, m)
				rt.c.abandonedResolved.Add(int64(len(ownedKeys)))
			}()
			return nil, ctx.Err()
		}
		if sp != nil {
			park := sp.ChildAt("batch-wait", parkStart, time.Since(parkStart))
			park.Set("ownedRows", len(ownedRows))
			park.Set("windowMs", float64(m.window)/float64(time.Millisecond))
			if m.pulledForward {
				park.Set("pulledWindowForward", true)
			}
		}
		if m.err != nil {
			rt.resolveOwned(fp, ownedKeys, m)
			return nil, m.err
		}
		rt.resolveOwned(fp, ownedKeys, m)
		for j, row := range ownedRows {
			outputs[row] = m.outputs[j]
		}
		// Attribute the coalesced run's serving cost to this statement: it
		// waited for exactly this engine run. A batch shared by k statements
		// is counted once in the runtime totals (see batcher.run) but
		// appears in each participant's own Result.
		st.Metrics = m.batch.Metrics
		st.SolverSeconds = m.batch.SolverSeconds
		st.PHC = m.batch.PHC
		// Charge this statement its own rows, and a row-proportional share
		// of the coalesced run's prompt tokens: the batch total is conserved
		// across participants (up to integer truncation), so per-client
		// token accounting sums to the fleet's.
		var tok int64
		if m.batch.Rows > 0 {
			tok = m.batch.Metrics.PromptTokens * int64(len(m.rows)) / int64(m.batch.Rows)
		}
		if si := stmtInfoFrom(ctx); si != nil {
			si.calls += int64(len(ownedRows))
			si.tokens += tok
		}
		if sp != nil {
			// The shared batch span (zero charges, whole-run attrs) joins
			// this statement's tree; the member's own proportional charge —
			// the same numbers the statement was charged above — lands on
			// the stage span so trace totals conserve even when the batch is
			// shared.
			sp.Adopt(m.bspan)
			sp.Charge(int64(len(ownedRows)), tok, m.batch.Metrics.JCT)
		}
	}
	if len(subs) > 0 {
		subStart := time.Now()
		for _, sub := range subs {
			select {
			case <-ctx.Done():
				// A subscription carries no obligation; the owner resolves it.
				return nil, ctx.Err()
			case <-sub.fl.done:
			}
			if sub.fl.err != nil {
				return nil, fmt.Errorf("runtime: deduplicated call failed in its owning statement: %w", sub.fl.err)
			}
			outputs[sub.row] = sub.fl.val
		}
		if sp != nil {
			sp.ChildAt("inflight-wait", subStart, time.Since(subStart)).Set("calls", len(subs))
		}
	}

	for _, d := range dups {
		outputs[d.row] = outputs[d.of]
	}
	st.Outputs = outputs
	return st, nil
}

// rowCopy is a row whose content repeats an earlier row of its stage.
type rowCopy struct{ row, of int }

// rowSub is a row another statement is computing right now.
type rowSub struct {
	row int
	fl  *inflight
}

// resolveOwned settles a member's result-cache reservations from its
// finished batch: commit every output on success, fail every key on error
// (failed keys stay uncached so a later statement retries). It is
// idempotent per key — commit and fail both no-op on an already-resolved
// entry — and is called either inline by the owning statement or by the
// detached resolver a canceled owner leaves behind.
func (rt *Runtime) resolveOwned(fp string, keys []rowKey, m *member) {
	if m.err != nil {
		for _, key := range keys {
			rt.cache.fail(resultKey{fp, key}, m.err)
		}
		return
	}
	for j, key := range keys {
		rt.cache.commit(resultKey{fp, key}, m.outputs[j])
	}
}

// stageRowKey is the row part of one LLM call's exact-match result-cache key
// (resultKey pairs it with the stage fingerprint). A one-column row's cells
// are its cell as is; a wider row's are "<len>:<cell>;" per cell.
func stageRowKey(tbl *table.Table, spec query.Spec, row int) rowKey {
	k := rowKey{budget: spec.OutTokensFor(row)}
	if spec.TruthHidden != "" {
		k.truth = tbl.HiddenValue(spec.TruthHidden, row)
	}
	cells := tbl.Row(row)
	if len(cells) == 1 {
		k.cells = cells[0]
		return k
	}
	// Sized exactly, so the key — which the result cache retains — is one
	// allocation with no slack.
	size := 0
	for _, cell := range cells {
		size += decimalLen(len(cell)) + 1 + len(cell) + 1
	}
	var sb strings.Builder
	sb.Grow(size)
	var num [20]byte
	for _, cell := range cells {
		sb.Write(strconv.AppendInt(num[:0], int64(len(cell)), 10))
		sb.WriteByte(':')
		sb.WriteString(cell)
		sb.WriteByte(';')
	}
	k.cells = sb.String()
	return k
}

// decimalLen is the number of digits of n ≥ 0 in base 10.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}
