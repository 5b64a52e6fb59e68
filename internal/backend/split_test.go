// SplitByGroups is cut twice on the routed path — by the router across
// replica targets, then by the worker across its engine replicas, at
// boundaries that crossed the wire in between — so its parts must stay
// valid inputs to itself, and the wire decode must refuse any boundary list
// it would be unsafe to cut at.
package backend_test

import (
	"context"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"repro/internal/backend"
)

// requestIDs is the sorted multiset of request ids across parts.
func requestIDs(parts ...backend.BatchSpec) []int {
	var ids []int
	for _, p := range parts {
		for _, r := range p.Requests {
			ids = append(ids, r.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

// groupsValid is the annotation contract stated independently of the code
// under test: starts at 0, strictly ascending, inside the batch.
func groupsValid(groups []int, n int) bool {
	for i, g := range groups {
		if (i == 0 && g != 0) || (i > 0 && g <= groups[i-1]) || g >= n {
			return false
		}
	}
	return true
}

// checkSplit holds one SplitByGroups(spec, n) to its contract: at most n
// parts, every request in exactly one of them, each part's groups valid
// through the same decode a worker applies (EncodeWireBatch → Spec) — and,
// one level down, a part cut again at its own groups still conserves ids.
func checkSplit(t *testing.T, spec backend.BatchSpec, n int) {
	t.Helper()
	parts, err := backend.SplitByGroups(spec, n)
	if err != nil {
		t.Fatalf("n=%d: split of a valid spec failed: %v", n, err)
	}
	if len(parts) > max(n, 1) {
		t.Fatalf("n=%d: %d parts", n, len(parts))
	}
	if got, want := requestIDs(parts...), requestIDs(spec); !slices.Equal(got, want) {
		t.Fatalf("n=%d: parts hold ids %v, spec holds %v", n, got, want)
	}
	groups := 0
	for i, part := range parts {
		if len(part.Groups) == 0 && len(spec.Groups) > 0 {
			t.Errorf("n=%d: part %d lost its group annotation", n, i)
		}
		if _, err := backend.EncodeWireBatch(part, backend.ClientInfo{}).Spec(); err != nil {
			t.Errorf("n=%d: part %d groups %v do not survive the wire: %v", n, i, part.Groups, err)
		}
		groups += len(part.Groups)
		leaves, err := backend.SplitByGroups(part, len(part.Groups))
		if err != nil {
			t.Fatalf("n=%d: re-split of part %d: %v", n, i, err)
		}
		if got, want := requestIDs(leaves...), requestIDs(part); !slices.Equal(got, want) {
			t.Errorf("n=%d: part %d re-split at its own groups holds ids %v, want %v", n, i, got, want)
		}
	}
	if groups != len(spec.Groups) {
		t.Errorf("n=%d: parts carry %d groups, spec has %d", n, groups, len(spec.Groups))
	}
}

func TestSplitByGroupsKeepsGroups(t *testing.T) {
	cases := map[string][]int{ // requests per group
		"even":          {3, 3, 3, 3},
		"skewed":        {9, 1, 1, 1, 2},
		"singletons":    {1, 1, 1, 1, 1, 1, 1},
		"one group":     {5},
		"two requests":  {1, 1},
		"many groups":   {2, 4, 1, 3, 5, 1, 2, 2, 6, 1},
		"unannotated":   nil,
		"heavy in back": {1, 1, 1, 12},
	}
	for name, sizes := range cases {
		t.Run(name, func(t *testing.T) {
			spec := accountingSpec(sizes, 12, 4)
			if sizes == nil {
				spec = accountingSpec([]int{6}, 12, 4)
				spec.Groups = nil
			}
			for n := 0; n <= 8; n++ {
				checkSplit(t, spec, n)
			}
		})
	}
}

// specTap records the specs that reach it and serves them on a Sim.
type specTap struct {
	backend.Backend
	specs []backend.BatchSpec
}

func (s *specTap) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	s.specs = append(s.specs, spec)
	return s.Backend.RunBatch(ctx, spec)
}

// FuzzWireBatchSpec feeds arbitrary bytes through the worker's decode path
// (JSON → WireBatch → Spec) and, for whatever survives, through the cut the
// worker then makes. Nothing panics, every boundary list that breaks the
// annotation contract is refused at Spec, and every accepted one splits into
// 1…8 parts that conserve the request ids.
func FuzzWireBatchSpec(f *testing.F) {
	for _, body := range wireSeeds(f) {
		f.Add(body)
	}
	f.Add([]byte(`{"stageKey":"s","requests":[{"id":1,"prompt":[1,2],"outTokens":1},{"id":2,"prompt":[1,3],"outTokens":1}],"groups":[0,1]}`))
	f.Add([]byte(`{"requests":[{"id":1},{"id":1},{"id":2}],"groups":[1,2]}`))
	f.Add([]byte(`{"requests":[{"id":1},{"id":2}],"groups":[0,0]}`))
	f.Add([]byte(`{"requests":[{"id":1},{"id":2}],"groups":[0,2]}`))
	f.Add([]byte(`{"requests":[{"id":1},{"id":2}],"groups":[0,-1]}`))
	f.Add([]byte(`{"requests":[],"groups":[0]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var wb backend.WireBatch
		if err := json.Unmarshal(body, &wb); err != nil {
			return
		}
		spec, err := wb.Spec()
		if valid := len(wb.Requests) > 0 && groupsValid(wb.Groups, len(wb.Requests)); valid != (err == nil) {
			t.Fatalf("Spec() err = %v for %d requests, groups %v (valid: %v)", err, len(wb.Requests), wb.Groups, valid)
		}
		if err != nil {
			return
		}
		for n := 1; n <= 8; n++ {
			checkSplit(t, spec, n)
		}
	})
}
