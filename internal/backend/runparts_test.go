package backend_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/llmsim"
)

// TestRunParts pins the scatter–gather contract Sharded and cluster.Router
// share, with fake part runners: root-cause error selection, the caller's
// own cancellation, the single-part short circuit, and the merge.
func TestRunParts(t *testing.T) {
	parts := func(sizes ...int) []backend.BatchSpec {
		out := make([]backend.BatchSpec, len(sizes))
		for i, n := range sizes {
			out[i] = backend.BatchSpec{StageKey: "s", Requests: make([]*llmsim.Request, n)}
		}
		return out
	}
	result := func(i int) backend.BatchResult {
		return backend.BatchResult{ModelCalls: i + 1, Metrics: llmsim.Metrics{
			JCT: float64(i + 1), Steps: int64(10 * (i + 1)), PromptTokens: int64(100 * (i + 1)), MeanLatency: 0.5 * float64(i+1),
		}}
	}
	errBoom := errors.New("part exploded")
	// untilCanceled is a part that only ends when its context does, like an
	// engine run stopped between steps by a failing peer.
	untilCanceled := func(ctx context.Context) (backend.BatchResult, error) {
		<-ctx.Done()
		return backend.BatchResult{}, ctx.Err()
	}

	t.Run("merge equals MergeBatchResults", func(t *testing.T) {
		ps := parts(3, 1, 2)
		got, err := backend.RunParts(context.Background(), ps, func(_ context.Context, i int, part backend.BatchSpec) (backend.BatchResult, error) {
			if !reflect.DeepEqual(part, ps[i]) {
				t.Errorf("part %d ran with another part's spec", i)
			}
			return result(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := backend.MergeBatchResults([]backend.BatchResult{result(0), result(1), result(2)}, []int{3, 1, 2})
		if got != want {
			t.Errorf("merged %+v, want %+v", got, want)
		}
	})

	t.Run("real error beats fail-fast cancellations", func(t *testing.T) {
		// The failing part is last, so the peers' context.Canceled come
		// first in part order and must still lose.
		_, err := backend.RunParts(context.Background(), parts(1, 1, 1), func(ctx context.Context, i int, _ backend.BatchSpec) (backend.BatchResult, error) {
			if i == 2 {
				return backend.BatchResult{}, errBoom
			}
			return untilCanceled(ctx)
		})
		if !errors.Is(err, errBoom) || errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want the failing part's own error", err)
		}
	})

	t.Run("caller cancellation survives", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		defer cancel()
		_, err := backend.RunParts(ctx, parts(1, 1), func(ctx context.Context, _ int, _ backend.BatchSpec) (backend.BatchResult, error) {
			res, err := untilCanceled(ctx)
			return res, errors.Join(errors.New("part stopped"), err)
		})
		if err != context.DeadlineExceeded {
			t.Errorf("err = %v, want the caller's bare ctx.Err()", err)
		}
	})

	t.Run("single part short-circuits", func(t *testing.T) {
		type ctxKey struct{}
		ctx := context.WithValue(context.Background(), ctxKey{}, "caller")
		ps := parts(4)
		got, err := backend.RunParts(ctx, ps, func(pctx context.Context, i int, _ backend.BatchSpec) (backend.BatchResult, error) {
			if pctx != ctx {
				t.Error("single part ran under a derived context, want the caller's own")
			}
			return result(i), errBoom
		})
		if got != result(0) || err != errBoom {
			t.Errorf("got %+v, %v; want the part's own result and error untouched", got, err)
		}
	})
}
