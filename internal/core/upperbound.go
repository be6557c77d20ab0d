package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
)

// UpperBoundCtx runs Algorithm 5 (Appendix): a one-scan star-partition upper
// bound on the independence number. Each unvisited vertex v claims its
// unvisited neighbors as a star; a star with N ≥ 1 leaves can contribute at
// most N independent vertices (an independent set cannot contain the center
// and every leaf), and an isolated star contributes one. The experiments use
// this bound as the denominator of all approximation ratios, exactly as the
// paper does (it cannot compute exact independence numbers at scale). The
// scan is one logical pass on the scheduler, touching only its pass-private
// visited array.
func UpperBoundCtx(ctx context.Context, f Source, h Hooks) (uint64, error) {
	n := f.NumVertices()
	visited := make([]bool, n)
	var bound uint64
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(pipeline.Pass{
		Name:     "upper-bound",
		ReadOnly: true, // the visited array is pass-private
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				if visited[r.ID] {
					continue
				}
				visited[r.ID] = true
				leaves := uint64(0)
				for _, u := range r.Neighbors {
					if !visited[u] {
						visited[u] = true
						leaves++
					}
				}
				if leaves > 0 {
					bound += leaves
				} else {
					bound++
				}
			}
			return nil
		},
	})
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("core: upper bound: %w", err)
	}
	return bound, nil
}
