package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
)

// VertexCover returns the complement of an independent set as a vertex
// cover, the dual the paper's conclusion points at: if S is independent,
// every edge has at most one endpoint in S, hence at least one in V \ S.
// The cover is minimal iff the independent set is maximal.
func VertexCover(inSet []bool) []bool {
	cover := make([]bool, len(inSet))
	for v, in := range inSet {
		cover[v] = !in
	}
	return cover
}

// VerifyVertexCoverCtx checks with one sequential scan that every edge of f
// has at least one endpoint in the cover. Like the other verify passes it
// records only the first violation in scan order and opts out of the rest
// of the stream.
func VerifyVertexCoverCtx(ctx context.Context, f Source, cover []bool, h Hooks) error {
	if len(cover) != f.NumVertices() {
		return fmt.Errorf("core: verify cover: %d entries for %d vertices", len(cover), f.NumVertices())
	}
	var firstErr error
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(pipeline.Pass{
		Name: "verify-vertex-cover",
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				if cover[r.ID] {
					continue
				}
				for _, nb := range r.Neighbors {
					if !cover[nb] {
						firstErr = fmt.Errorf("core: edge {%d,%d} uncovered", r.ID, nb)
						return pipeline.ErrStopScan
					}
				}
			}
			return nil
		},
		Done: func() error { return firstErr },
	})
	return s.Run()
}

// WeiBoundCtx returns Wei's lower bound on the independence number,
// Σ_v 1/(deg(v)+1), computed with one sequential scan. Every graph has an
// independent set at least this large (Wei 1981, cited as [25]); it is a
// useful sanity floor under the algorithms' results.
func WeiBoundCtx(ctx context.Context, f Source, h Hooks) (float64, error) {
	var sum float64
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(pipeline.Pass{
		Name:     "wei-bound",
		ReadOnly: true, // the running sum is pass-private
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				sum += 1.0 / float64(len(batch[i].Neighbors)+1)
			}
			return nil
		},
	})
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("core: wei bound: %w", err)
	}
	return sum, nil
}
