package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// The verify scans are logical passes that read the shared membership array
// and mutate nothing, so the planner fuses any sequence of them into a
// single physical scan (VerifyBothCtx). To keep fused and unfused error
// behavior identical, a verify pass records only the first violation in scan
// order, opts out of the rest of the stream with ErrStopScan — the scheduler
// cuts the scan short once every pass in the group has opted out, so a lone
// failing verify still aborts at its violation — and surfaces the verdict
// from Done. A fused partner pass keeps receiving batches, and the earlier
// declared pass's verdict always wins, exactly as if the passes had scanned
// one after another.

// verifyIndependentPass checks that no edge has both endpoints in the set.
func verifyIndependentPass(inSet []bool) pipeline.Pass {
	var firstErr error
	return pipeline.Pass{
		Name: "verify-independent",
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				if !inSet[r.ID] {
					continue
				}
				for _, nb := range r.Neighbors {
					if inSet[nb] {
						firstErr = fmt.Errorf("core: set is not independent: edge {%d,%d}", r.ID, nb)
						return pipeline.ErrStopScan
					}
				}
			}
			return nil
		},
		Done: func() error { return firstErr },
	}
}

// verifyMaximalPass checks that every vertex outside the set has a neighbor
// inside it (assuming the set is independent).
func verifyMaximalPass(inSet []bool) pipeline.Pass {
	var firstErr error
	return pipeline.Pass{
		Name: "verify-maximal",
		Batch: func(batch []gio.Record) error {
		records:
			for i := range batch {
				r := &batch[i]
				if inSet[r.ID] {
					continue
				}
				for _, nb := range r.Neighbors {
					if inSet[nb] {
						continue records
					}
				}
				firstErr = fmt.Errorf("core: set is not maximal: vertex %d has no IS neighbor", r.ID)
				return pipeline.ErrStopScan
			}
			return nil
		},
		Done: func() error { return firstErr },
	}
}

func checkSetSize(f Source, inSet []bool) error {
	if len(inSet) != f.NumVertices() {
		return fmt.Errorf("core: verify: set has %d entries for %d vertices", len(inSet), f.NumVertices())
	}
	return nil
}

// VerifyIndependentCtx checks, with one sequential scan, that no edge of f
// has both endpoints in the set.
func VerifyIndependentCtx(ctx context.Context, f Source, inSet []bool, h Hooks) error {
	if err := checkSetSize(f, inSet); err != nil {
		return err
	}
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(verifyIndependentPass(inSet))
	return s.Run()
}

// VerifyMaximalCtx checks, with one sequential scan, that every vertex
// outside the set has a neighbor inside it (assuming the set is
// independent).
func VerifyMaximalCtx(ctx context.Context, f Source, inSet []bool, h Hooks) error {
	if err := checkSetSize(f, inSet); err != nil {
		return err
	}
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(verifyMaximalPass(inSet))
	return s.Run()
}

// VerifyBothCtx checks independence and maximality with a single fused
// physical scan (two logical passes). An independence violation wins over a
// maximality one, exactly as running VerifyIndependentCtx before
// VerifyMaximalCtx would report.
func VerifyBothCtx(ctx context.Context, f Source, inSet []bool, h Hooks) error {
	if err := checkSetSize(f, inSet); err != nil {
		return err
	}
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(verifyIndependentPass(inSet))
	s.Add(verifyMaximalPass(inSet))
	return s.Run()
}

// VerifyIndependentGraph is the in-memory variant of VerifyIndependentCtx.
func VerifyIndependentGraph(g *graph.Graph, inSet []bool) error {
	for v := 0; v < g.NumVertices(); v++ {
		if !inSet[v] {
			continue
		}
		for _, nb := range g.Neighbors(uint32(v)) {
			if inSet[nb] {
				return fmt.Errorf("core: set is not independent: edge {%d,%d}", v, nb)
			}
		}
	}
	return nil
}

// VerifyMaximalGraph is the in-memory variant of VerifyMaximalCtx.
func VerifyMaximalGraph(g *graph.Graph, inSet []bool) error {
	for v := 0; v < g.NumVertices(); v++ {
		if inSet[v] {
			continue
		}
		covered := false
		for _, nb := range g.Neighbors(uint32(v)) {
			if inSet[nb] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("core: set is not maximal: vertex %d has no IS neighbor", v)
		}
	}
	return nil
}
