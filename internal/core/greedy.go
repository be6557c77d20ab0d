package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// GreedyCtx runs Algorithm 1, the semi-external greedy, over f. The file
// should be in ascending-degree scan order (the paper's preprocessing); run
// on an unsorted file it is the paper's BASELINE competitor. Greedy
// registers two logical passes with the scan scheduler — the order-dependent
// marking pass and a read-only degree/stat collection pass — which fuse into
// exactly one physical scan; memory stays at half a byte of state per
// vertex, and the result is always a maximal independent set.
//
// ctx cancels the marking scan between batches (the error wraps ctx.Err
// with the scan position), and hooks.OnScan observes per-batch progress.
func GreedyCtx(ctx context.Context, f Source, h Hooks) (*Result, error) {
	return GreedyScheduled(f, newRun(ctx, h).sopts(false))
}

// GreedyScheduled is GreedyCtx with explicit scheduler options; passing an
// Unfused schedule runs each logical pass as its own physical scan, the
// accounting baseline of the scan-count and parity tests.
func GreedyScheduled(f Source, sopts pipeline.Options) (*Result, error) {
	n := f.NumVertices()
	states := semiext.NewStates(n)
	snap := snapshot(f.Stats())

	var deg DegreeStats
	sched := pipeline.New(f, sopts)
	sched.Add(pipeline.Pass{
		Name:          "greedy-mark",
		MutatesStates: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				if states.Get(r.ID) != semiext.StateInitial {
					continue
				}
				states.Set(r.ID, semiext.StateIS)
				for _, u := range r.Neighbors {
					if states.Get(u) == semiext.StateInitial {
						states.Set(u, semiext.StateNonIS)
					}
				}
			}
			return nil
		},
	})
	sched.Add(degreeStatsPass(&deg))
	if err := sched.Run(); err != nil {
		return nil, fmt.Errorf("core: greedy: %w", err)
	}

	res := &Result{}
	res.collectIS(states)
	res.Degrees = deg
	res.MemoryBytes = states.MemoryBytes()
	res.IO = statsDelta(f.Stats(), snap)
	return res, nil
}

// degreeStatsPass returns the read-only degree/stat collection pass: it
// consumes only the record stream, so the planner fuses it into whatever
// scan it is declared next to.
func degreeStatsPass(out *DegreeStats) pipeline.Pass {
	return pipeline.Pass{
		Name:     "degree-stats",
		ReadOnly: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				d := uint32(len(batch[i].Neighbors))
				if d > out.Max {
					out.Max = d
				}
				if d == 0 {
					out.Isolated++
				}
				out.Sum += uint64(d)
			}
			return nil
		},
	}
}
