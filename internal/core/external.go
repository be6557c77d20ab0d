package core

import (
	"context"
	"fmt"

	"repro/internal/extpq"
	"repro/internal/gio"
	"repro/internal/pipeline"
)

// ExternalMaximalOptions configure ExternalMaximalCtx.
type ExternalMaximalOptions struct {
	// PQMemoryCapacity bounds the external priority queue's in-memory
	// buffer (keys); ≤ 0 selects extpq's default.
	PQMemoryCapacity int
	// TempDir receives priority-queue spill files; empty selects the OS
	// temp directory.
	TempDir string
}

// ExternalMaximalCtx computes a maximal independent set with time-forward
// processing, the deterministic external algorithm of Zeh implemented by
// the paper's STXXL competitor. Vertices are processed in scan order; a
// vertex joins the set unless an earlier IS vertex forwarded it an
// "excluded" message through an external priority queue keyed by scan
// position. Two sequential scans plus O(sort(|E|)) priority-queue I/O; the
// two logical passes cannot share a scan — the main pass reads positions of
// later records the position pass has not assigned yet — so each runs as
// its own scheduler group.
//
// The algorithm guarantees maximality only — not size — which is exactly
// the gap the paper's swap algorithms close. ctx cancels both passes
// between batches; hooks.OnScan observes per-batch progress.
func ExternalMaximalCtx(ctx context.Context, f Source, opts ExternalMaximalOptions, h Hooks) (*Result, error) {
	n := f.NumVertices()
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())

	// Scan 1: record each vertex's scan position so messages can be keyed
	// by processing time.
	pos := make([]uint32, n)
	posNext := uint32(0)
	posSched := pipeline.New(f, rn.sopts(false))
	posSched.Add(pipeline.Pass{
		Name:     "external-positions",
		ReadOnly: true, // writes only the position array no co-scheduled pass reads
		Batch: func(batch []gio.Record) error {
			for j := range batch {
				pos[batch[j].ID] = posNext
				posNext++
			}
			return nil
		},
	})
	if err := posSched.Run(); err != nil {
		return nil, fmt.Errorf("core: external maximal: position scan: %w", err)
	}

	pq := extpq.New(extpq.Options{MemoryCapacity: opts.PQMemoryCapacity, Dir: opts.TempDir})
	defer pq.Close()

	res := newResult(n)
	var pqPeak int
	mainSched := pipeline.New(f, rn.sopts(false))
	mainSched.Add(pipeline.Pass{
		Name: "external-time-forward",
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				me := uint64(pos[r.ID])
				// Drain messages addressed to this position; any message
				// means an earlier IS vertex excluded us.
				excluded := false
				for {
					k, ok, err := pq.Min()
					if err != nil {
						return err
					}
					if !ok || k > me {
						break
					}
					if _, _, err := pq.Pop(); err != nil {
						return err
					}
					if k == me {
						excluded = true
					}
					// k < me cannot happen: messages target strictly later
					// positions and are drained in order. Tolerated silently.
				}
				if !excluded {
					res.InSet[r.ID] = true
					res.Size++
					for _, u := range r.Neighbors {
						if uint64(pos[u]) > me {
							if err := pq.Push(uint64(pos[u])); err != nil {
								return err
							}
						}
					}
				}
				if pq.Len() > pqPeak {
					pqPeak = pq.Len()
				}
			}
			return nil
		},
	})
	if err := mainSched.Run(); err != nil {
		return nil, fmt.Errorf("core: external maximal: %w", err)
	}

	// Memory: position array + the PQ's bounded in-memory buffer.
	memCap := opts.PQMemoryCapacity
	if memCap <= 0 {
		memCap = extpq.DefaultMemoryCapacity
	}
	if pqPeak < memCap {
		memCap = pqPeak
	}
	res.MemoryBytes = uint64(n)*4 + uint64(memCap)*8
	res.IO = statsDelta(f.Stats(), snap)
	return res, nil
}
