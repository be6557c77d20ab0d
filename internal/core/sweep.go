package core

import (
	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// sweeper is the maximality sweep restructured as a deferred logical pass so
// the pass scheduler may fuse it into the final post-swap scan of a swap
// algorithm — the round pair the paper's scan count pays twice for.
//
// The fusion is sound because of two properties, which together make the
// fused run bit-identical to a dedicated sweep scan executed after the
// post-swap scan:
//
//  1. The sweep batch callback never mutates shared state mid-scan — it only
//     records pending candidates — so the co-scheduled post-swap pass sees
//     exactly the state trajectory it would see scanning alone.
//  2. During a post-swap scan, IS membership only grows (post-swap touches
//     only non-IS vertices of the current record). A vertex skipped because
//     some neighbor is already IS would therefore also be skipped by a sweep
//     running after the scan; every other candidate is deferred together
//     with its in-hand neighbor list and resolved in scan order once the
//     scan — and with it every possible IS addition — has completed.
//
// The deferral needs the pending vertices' neighbor lists in memory — a
// semiext.RecordBuffer, the same bounded deferral store the cross-round
// carry uses. That stays within the semi-external budget for the sweep's
// real population (vertices with no IS neighbor after swapping are rare),
// but it is bounded defensively: past ~|V| stored neighbors the buffer
// overflows and apply falls back to the classic dedicated sweep scan, which
// is equivalent by construction (property 2's "sweep after the scan" is
// exactly that scan). The same collect-then-resolve implementation also
// runs unfused — collection as its own physical scan — where it
// degenerates to the classic sweep over the final post-swap states.
type sweeper struct {
	f      Source
	states semiext.States
	buf    *semiext.RecordBuffer // pending vertices, in scan order

	// sopts carries the owning run's scheduler options (context, progress)
	// into the fallback dedicated sweep scan.
	sopts pipeline.Options

	// collected is set when the sweep pass was scheduled into a post-swap
	// scan; the owning algorithm must then call apply after its round loop
	// (not earlier: the sweep's additions belong to no round's gain count).
	collected bool
}

func newSweeper(f Source, states semiext.States, sopts pipeline.Options) *sweeper {
	return &sweeper{
		f:      f,
		states: states,
		buf:    semiext.NewRecordBuffer(states.Len() + 1024),
		sopts:  sopts,
	}
}

// pass returns the sweep as a logical pass riding the named post-swap pass,
// which the sweep is constructed to tolerate (FuseAfter). The pass only
// collects; the algorithm applies the collected additions via apply once
// its round loop has finished, so per-round gain accounting and phase
// traces never include sweep additions.
func (sw *sweeper) pass(after string) pipeline.Pass {
	sw.collected = true
	return pipeline.Pass{
		Name:      "maximality-sweep",
		FuseAfter: after,
		// Reads shared states during the scan; every write is deferred past
		// it (DeferredWrites keeps the planner from fusing a later
		// shared-state pass that would observe pre-apply state).
		DeferredWrites: true,
		Batch:          sw.batch,
	}
}

func (sw *sweeper) batch(batch []gio.Record) error {
	for i := range batch {
		r := &batch[i]
		u := r.ID
		if sw.states.Get(u) == semiext.StateIS {
			continue
		}
		covered := false
		for _, nb := range r.Neighbors {
			if sw.states.Get(nb) == semiext.StateIS {
				covered = true
				break
			}
		}
		if !covered {
			sw.buf.Append(u, r.Neighbors)
		}
	}
	return nil
}

// finish makes the state array maximal after the round loop: it applies the
// collection left by a fused final post-swap scan, or — when the loop ended
// on an exit it could not predict (a stall) and no collection exists — runs
// the classic standalone sweep scan.
func (sw *sweeper) finish() error {
	if sw.collected {
		return sw.apply()
	}
	return maximalitySweep(sw.f, sw.states, sw.sopts)
}

// apply resolves the pending candidates in scan order: a vertex joins iff
// none of its recorded neighbors has (by now) entered the set. On overflow
// it runs the classic dedicated sweep scan instead.
func (sw *sweeper) apply() error {
	if sw.buf.Overflowed() {
		return maximalitySweep(sw.f, sw.states, sw.sopts)
	}
	sw.buf.ForEach(func(u uint32, neighbors []uint32) {
		for _, nb := range neighbors {
			if sw.states.Get(nb) == semiext.StateIS {
				return
			}
		}
		sw.states.Set(u, semiext.StateIS)
	})
	sw.buf.Reset()
	return nil
}

// maximalitySweep adds every non-IS vertex with no IS neighbor, in scan
// order, guaranteeing the returned set is maximal even when the strict 0↔1
// condition left isolated candidates behind. A single sequential scan
// suffices: a vertex skipped here has an IS neighbor, and additions only
// give later vertices more IS neighbors. It remains the sweeper's overflow
// fallback; the scheduled path is sweeper.pass. Run through the scheduler so
// it honors the run's context and progress hooks like every other scan.
func maximalitySweep(f Source, states semiext.States, sopts pipeline.Options) error {
	s := pipeline.New(f, sopts)
	s.Add(pipeline.Pass{
		Name:          "maximality-sweep-classic",
		MutatesStates: true,
		Batch: func(batch []gio.Record) error {
		records:
			for i := range batch {
				r := &batch[i]
				u := r.ID
				if states.Get(u) == semiext.StateIS {
					continue
				}
				for _, nb := range r.Neighbors {
					if states.Get(nb) == semiext.StateIS {
						continue records
					}
				}
				states.Set(u, semiext.StateIS)
			}
			return nil
		},
	})
	return s.Run()
}
