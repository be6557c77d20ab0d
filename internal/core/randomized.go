package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// RandomizedMaximalCtx computes a maximal independent set with the randomized
// rounds of Abello, Buchsbaum and Westbrook's functional approach (related
// work [2], I/O O(sort(|E|)) with high probability), adapted to the
// semi-external setting: each round orders the still undecided vertices by
// a random priority, an elect pass admits every vertex that beats all
// undecided neighbors, and a retire pass retires the admitted vertices'
// neighbors. With constant probability a constant fraction of vertices is
// decided per round, so O(log |V|) rounds decide everything. A vertex's
// priority is a hash of (seed, round, vertex ID), so no per-vertex array
// holds it.
//
// Round 1 runs both passes as physical scans, and its retire scan collects
// the residual — the vertices still undecided after it, with their
// undecided neighbors — into a buffer bounded like the swap algorithms'
// cross-round carry. Later rounds replay both passes over that buffer, so
// a run costs two physical scans whenever the residual fits, and two per
// round until one does: a round whose collection overflowed is followed by
// another round of two physical scans that collects again.
//
// ctx cancels between batches and between rounds; hooks.OnScan observes
// per-batch progress. Deterministic per seed for any Source.
func RandomizedMaximalCtx(ctx context.Context, f Source, seed int64, h Hooks) (*Result, error) {
	n := f.NumVertices()
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())

	r := &randomizedRounds{
		states:    semiext.NewStates(n), // Initial = undecided
		residual:  semiext.NewRecordBuffer(carryBudget(n)),
		undecided: n,
	}
	carried := false // r.residual holds the complete residual
	rounds := 0

	for r.undecided > 0 {
		rounds++
		if rounds > 64*(bitsLen(n)+1) {
			return nil, fmt.Errorf("core: randomized maximal: no progress after %d rounds", rounds)
		}
		if err := rn.err(); err != nil {
			return nil, fmt.Errorf("core: randomized maximal: round %d: %w", rounds, err)
		}
		r.key = roundKey(seed, rounds)
		if carried {
			// Every undecided vertex and every undecided neighbor of one is
			// in the buffer; the passes read no decided state, so replaying
			// them over the buffer is the two scans, record for record.
			pipeline.ResolveCarried(f)
			r.residual.ForEach(r.elect)
			pipeline.ResolveCarried(f)
			r.residual.ForEach(r.retire)
			continue
		}
		// Both passes mutate the shared state array mid-scan, so each runs
		// as its own scheduler pass (and therefore its own physical scan).
		s1 := pipeline.New(f, rn.sopts(false))
		s1.Add(pipeline.Pass{
			Name:          "randomized-elect",
			MutatesStates: true,
			Batch: func(batch []gio.Record) error {
				for i := range batch {
					r.elect(batch[i].ID, batch[i].Neighbors)
				}
				return nil
			},
		})
		if err := s1.Run(); err != nil {
			return nil, fmt.Errorf("core: randomized maximal: %w", err)
		}
		r.residual.Reset()
		s2 := pipeline.New(f, rn.sopts(false))
		s2.Add(pipeline.Pass{
			Name:          "randomized-retire",
			MutatesStates: true,
			Batch: func(batch []gio.Record) error {
				for i := range batch {
					r.retireOrCollect(batch[i].ID, batch[i].Neighbors)
				}
				return nil
			},
		})
		if err := s2.Run(); err != nil {
			return nil, fmt.Errorf("core: randomized maximal: %w", err)
		}
		carried = !r.residual.Overflowed()
	}

	res := &Result{}
	res.collectIS(r.states)
	res.Rounds = rounds
	res.MemoryBytes = r.states.MemoryBytes() + r.residual.MemoryPeak()
	res.IO = statsDelta(f.Stats(), snap)
	return res, nil
}

// randomizedRounds is one RandomizedMaximal run's in-memory state: the
// vertex states, the current round's priority key and the residual buffer.
type randomizedRounds struct {
	states    semiext.States
	key       uint64
	residual  *semiext.RecordBuffer
	keep      []uint32 // collect's scratch neighbor list
	undecided int
}

// elect admits undecided u (marks it Protected) if it beats every undecided
// neighbor under the round's priorities.
func (r *randomizedRounds) elect(u uint32, neighbors []uint32) {
	if r.states.Get(u) != semiext.StateInitial {
		return
	}
	pu := priority(r.key, u)
	for _, nb := range neighbors {
		switch r.states.Get(nb) {
		case semiext.StateInitial:
			if beats(priority(r.key, nb), nb, pu, u) {
				return
			}
		case semiext.StateProtected:
			return // a neighbor already won this round
		}
	}
	r.states.Set(u, semiext.StateProtected)
}

// retire moves an admitted u into the set and retires its undecided
// neighbors.
func (r *randomizedRounds) retire(u uint32, neighbors []uint32) {
	if r.states.Get(u) != semiext.StateProtected {
		return
	}
	r.states.Set(u, semiext.StateIS)
	r.undecided--
	for _, nb := range neighbors {
		if r.states.Get(nb) == semiext.StateInitial {
			r.states.Set(nb, semiext.StateNonIS)
			r.undecided--
		}
	}
}

// retireOrCollect is the retire scan's per-record step: retire, then
// collect the record into the residual if its vertex stays undecided for
// the rest of the scan. An undecided u with no admitted neighbor does: an
// IS neighbor would already have retired it, and only an admitted neighbor
// later in the scan could. Its neighbors that are not undecided now are
// decided for good and dropped, since neither pass reads a decided state.
func (r *randomizedRounds) retireOrCollect(u uint32, neighbors []uint32) {
	if r.states.Get(u) != semiext.StateInitial {
		r.retire(u, neighbors)
		return
	}
	if r.residual.Overflowed() {
		return
	}
	r.keep = r.keep[:0]
	for _, nb := range neighbors {
		switch r.states.Get(nb) {
		case semiext.StateInitial:
			r.keep = append(r.keep, nb)
		case semiext.StateProtected:
			return // u retires when the scan reaches nb
		}
	}
	r.residual.Append(u, r.keep)
}

// roundKey derives one round's priority key from the run's seed: distinct
// rounds of one seed, and distinct seeds, get unrelated vertex orders.
func roundKey(seed int64, round int) uint64 {
	return mix64(uint64(seed) + uint64(round)*0x9e3779b97f4a7c15)
}

// priority returns vertex v's priority under a round key: the splitmix64
// finalizer over key ^ v. The finalizer is a bijection, so distinct
// vertices never tie within a round, and the value is a pure function of
// (seed, round, v) — the same whatever order the scan delivers records in.
func priority(key uint64, v uint32) uint64 {
	return mix64(key ^ uint64(v))
}

// mix64 is the splitmix64 output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// beats reports whether vertex a (priority pa) precedes vertex b (priority
// pb) in the random order, with the vertex ID as the deterministic
// tiebreak.
func beats(pa uint64, a uint32, pb uint64, b uint32) bool {
	if pa != pb {
		return pa < pb
	}
	return a < b
}

func bitsLen(n int) int {
	l := 0
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}
