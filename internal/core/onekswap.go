package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// SwapOptions configure the one-k-swap and two-k-swap algorithms.
type SwapOptions struct {
	// MaxRounds caps the number of swap rounds. The worst case (the
	// cascade-swap graph of Figure 5) needs |V|/3 rounds; real graphs
	// converge in 2–9 (Table 7). ≤ 0 selects 10·|V| (effectively unbounded,
	// terminating via the no-swap condition).
	MaxRounds int
	// EarlyStopRounds stops after this many rounds even if swaps are still
	// firing — the paper's early-stop observation (Table 8: ≥97% of swaps
	// complete within three rounds). 0 disables early stop.
	EarlyStopRounds int
	// StallRounds stops after this many consecutive rounds with no net
	// gain, guarding against size-neutral swap oscillation. ≤ 0 selects 3.
	StallRounds int
	// Unfused disables scan fusion in the pass scheduler: every logical
	// pass runs as its own physical scan. Results are identical either way
	// — the scan-count and parity tests enforce it — so this knob exists
	// for those tests and for I/O-accounting baselines, not for production.
	Unfused bool
	// OnPhase, when non-nil, observes the state machine: it is called after
	// each phase of each round ("setup", "pre-swap", "swap", "post-swap",
	// and the final "sweep") with a read-only view of the state array.
	// Intended for tests and debugging; must not retain or mutate states.
	OnPhase func(round int, phase string, states []semiext.State)
}

// tracePhase invokes the OnPhase hook if configured.
func (o SwapOptions) tracePhase(round int, phase string, states semiext.States) {
	if o.OnPhase != nil {
		o.OnPhase(round, phase, states.Snapshot())
	}
}

// scheduler returns a pass scheduler over f honoring the Unfused knob and
// the run's cancellation and progress hooks.
func (o SwapOptions) scheduler(f Source, rn run) *pipeline.Scheduler {
	return pipeline.New(f, rn.sopts(o.Unfused))
}

// WithDefaults returns a copy of o with every unset field replaced by its
// documented default for an n-vertex graph: MaxRounds ≤ 0 selects 10·n+10
// (effectively unbounded) and StallRounds ≤ 0 selects 3. It is the single
// place swap defaults are decided — OneKSwapCtx and TwoKSwapCtx both apply
// it, and callers that need to display or log effective settings can call
// it themselves.
func (o SwapOptions) WithDefaults(n int) SwapOptions {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 10*n + 10
	}
	if o.StallRounds <= 0 {
		o.StallRounds = 3
	}
	return o
}

// lastByBudget reports whether the round that just executed as index round
// (0-based) is the final one the round budget admits: the next loop
// iteration would be stopped by MaxRounds or the early-stop cap regardless
// of swap progress. Together with the in-round no-swap signal this lets a
// swap algorithm recognize its final post-swap scan while that scan is still
// ahead, which is what allows fusing the maximality sweep into it.
func (o SwapOptions) lastByBudget(round int) bool {
	if round+1 >= o.MaxRounds {
		return true
	}
	return o.EarlyStopRounds > 0 && round+1 >= o.EarlyStopRounds
}

// ErrNotIndependent is returned when the initial set handed to a swap
// algorithm contains an edge.
var ErrNotIndependent = errors.New("core: initial set is not independent")

// oneKProduct names the cross-round state product of one-k-swap's setup and
// post-swap passes: the complete state array, ISN sets and ISN preimage
// counts the next round's pre-swap pass consumes.
const oneKProduct = "one-k-states"

// OneKSwapCtx runs Algorithm 2: starting from the independent set initial
// (indexed by vertex ID), it repeatedly exchanges one IS vertex for k ≥ 2
// non-IS vertices until no 1-k swap applies. Each round performs a pre-swap
// pass (detecting 1-2 swap skeletons and resolving swap conflicts by
// scan-order preemption), an in-memory swap step, and a post-swap scan
// (0↔1 swaps and state recomputation). Every pass is registered with the
// scan scheduler, and the pre-swap pass is carried across rounds: because
// the setup and post-swap scans maintain the ISN sets and preimage counts
// incrementally — complete the moment their scan ends — the pre-swap work
// of round r+1 rides round r's scan as a cross-round collection
// (pipeline.Pass.Consumes) and resolves from memory, so a steady-state
// round pays exactly one physical scan (down from two). On the final round
// the maximality sweep rides the post-swap scan the same way. Overflow of
// the carry buffer, a stall exit, or an Unfused schedule fall back to the
// classic dedicated scans. Only sequential scans touch the file; memory
// stays at a few words per vertex.
//
// ctx cancels between batches, between rounds and before carried-collection
// replays; hooks.OnScan observes per-batch progress and hooks.OnRound each
// completed round with its gain and I/O delta.
func OneKSwapCtx(ctx context.Context, f Source, initial []bool, opts SwapOptions, h Hooks) (*Result, error) {
	n := f.NumVertices()
	if len(initial) != n {
		return nil, fmt.Errorf("core: one-k-swap: initial set has %d entries for %d vertices", len(initial), n)
	}
	opts = opts.WithDefaults(n)
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())

	states := semiext.NewStates(n)
	isn := semiext.NewISN(states, false)
	states.Fill(initial, semiext.StateIS, semiext.StateNonIS)
	size := states.Count(semiext.StateIS)

	// Setup scan (Algorithm 2 lines 1–3): find A vertices and their ISN,
	// validating independence of the input along the way. Round 1's
	// pre-swap collection rides it — at end of scan the states and ISN
	// counts it consumes are complete.
	var carry *carryCollector
	if !opts.Unfused {
		carry = newCarryCollector(states)
	}
	setup := opts.scheduler(f, rn)
	setup.Add(setupPass(states, isn, false))
	if carry != nil {
		setup.Add(carry.pass("one-k-pre-swap-carry", oneKProduct))
	}
	if err := setup.Run(); err != nil {
		return nil, err
	}
	opts.tracePhase(0, "setup", states)

	res := &Result{}
	sw := newSweeper(f, states, rn.sopts(opts.Unfused))
	stall := 0
	for round := 0; round < opts.MaxRounds; round++ {
		if opts.EarlyStopRounds > 0 && round >= opts.EarlyStopRounds {
			break
		}
		if err := rn.err(); err != nil {
			return nil, fmt.Errorf("core: one-k-swap: round %d: %w", round+1, err)
		}
		roundSnap := snapshot(f.Stats())
		canSwap, err := oneKRound(f, states, isn, opts, rn, round+1, opts.lastByBudget(round), sw, carry)
		if err != nil {
			return nil, err
		}
		res.RoundIO = append(res.RoundIO, statsDelta(f.Stats(), roundSnap))
		res.Rounds++
		newSize := states.Count(semiext.StateIS)
		res.RoundGains = append(res.RoundGains, newSize-size)
		rn.hooks.round(RoundEvent{
			Round: res.Rounds,
			Gain:  newSize - size,
			Size:  newSize,
			IO:    res.RoundIO[len(res.RoundIO)-1],
		})
		if newSize == size {
			stall++
		} else {
			stall = 0
		}
		size = newSize
		if !canSwap || stall >= opts.StallRounds {
			break
		}
	}

	// The sweep normally rode the final post-swap scan and is applied here,
	// after the last round's gain was counted; only an exit the round loop
	// could not predict (a stall, with swaps still firing) pays the classic
	// standalone sweep scan instead.
	if err := sw.finish(); err != nil {
		return nil, err
	}
	opts.tracePhase(res.Rounds, "sweep", states)

	res.collectIS(states)
	res.MemoryBytes = states.MemoryBytes() + isn.MemoryBytes() + sw.buf.MemoryPeak()
	if carry != nil {
		res.MemoryBytes += carry.memoryBytes()
	}
	res.IO = statsDelta(f.Stats(), snap)
	return res, nil
}

// oneKPreRecord runs the pre-swap logic of Algorithm 2 lines 7–14 for one
// record. It is shared between the classic dedicated pre-swap scan and the
// cross-round replay, which both invoke it for every A vertex in scan
// order — against the same completed post-swap state, so the two paths are
// bit-identical.
func oneKPreRecord(states semiext.States, isn *semiext.ISN, u uint32, neighbors []uint32) {
	if states.Get(u) != semiext.StateAdjacent {
		return
	}
	// (i) Conflict: a neighbor already claimed a swap this round.
	for _, nb := range neighbors {
		if states.Get(nb) == semiext.StateProtected {
			states.Set(u, semiext.StateConflict)
			isn.Clear(u)
			return
		}
	}
	w, _, _ := isn.Get(u)
	switch states.Get(w) {
	case semiext.StateIS:
		// (ii) 1-2 swap skeleton (u, v, w): some other still-A vertex v
		// with ISN(v) = w is not adjacent to u.
		if hasOneTwoWitness(states, isn, w, neighbors) {
			states.Set(u, semiext.StateProtected)
			isn.Clear(u)
			states.Set(w, semiext.StateRetrograde)
		}
	case semiext.StateRetrograde:
		// (iii) w is already leaving; u joins the swap.
		states.Set(u, semiext.StateProtected)
		isn.Clear(u)
	}
}

// oneKRound executes one round: pre-swap pass, swap step, post-swap scan.
// It reports whether any swap fired (an R vertex left the set). The
// pre-swap pass resolves from the carry collected by the previous scan when
// one is available, paying no physical scan; otherwise (unfused, overflow,
// first round of an Unfused run) it runs as the classic dedicated scan.
// lastByBudget marks a round known — before its post-swap scan starts — to
// be the last (no swap fired, or the round budget is exhausted); the
// maximality sweep is then scheduled as a deferred pass fused into the
// post-swap scan, and no carry is collected. A non-final post-swap scan
// instead carries the next round's pre-swap collection.
func oneKRound(f Source, states semiext.States, isn *semiext.ISN, opts SwapOptions, rn run, round int, lastByBudget bool, sw *sweeper, carry *carryCollector) (bool, error) {
	// Pre-swap (Algorithm 2 lines 7–14): replay the carried collection, or
	// pay the classic dedicated scan. The replay is the carried/cross-round
	// path, so it honors cancellation like a dedicated scan would.
	if carry != nil && carry.ready() {
		if err := rn.err(); err != nil {
			return false, fmt.Errorf("core: one-k-swap: pre-swap (carried): %w", err)
		}
		pipeline.ResolveCarried(f)
		carry.forEach(func(u uint32, neighbors []uint32) {
			oneKPreRecord(states, isn, u, neighbors)
		})
		carry.reset()
	} else {
		pre := opts.scheduler(f, rn)
		pre.Add(pipeline.Pass{
			Name:          "one-k-pre-swap",
			MutatesStates: true,
			Batch: func(batch []gio.Record) error {
				for i := range batch {
					oneKPreRecord(states, isn, batch[i].ID, batch[i].Neighbors)
				}
				return nil
			},
		})
		if err := pre.Run(); err != nil {
			return false, fmt.Errorf("core: one-k-swap: pre-swap: %w", err)
		}
	}
	opts.tracePhase(round, "pre-swap", states)

	// Swap step (lines 15–19). Pure state-array pass: no file access.
	canSwap := false
	states.ForEachIn(semiext.StateProtected, semiext.StateRetrograde, func(v uint32, s semiext.State) {
		if s == semiext.StateProtected {
			isn.Join(v)
			return
		}
		states.Set(v, semiext.StateNonIS)
		canSwap = true
	})
	opts.tracePhase(round, "swap", states)

	// Post-swap scan (lines 20–28), with the maximality sweep fused in when
	// this is knowably the final round — and the next round's pre-swap
	// collection fused in when it is not.
	post := opts.scheduler(f, rn)
	postPass := postSwapPass(states, isn, false)
	post.Add(postPass)
	switch {
	case !canSwap || lastByBudget:
		post.Add(sw.pass(postPass.Name))
	case carry != nil:
		post.Add(carry.pass("one-k-pre-swap-carry", postPass.Produces))
	}
	if err := post.Run(); err != nil {
		return false, fmt.Errorf("core: one-k-swap: post-swap: %w", err)
	}
	opts.tracePhase(round, "post-swap", states)
	return canSwap, nil
}

// countIS counts the neighbors in state I, returning the first two in scan
// order as e1 and e2. It stops once the count exceeds limit and so returns
// min(count, limit+1): a caller passes the largest count its decision still
// tells apart from every count above it — for a non-member the most IS
// neighbors an A vertex may have (one for one-k-swap, two for two-k-swap),
// and 0 for a set member, whose first IS neighbor is already an edge of the
// set.
func countIS(states semiext.States, neighbors []uint32, limit int) (n int, e1, e2 uint32) {
	for _, nb := range neighbors {
		if states.Get(nb) != semiext.StateIS {
			continue
		}
		switch n {
		case 0:
			e1 = nb
		case 1:
			e2 = nb
		}
		if n++; n > limit {
			return n, e1, e2
		}
	}
	return n, e1, e2
}

// setupPass builds the setup scan (Algorithm 2 lines 1–3; with two set,
// Algorithm 3 lines 1–3) as a logical pass: every non-IS vertex with one IS
// neighbor (one or two for two-k-swap) becomes A with that ISN, and the
// input set is checked for independence along the way.
func setupPass(states semiext.States, isn *semiext.ISN, two bool) pipeline.Pass {
	name, product, limit := "one-k-setup", oneKProduct, 1
	if two {
		name, product, limit = "two-k-setup", twoKProduct, 2
	}
	return pipeline.Pass{
		Name:          name,
		Produces:      product,
		MutatesStates: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				u := r.ID
				if states.Get(u) == semiext.StateIS {
					if c, e, _ := countIS(states, r.Neighbors, 0); c > 0 {
						return fmt.Errorf("%w: edge {%d,%d}", ErrNotIndependent, u, e)
					}
					continue
				}
				switch c, e1, e2 := countIS(states, r.Neighbors, limit); {
				case c == 1:
					states.Set(u, semiext.StateAdjacent)
					isn.Set(u, e1)
				case c == 2 && two:
					states.Set(u, semiext.StateAdjacent)
					isn.Set(u, e1, e2)
				}
			}
			return nil
		},
	}
}

// hasOneTwoWitness reports whether the A vertex whose neighbors are given
// and whose ISN is exactly {w} has a 1-2 swap witness: another A vertex v
// with ISN(v) = {w} not adjacent to it. With x = its neighbors whose ISN is
// exactly {w}, a witness exists iff |ISN⁻¹(w)| ≥ x + 2 (the count includes
// the vertex itself), so the count is skipped when |ISN⁻¹(w)| < 2 and stops
// once x + 2 exceeds it.
func hasOneTwoWitness(states semiext.States, isn *semiext.ISN, w uint32, neighbors []uint32) bool {
	pre := isn.PreimageCount(w)
	if pre < 2 {
		return false
	}
	x := uint32(0)
	for _, nb := range neighbors {
		if states.Get(nb) != semiext.StateAdjacent {
			continue
		}
		if w1, _, c := isn.Get(nb); c == 1 && w1 == w {
			if x++; x+2 > pre {
				return false
			}
		}
	}
	return true
}

// sameISN reports whether the A vertex u's ISN is exactly what countIS
// found among its neighbors: c IS neighbors, e1 and (for a pair) e2, in
// the order countIS returns them.
func sameISN(isn *semiext.ISN, u uint32, c int, e1, e2 uint32) bool {
	w1, w2, n := isn.Get(u)
	return n == c && w1 == e1 && (n == 1 || w2 == e2)
}

// postSwapPass builds the post-swap scan (Algorithm 2 lines 20–28; with two
// set, Algorithm 3 lines 15–23) as a logical pass: 0↔1 swaps and
// recomputation of A states and ISN sets for the next round.
//
// One deliberate extension over the paper's pseudocode: the recomputation
// covers N vertices as well as C/A. A vertex that was N because it had two
// IS neighbors can end the round with exactly one (a swap removed the
// other) and must become A, or later swap opportunities are lost — the
// cascade-swap graph of Figure 5 cannot progress past its first group
// otherwise, contradicting the paper's own worst-case analysis.
func postSwapPass(states semiext.States, isn *semiext.ISN, two bool) pipeline.Pass {
	name, product, limit := "one-k-post-swap", oneKProduct, 1
	if two {
		name, product, limit = "two-k-post-swap", twoKProduct, 2
	}
	return pipeline.Pass{
		Name:          name,
		Produces:      product,
		MutatesStates: true,
		Batch: func(batch []gio.Record) error {
		records:
			for i := range batch {
				r := &batch[i]
				u := r.ID
				was := states.Get(u)
				if was != semiext.StateAdjacent && was != semiext.StateNonIS && was != semiext.StateConflict {
					continue
				}
				c, e1, e2 := countIS(states, r.Neighbors, limit)
				if was == semiext.StateAdjacent {
					if sameISN(isn, u, c, e1, e2) {
						// u stays A with the ISN it holds: clearing and
						// setting it again would take one from its
						// singleton's witness count and give it back.
						continue
					}
					isn.Clear(u)
				}
				switch {
				case c == 1:
					states.Set(u, semiext.StateAdjacent)
					isn.Set(u, e1)
				case c == 2 && two:
					states.Set(u, semiext.StateAdjacent)
					isn.Set(u, e1, e2)
				case c == 0:
					// 0↔1 swap: u may join only if every neighbor is C or N. The
					// strict condition (an A neighbor blocks u) is load-bearing: an
					// A neighbor recorded its ISN earlier in this scan and could
					// later swap against it, so u joining here could create an IS
					// edge one round later.
					states.Set(u, semiext.StateNonIS)
					for _, nb := range r.Neighbors {
						if s := states.Get(nb); s != semiext.StateConflict && s != semiext.StateNonIS {
							continue records
						}
					}
					isn.Join(u)
				default:
					states.Set(u, semiext.StateNonIS)
				}
			}
			return nil
		},
	}
}
