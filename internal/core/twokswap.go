package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// twoKProduct names the cross-round state product of two-k-swap's setup and
// post-swap passes: the complete state array, ISN sets and ISN preimage
// counts the next round's pre-swap and validating swap passes consume.
const twoKProduct = "two-k-states"

// twoKState bundles the per-round in-memory structures of Algorithm 3.
type twoKState struct {
	states semiext.States
	isn    *semiext.ISN
	deg    []uint32
	sc     *semiext.SCStore

	// carry holds the cross-round collection (A vertices with adjacency,
	// plus the scan-position table): round r's setup/post-swap scan
	// collects, round r+1's pre-swap and validating swap passes replay.
	// Nil under an Unfused schedule.
	carry *carryCollector

	// seenPair[key(w1,w2)] lists scanned A vertices whose ISN is exactly
	// {w1, w2}; seenOne[w] lists those whose ISN is exactly {w}. Entries are
	// validated lazily against current state and ISN before use. They are
	// part of the swap-candidate storage, so their population counts toward
	// the SC high-water mark (Figure 10 measures the whole store).
	seenPair  map[uint64][]uint32
	seenOne   map[uint32][]uint32
	seenCount int
	scPeak    int

	// Swap groups: each fired skeleton registers its leaving IS vertices
	// and entering members so the swap-phase scan can validate the group
	// and roll it back atomically on a passenger collision.
	groups   []swapGroup
	groupOf  []int32 // primary group of a P/R vertex, -1 when none
	groupOf2 []int32 // secondary group (a joiner whose two ISN left in different groups)

	// canSwap is set by the swap pass when any R vertex actually left the
	// set this round.
	canSwap bool
}

type swapGroup struct {
	ws        []uint32 // IS vertices leaving (state R)
	confirmed []uint32 // members already promoted to I this swap phase
	failed    bool
}

func pairKey(w1, w2 uint32) uint64 {
	if w1 > w2 {
		w1, w2 = w2, w1
	}
	return uint64(w1)<<32 | uint64(w2)
}

// TwoKSwap runs Algorithms 3 and 4: starting from the independent set
// initial, it fires 2-3 swap skeletons (two IS vertices exchanged for three
// or more non-IS vertices) in addition to every 1-k swap, using the SC
// swap-candidate store. A round comprises three logical passes — pre-swap,
// a validating swap pass, and post-swap — but in steady state only the
// post-swap pass touches the disk: the setup and post-swap scans maintain
// states, ISN sets and ISN preimage counts incrementally (complete at end
// of scan), so the next round's pre-swap and swap-validation work rides
// them as a cross-round collection (pipeline.Pass.Consumes) and replays
// from memory, dropping a steady-state round from three physical scans to
// one. The setup pass additionally fuses with a read-only
// degree-collection rider, and on the final round — recognizable before
// its post-swap scan because the swap pass runs first — the maximality
// sweep rides the post-swap scan as a fused deferred pass. Carry-buffer
// overflow, a stall exit, and Unfused schedules fall back to the classic
// dedicated scans.
//
// The swap scan validates each promotion against the vertex's in-hand
// adjacency list and rolls back a whole skeleton group if two passengers
// from different groups turn out to be adjacent — an edge no SC pair ever
// examined. See DESIGN.md §3.3 for why rollback is confined to one group.
func TwoKSwap(f Source, initial []bool, opts SwapOptions) (*Result, error) {
	return TwoKSwapCtx(context.Background(), f, initial, opts, Hooks{})
}

// TwoKSwapCtx is TwoKSwap bound to a context and run hooks: ctx cancels
// between batches, between rounds and before carried-collection replays;
// hooks.OnScan observes per-batch progress and hooks.OnRound each completed
// round with its gain and I/O delta.
func TwoKSwapCtx(ctx context.Context, f Source, initial []bool, opts SwapOptions, h Hooks) (*Result, error) {
	n := f.NumVertices()
	if len(initial) != n {
		return nil, fmt.Errorf("core: two-k-swap: initial set has %d entries for %d vertices", len(initial), n)
	}
	opts = opts.WithDefaults(n)
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())

	st := &twoKState{
		states:   semiext.NewStates(n),
		isn:      semiext.NewISN(n, true),
		deg:      make([]uint32, n),
		sc:       semiext.NewSCStore(),
		seenPair: make(map[uint64][]uint32),
		seenOne:  make(map[uint32][]uint32),
		groupOf:  make([]int32, n),
		groupOf2: make([]int32, n),
	}
	if !opts.Unfused {
		st.carry = newCarryCollector(st.states, true)
	}
	size := 0
	for v, in := range initial {
		if in {
			st.states.Set(uint32(v), semiext.StateIS)
			size++
		} else {
			st.states.Set(uint32(v), semiext.StateNonIS)
		}
	}

	// Setup scan (Algorithm 3 lines 1–3): A vertices with one or two IS
	// neighbors, fused with the read-only collection of the degree array
	// that caps SC bucket sizes.
	setup := opts.scheduler(f, rn)
	setup.Add(setupPass(st.states, st.isn, true))
	setup.Add(pipeline.Pass{
		Name:     "two-k-collect-degrees",
		ReadOnly: true, // writes only the degree array no co-scheduled pass reads
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				st.deg[batch[i].ID] = uint32(len(batch[i].Neighbors))
			}
			return nil
		},
	})
	if st.carry != nil {
		setup.Add(st.carry.pass("two-k-pre-swap-carry", twoKProduct))
	}
	if err := setup.Run(); err != nil {
		return nil, err
	}
	opts.tracePhase(0, "setup", st.states)

	res := newResult(n)
	sw := newSweeper(f, st.states, rn.sopts(opts.Unfused))
	stall := 0
	for round := 0; round < opts.MaxRounds; round++ {
		if opts.EarlyStopRounds > 0 && round >= opts.EarlyStopRounds {
			break
		}
		if err := rn.err(); err != nil {
			return nil, fmt.Errorf("core: two-k-swap: round %d: %w", round+1, err)
		}
		roundSnap := snapshot(f.Stats())
		canSwap, err := st.round(f, opts, rn, round+1, opts.lastByBudget(round), sw)
		if err != nil {
			return nil, err
		}
		res.RoundIO = append(res.RoundIO, statsDelta(f.Stats(), roundSnap))
		res.Rounds++
		newSize := st.states.CountIS()
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

	// Apply the sweep collected by the final post-swap scan — after the last
	// round's gain was counted — or pay the classic standalone sweep scan on
	// an unpredicted (stall) exit.
	if err := sw.finish(); err != nil {
		return nil, err
	}
	opts.tracePhase(res.Rounds, "sweep", st.states)

	res.collectIS(st.states)
	res.SCHighWater = st.scPeak
	res.MemoryBytes = st.states.MemoryBytes() + st.isn.MemoryBytes() +
		st.sc.MemoryBytes() + uint64(n)*4 /* deg */ + uint64(n)*8 /* groups */ +
		sw.buf.MemoryPeak()
	if st.carry != nil {
		res.MemoryBytes += st.carry.memoryBytes()
	}
	res.IO = statsDelta(f.Stats(), snap)
	return res, nil
}

// round executes the pre-swap, swap (validating) and post-swap passes,
// reporting whether any swap fired. When the previous scan carried the
// cross-round collection, the pre-swap and validating swap passes replay
// from memory and only the post-swap pass pays a physical scan; otherwise
// each runs as its classic dedicated scan. lastByBudget marks a round whose
// post-swap scan is known to be the run's last regardless of swap progress;
// the no-swap signal from the swap pass is the other way a final post-swap
// scan is recognized, and in either case the maximality sweep fuses into it
// — a non-final post-swap scan instead carries the next round's collection.
func (st *twoKState) round(f Source, opts SwapOptions, rn run, round int, lastByBudget bool, sw *sweeper) (bool, error) {
	st.groups = st.groups[:0]
	for i := range st.groupOf {
		st.groupOf[i] = -1
		st.groupOf2[i] = -1
	}
	st.sc.Reset()
	clear(st.seenPair)
	clear(st.seenOne)
	st.seenCount = 0

	if st.carry != nil && st.carry.ready() {
		// Replay both carried passes against the completed product of the
		// previous scan: pre-swap over the buffered A records, then the
		// validating swap pass over the resulting P vertices (from the same
		// buffer) interleaved with the R vertices in exact scan order. The
		// carried path honors cancellation like the dedicated scans would.
		if err := rn.err(); err != nil {
			return false, fmt.Errorf("core: two-k-swap: pre-swap (carried): %w", err)
		}
		pipeline.ResolveCarried(f)
		nbrSet := make(map[uint32]struct{})
		st.carry.forEach(func(u uint32, neighbors []uint32) {
			st.preSwapRecord(u, neighbors, nbrSet)
		})
		opts.tracePhase(round, "pre-swap", st.states)

		if err := rn.err(); err != nil {
			return false, fmt.Errorf("core: two-k-swap: swap (carried): %w", err)
		}
		pipeline.ResolveCarried(f)
		st.replaySwap()
		st.carry.reset()
	} else {
		pre := opts.scheduler(f, rn)
		pre.Add(st.preSwapPass())
		if err := pre.Run(); err != nil {
			return false, fmt.Errorf("core: two-k-swap: pre-swap: %w", err)
		}
		opts.tracePhase(round, "pre-swap", st.states)

		swap := opts.scheduler(f, rn)
		swap.Add(st.swapPass())
		if err := swap.Run(); err != nil {
			return false, fmt.Errorf("core: two-k-swap: swap: %w", err)
		}
	}
	canSwap := st.canSwap
	opts.tracePhase(round, "swap", st.states)

	post := opts.scheduler(f, rn)
	postPass := postSwapPass(st.states, st.isn, true)
	post.Add(postPass)
	switch {
	case !canSwap || lastByBudget:
		post.Add(sw.pass(postPass.Name))
	case st.carry != nil:
		post.Add(st.carry.pass("two-k-pre-swap-carry", postPass.Produces))
	}
	if err := post.Run(); err != nil {
		return false, fmt.Errorf("core: two-k-swap: post-swap: %w", err)
	}
	opts.tracePhase(round, "post-swap", st.states)
	return canSwap, nil
}

// preSwapPass builds Algorithm 4 — run for every A vertex in scan order —
// as a logical pass, the classic dedicated-scan form of preSwapRecord.
func (st *twoKState) preSwapPass() pipeline.Pass {
	nbrSet := make(map[uint32]struct{})
	return pipeline.Pass{
		Name:           "two-k-pre-swap",
		MutatesStates:  true,
		NeedsScanOrder: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				st.preSwapRecord(batch[i].ID, batch[i].Neighbors, nbrSet)
			}
			return nil
		},
	}
}

// preSwapRecord runs Algorithm 4 for one record. It is shared between the
// classic dedicated pre-swap scan and the cross-round replay, which both
// invoke it for every A vertex in scan order against the same completed
// post-swap state, making the two paths bit-identical. nbrSet is scratch
// storage reused across records.
func (st *twoKState) preSwapRecord(u uint32, neighbors []uint32, nbrSet map[uint32]struct{}) {
	if st.states.Get(u) != semiext.StateAdjacent {
		return
	}
	// Conflict (Algorithm 4 lines 3–4): a neighbor already holds P.
	for _, nb := range neighbors {
		if st.states.Get(nb) == semiext.StateProtected {
			st.states.Set(u, semiext.StateConflict)
			st.isn.Clear(u)
			return
		}
	}

	w1, w2, cnt := st.isn.Get(u)
	switch cnt {
	case 2:
		s1, s2 := st.states.Get(w1), st.states.Get(w2)
		switch {
		case s1 == semiext.StateIS && s2 == semiext.StateIS:
			clear(nbrSet)
			for _, nb := range neighbors {
				nbrSet[nb] = struct{}{}
			}
			if st.fireSkeleton(u, w1, w2, neighbors, nbrSet) {
				return
			}
			st.addCandidatePair(u, w1, w2, nbrSet)
		case s1 == semiext.StateRetrograde && s2 == semiext.StateRetrograde:
			// Algorithm 4 lines 11–12 generalized: all of u's IS
			// neighbors are leaving, so u joins. It may straddle two
			// different groups.
			st.promote(u, neighbors)
			st.join(u, w1)
			st.join(u, w2)
		}
		// One I, one R: u's remaining IS neighbor keeps it out.
	case 1:
		switch st.states.Get(w1) {
		case semiext.StateIS:
			// 1-2 swap skeleton via the witness counter (lines 9–10).
			if hasOneTwoWitness(st.states, st.isn, w1, neighbors) {
				st.promote(u, neighbors)
				st.states.Set(w1, semiext.StateRetrograde)
				gi := st.newGroup(w1)
				st.groupOf[w1] = gi
				st.groupOf[u] = gi
			} else {
				// Singleton-ISN vertices feed the partner index but are
				// not SC-set members (Definition 2 requires a two-IS
				// neighborhood), so they do not count toward the SC
				// high-water mark.
				st.seenOne[w1] = append(st.seenOne[w1], u)
			}
		case semiext.StateRetrograde:
			// Join an already-fired swap (lines 11–12).
			st.promote(u, neighbors)
			st.join(u, w1)
		}
	}
}

// fireSkeleton looks for a 2-3 swap skeleton (a, b, u, w1, w2) using the SC
// pairs recorded for {w1, w2} (Algorithm 4 lines 5–8). The pair's internal
// non-adjacency was verified when it was added; adjacency to u is checked
// against u's in-hand neighbor set. Returns true when a skeleton fired.
func (st *twoKState) fireSkeleton(u, w1, w2 uint32, neighbors []uint32, nbrSet map[uint32]struct{}) bool {
	for _, p := range st.sc.Pairs(w1, w2) {
		if p.U == u || p.V == u {
			// u itself was recorded as an earlier vertex's partner; firing
			// with it would be a size-neutral 2↔2 exchange, not a gain.
			continue
		}
		if !st.validCandidate(p.U, w1, w2) || !st.validCandidate(p.V, w1, w2) {
			continue
		}
		if _, adj := nbrSet[p.U]; adj {
			continue
		}
		if _, adj := nbrSet[p.V]; adj {
			continue
		}
		// Fire: u drives, p.U and p.V are passengers.
		gi := st.newGroup(w1, w2)
		st.states.Set(w1, semiext.StateRetrograde)
		st.states.Set(w2, semiext.StateRetrograde)
		st.groupOf[w1] = gi
		st.groupOf[w2] = gi
		st.promote(u, neighbors)
		st.groupOf[u] = gi
		for _, m := range [2]uint32{p.U, p.V} {
			st.states.Set(m, semiext.StateProtected)
			st.isn.Clear(m)
			st.groupOf[m] = gi
		}
		st.sc.Free(w1, w2)
		delete(st.seenPair, pairKey(w1, w2))
		return true
	}
	return false
}

// validCandidate reports whether v is still an A vertex whose ISN is inside
// {w1, w2} — SC entries and seen lists are validated lazily.
func (st *twoKState) validCandidate(v, w1, w2 uint32) bool {
	if st.states.Get(v) != semiext.StateAdjacent {
		return false
	}
	a, b, c := st.isn.Get(v)
	switch c {
	case 1:
		return a == w1 || a == w2
	case 2:
		return (a == w1 || a == w2) && (b == w1 || b == w2)
	}
	return false
}

// addCandidatePair records (u, v) into SC(w1, w2) for the first eligible
// previously-scanned partner v (Algorithm 4 lines 1–2), and remembers u for
// future partners. Bucket size is capped at deg(w1)+deg(w2), the bound from
// Lemma 6's analysis.
func (st *twoKState) addCandidatePair(u, w1, w2 uint32, nbrSet map[uint32]struct{}) {
	key := pairKey(w1, w2)
	if capacity := int(st.deg[w1] + st.deg[w2]); len(st.sc.Pairs(w1, w2))*2 < capacity {
		if v, ok := st.findPartner(u, w1, w2, nbrSet); ok {
			st.sc.Add(w1, w2, u, v)
		}
	}
	st.seenPair[key] = append(st.seenPair[key], u)
	st.seenCount++
	if cur := st.sc.Size() + st.seenCount; cur > st.scPeak {
		st.scPeak = cur
	}
}

// findPartner returns a previously-scanned A vertex v with ISN ⊆ {w1, w2}
// that is not adjacent to u.
func (st *twoKState) findPartner(u, w1, w2 uint32, nbrSet map[uint32]struct{}) (uint32, bool) {
	try := func(list []uint32) (uint32, bool) {
		for _, v := range list {
			if v == u || !st.validCandidate(v, w1, w2) {
				continue
			}
			if _, adj := nbrSet[v]; adj {
				continue
			}
			return v, true
		}
		return 0, false
	}
	if v, ok := try(st.seenPair[pairKey(w1, w2)]); ok {
		return v, true
	}
	if v, ok := try(st.seenOne[w1]); ok {
		return v, true
	}
	return try(st.seenOne[w2])
}

// promote marks u as P and eagerly demotes its A neighbors to C: u's
// adjacency list is in hand exactly now, and every invalidated neighbor must
// stop being a viable SC candidate before a later skeleton could pull it in
// next to u.
func (st *twoKState) promote(u uint32, neighbors []uint32) {
	st.states.Set(u, semiext.StateProtected)
	st.isn.Clear(u)
	for _, nb := range neighbors {
		if st.states.Get(nb) == semiext.StateAdjacent {
			st.states.Set(nb, semiext.StateConflict)
			st.isn.Clear(nb)
		}
	}
}

// join appends u to the group of the leaving IS vertex w.
func (st *twoKState) join(u, w uint32) {
	gi := st.groupOf[w]
	if gi < 0 {
		// w left the set without a registered group (defensive; should not
		// happen). Register w in a fresh group so validation still covers
		// both u and w — the swap replay discovers R vertices through the
		// groups' ws lists, so w must appear there.
		gi = st.newGroup(w)
		st.groupOf[w] = gi
	}
	if st.groupOf[u] < 0 {
		st.groupOf[u] = gi
	} else if st.groupOf[u] != gi && st.groupOf2[u] < 0 {
		st.groupOf2[u] = gi
	}
}

func (st *twoKState) newGroup(ws ...uint32) int32 {
	st.groups = append(st.groups, swapGroup{ws: append([]uint32(nil), ws...)})
	return int32(len(st.groups) - 1)
}

// swapPass builds the swap phase as a validating sequential logical pass:
// P vertices are confirmed to I unless an I neighbor shows a cross-group
// passenger collision, in which case the whole group rolls back; R vertices
// leave the set unless their group failed. The pass records into st.canSwap
// whether any R vertex actually left.
func (st *twoKState) swapPass() pipeline.Pass {
	st.canSwap = false
	return pipeline.Pass{
		Name:           "two-k-swap-validate",
		MutatesStates:  true,
		NeedsScanOrder: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				switch st.states.Get(r.ID) {
				case semiext.StateProtected:
					st.swapValidateP(r.ID, r.Neighbors)
				case semiext.StateRetrograde:
					st.swapValidateR(r.ID)
				}
			}
			return nil
		},
	}
}

// swapValidateP confirms or demotes one P vertex: it joins the set unless
// its group already failed or an IS neighbor shows a cross-group passenger
// collision, in which case its group(s) roll back. Shared between the
// dedicated swap scan and the cross-round replay.
func (st *twoKState) swapValidateP(u uint32, neighbors []uint32) {
	if st.groupFailed(u) {
		st.states.Set(u, semiext.StateConflict)
		return
	}
	for _, nb := range neighbors {
		if st.states.Get(nb) == semiext.StateIS {
			// Cross-group passenger collision: nb was promoted earlier in
			// this scan next to u. Demote u and roll its group(s) back.
			st.states.Set(u, semiext.StateConflict)
			st.fail(st.groupOf[u])
			st.fail(st.groupOf2[u])
			return
		}
	}
	st.states.Set(u, semiext.StateIS)
	st.confirm(u)
}

// swapValidateR resolves one R vertex: reinstated if its group failed,
// otherwise it leaves the set and the round counts as having swapped.
func (st *twoKState) swapValidateR(u uint32) {
	if gi := st.groupOf[u]; gi >= 0 && st.groups[gi].failed {
		st.states.Set(u, semiext.StateIS) // reinstated
	} else {
		st.states.Set(u, semiext.StateNonIS)
		st.canSwap = true
	}
}

// replaySwap runs the validating swap pass from the cross-round carry
// instead of a dedicated scan. Every P vertex was an A vertex when the
// carry was collected, so its adjacency list is in the buffer; the R
// vertices (IS vertices demoted by the pre-swap replay, registered in their
// swap groups) carry no adjacency reads but their position in the scan
// matters — a group's failure mid-scan decides whether a later-scanned R
// leaves or is reinstated, and whether its departure counts toward canSwap
// — so they are interleaved with the buffered records in exact scan order
// via the collector's scan-position table.
func (st *twoKState) replaySwap() {
	st.canSwap = false
	c := st.carry
	type rv struct{ pos, v uint32 }
	var rs []rv
	for _, g := range st.groups {
		for _, w := range g.ws {
			if st.states.Get(w) == semiext.StateRetrograde {
				rs = append(rs, rv{c.scanPos[w], w})
			}
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].pos < rs[j].pos })

	ri := 0
	for i := 0; i < c.buf.Len(); i++ {
		for ri < len(rs) && rs[ri].pos < c.buf.Pos(i) {
			if st.states.Get(rs[ri].v) == semiext.StateRetrograde {
				st.swapValidateR(rs[ri].v)
			}
			ri++
		}
		if u := c.buf.ID(i); st.states.Get(u) == semiext.StateProtected {
			st.swapValidateP(u, c.buf.Neighbors(i))
		}
	}
	for ; ri < len(rs); ri++ {
		if st.states.Get(rs[ri].v) == semiext.StateRetrograde {
			st.swapValidateR(rs[ri].v)
		}
	}
}

func (st *twoKState) groupFailed(u uint32) bool {
	if gi := st.groupOf[u]; gi >= 0 && st.groups[gi].failed {
		return true
	}
	if gi := st.groupOf2[u]; gi >= 0 && st.groups[gi].failed {
		return true
	}
	return false
}

func (st *twoKState) confirm(u uint32) {
	if gi := st.groupOf[u]; gi >= 0 {
		st.groups[gi].confirmed = append(st.groups[gi].confirmed, u)
	}
	if gi := st.groupOf2[u]; gi >= 0 {
		st.groups[gi].confirmed = append(st.groups[gi].confirmed, u)
	}
}

// fail rolls a group back: members already confirmed are demoted to C and
// the group's leaving IS vertices are reinstated. Cross-group P–R adjacency
// is impossible (an A vertex's IS neighbors are exactly its ISN set, and an
// IS vertex is demoted by at most one skeleton per round), so reinstating
// the ws cannot collide with any other group's confirmed members.
func (st *twoKState) fail(gi int32) {
	if gi < 0 || st.groups[gi].failed {
		return
	}
	g := &st.groups[gi]
	g.failed = true
	for _, m := range g.confirmed {
		st.states.Set(m, semiext.StateConflict)
	}
	for _, w := range g.ws {
		st.states.Set(w, semiext.StateIS)
	}
}
