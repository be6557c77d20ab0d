package core

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

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

	// index holds the round's swap-candidate storage: the SC pairs and the
	// partner lists of scanned A vertices whose ISN is exactly {w1, w2} or
	// {w}. Entries are validated lazily against current state and ISN
	// before use. The SC pairs and the two-vertex partner lists count
	// toward the SC high-water mark (Figure 10 measures the whole store).
	index       *semiext.CandidateIndex
	pairAppends int // the round's partner appends under two-vertex keys
	scPeak      int

	// adj answers adjacency queries against the record in hand.
	adj adjacency

	// carry holds the cross-round collection (A vertices with adjacency):
	// round r's setup/post-swap scan collects, round r+1's pre-swap and
	// validating swap passes replay. Nil under an Unfused schedule.
	carry *carryCollector

	// groups registers each fired skeleton's leaving IS vertices and
	// entering members, so the swap-phase scan can validate the group and
	// roll it back atomically on a passenger collision.
	groups swapGroups

	// canSwap is set by the swap pass when any R vertex actually left the
	// set this round.
	canSwap bool

	// passengers is set once a fired skeleton has made a passenger P this
	// round. Until then an A vertex has no P neighbor: every other P vertex
	// was promoted, which demoted its A neighbors to C.
	passengers bool
}

// TwoKSwapCtx runs Algorithms 3 and 4: starting from the independent set
// initial, it fires 2-3 swap skeletons (two IS vertices exchanged for three
// or more non-IS vertices) in addition to every 1-k swap, using the SC
// swap-candidate store. A round comprises three logical passes — pre-swap,
// a validating swap pass, and post-swap — but in steady state only the
// post-swap pass touches the disk: the setup and post-swap scans maintain
// states, ISN sets and ISN preimage counts incrementally (complete at end
// of scan), so the next round's pre-swap and swap-validation work rides
// them as a cross-round collection (pipeline.Pass.Consumes) and replays
// from memory, dropping a steady-state round from three physical scans to
// one. On the final round — recognizable before its post-swap scan
// because the swap pass runs first — the maximality sweep rides the
// post-swap scan as a fused deferred pass. Carry-buffer overflow, a stall
// exit, and Unfused schedules fall back to the classic dedicated scans.
//
// Besides the state and ISN arrays and the carry, a round keeps only
// structures sized to its own work: the candidate index holds the round's
// partner lists and SC pairs, and the swap groups hold its P and R
// vertices. Both are emptied each round and keep their allocations, and
// Result.MemoryBytes counts every byte they allocated.
//
// The swap scan validates each promotion against the vertex's in-hand
// adjacency list and rolls back a whole skeleton group if two passengers
// from different groups turn out to be adjacent — an edge no SC pair ever
// examined.
//
// ctx cancels between batches, between rounds and before carried-collection
// replays; hooks.OnScan observes per-batch progress and hooks.OnRound each
// completed round with its gain and I/O delta.
func TwoKSwapCtx(ctx context.Context, f Source, initial []bool, opts SwapOptions, h Hooks) (*Result, error) {
	n := f.NumVertices()
	if len(initial) != n {
		return nil, fmt.Errorf("core: two-k-swap: initial set has %d entries for %d vertices", len(initial), n)
	}
	opts = opts.WithDefaults(n)
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())

	states := semiext.NewStates(n)
	st := &twoKState{
		states: states,
		isn:    semiext.NewISN(states, true),
		index:  semiext.NewCandidateIndex(),
	}
	if !opts.Unfused {
		st.carry = newCarryCollector(states)
	}
	states.Fill(initial, semiext.StateIS, semiext.StateNonIS)
	size := states.Count(semiext.StateIS)

	// Setup scan (Algorithm 3 lines 1–3): A vertices with one or two IS
	// neighbors. Round 1's pre-swap collection rides it.
	setup := opts.scheduler(f, rn)
	setup.Add(setupPass(st.states, st.isn, true))
	if st.carry != nil {
		setup.Add(st.carry.pass("two-k-pre-swap-carry", twoKProduct))
	}
	if err := setup.Run(); err != nil {
		return nil, err
	}
	opts.tracePhase(0, "setup", st.states)

	res := &Result{}
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
		newSize := st.states.Count(semiext.StateIS)
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
		st.index.MemoryBytes() + st.groups.memoryBytes() + st.adj.memoryBytes() +
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
	st.groups.reset()
	st.index.Reset()
	st.pairAppends = 0
	st.passengers = false

	if st.carry != nil && st.carry.ready() {
		// Replay both carried passes against the completed product of the
		// previous scan: pre-swap over the buffered A records, then the
		// validating swap pass over the resulting P vertices (from the same
		// buffer) and the R vertices (see replaySwap). The carried path
		// honors cancellation like the dedicated scans would.
		if err := rn.err(); err != nil {
			return false, fmt.Errorf("core: two-k-swap: pre-swap (carried): %w", err)
		}
		pipeline.ResolveCarried(f)
		st.carry.forEach(st.preSwapRecord)
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
	return pipeline.Pass{
		Name:          "two-k-pre-swap",
		MutatesStates: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				st.preSwapRecord(batch[i].ID, batch[i].Neighbors)
			}
			return nil
		},
	}
}

// preSwapRecord runs Algorithm 4 for one record. It is shared between the
// classic dedicated pre-swap scan and the cross-round replay, which both
// invoke it for every A vertex in scan order against the same completed
// post-swap state, making the two paths bit-identical.
func (st *twoKState) preSwapRecord(u uint32, neighbors []uint32) {
	if st.states.Get(u) != semiext.StateAdjacent {
		return
	}
	// Conflict (Algorithm 4 lines 3–4): a neighbor already holds P. Only a
	// skeleton passenger can be that neighbor (see twoKState.passengers).
	if st.passengers {
		for _, nb := range neighbors {
			if st.states.Get(nb) == semiext.StateProtected {
				st.states.Set(u, semiext.StateConflict)
				st.isn.Clear(u)
				return
			}
		}
	}

	w1, w2, cnt := st.isn.Get(u)
	switch cnt {
	case 2:
		s1, s2 := st.states.Get(w1), st.states.Get(w2)
		switch {
		case s1 == semiext.StateIS && s2 == semiext.StateIS:
			st.adj.load(neighbors)
			if st.fireSkeleton(u, w1, w2, neighbors) {
				return
			}
			st.addCandidatePair(u, w1, w2)
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
				gi := st.groups.add(w1, semiext.NoVertex)
				st.groups.assign(w1, gi)
				st.groups.assign(u, gi)
			} else {
				// Singleton-ISN vertices feed the partner index but are
				// not SC-set members (Definition 2 requires a two-IS
				// neighborhood), so they do not count toward the SC
				// high-water mark.
				st.index.AddPartner(w1, semiext.NoVertex, u)
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
// against u's in-hand neighbor list. Returns true when a skeleton fired.
func (st *twoKState) fireSkeleton(u, w1, w2 uint32, neighbors []uint32) bool {
	for p := range st.index.Pairs(w1, w2) {
		if p.U == u || p.V == u {
			// u itself was recorded as an earlier vertex's partner; firing
			// with it would be a size-neutral 2↔2 exchange, not a gain.
			continue
		}
		if !st.validCandidate(p.U, w1, w2) || !st.validCandidate(p.V, w1, w2) {
			continue
		}
		if st.adj.has(p.U) || st.adj.has(p.V) {
			continue
		}
		// Fire: u drives, p.U and p.V are passengers.
		gi := st.groups.add(w1, w2)
		st.states.Set(w1, semiext.StateRetrograde)
		st.states.Set(w2, semiext.StateRetrograde)
		st.groups.assign(w1, gi)
		st.groups.assign(w2, gi)
		st.promote(u, neighbors)
		st.groups.assign(u, gi)
		for _, m := range [2]uint32{p.U, p.V} {
			st.states.Set(m, semiext.StateProtected)
			st.isn.Clear(m)
			st.groups.assign(m, gi)
		}
		st.passengers = true
		st.index.Free(w1, w2)
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
// future partners.
//
// Lemma 6's analysis caps a bucket at deg(w1)+deg(w2) vertices, but on a
// symmetric adjacency file the cap can never bind, so it is not checked:
// each pair in SC(w1, w2) was added by a distinct earlier-scanned vertex of
// N(w1) ∩ N(w2) other than u, so 2·|SC(w1, w2)| ≤ 2·(min(deg w1, deg w2) − 1),
// which is below deg(w1)+deg(w2). Every writer in this module emits both
// directions of each edge; only a hand-made asymmetric file could differ.
func (st *twoKState) addCandidatePair(u, w1, w2 uint32) {
	if v, ok := st.findPartner(u, w1, w2); ok {
		st.index.AddPair(w1, w2, u, v)
	}
	st.index.AddPartner(w1, w2, u)
	st.pairAppends++
	if cur := st.index.Size() + st.pairAppends; cur > st.scPeak {
		st.scPeak = cur
	}
}

// findPartner returns a previously-scanned A vertex v with ISN ⊆ {w1, w2}
// that is not adjacent to u: the partners of {w1, w2} first, then those of
// {w1} and of {w2}, each in scan order.
func (st *twoKState) findPartner(u, w1, w2 uint32) (uint32, bool) {
	for _, key := range [3][2]uint32{{w1, w2}, {w1, semiext.NoVertex}, {w2, semiext.NoVertex}} {
		for v := range st.index.Partners(key[0], key[1]) {
			if v != u && st.validCandidate(v, w1, w2) && !st.adj.has(v) {
				return v, true
			}
		}
	}
	return 0, false
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
	gi, _ := st.groups.of(w)
	if gi < 0 {
		// w left the set without a registered group (defensive; should not
		// happen). Register w in a fresh group so validation still covers
		// both u and w — the swap replay discovers R vertices through the
		// groups' ws lists, so w must appear there.
		gi = st.groups.add(w, semiext.NoVertex)
		st.groups.assign(w, gi)
	}
	st.groups.join(u, gi)
}

// swapPass builds the swap phase as a validating sequential logical pass:
// P vertices are confirmed to I unless an I neighbor shows a cross-group
// passenger collision, in which case the whole group rolls back; R vertices
// leave the set unless their group failed. The pass records into st.canSwap
// whether any R vertex actually left.
func (st *twoKState) swapPass() pipeline.Pass {
	st.canSwap = false
	return pipeline.Pass{
		Name:          "two-k-swap-validate",
		MutatesStates: true,
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
	g1, g2 := st.groups.of(u)
	if st.groups.failed(g1) || st.groups.failed(g2) {
		st.states.Set(u, semiext.StateConflict)
		return
	}
	for _, nb := range neighbors {
		if st.states.Get(nb) == semiext.StateIS {
			// Cross-group passenger collision: nb was promoted earlier in
			// this scan next to u. Demote u and roll its group(s) back.
			st.states.Set(u, semiext.StateConflict)
			st.groups.fail(g1, st.states)
			st.groups.fail(g2, st.states)
			return
		}
	}
	st.isn.Join(u)
	st.groups.confirm(g1, u)
	st.groups.confirm(g2, u)
}

// swapValidateR lets one R vertex leave the set, and the round counts as
// having swapped. Its group has not failed: a failing group resets its own
// R vertices to I (swapGroups.fail), and this runs only on state R.
func (st *twoKState) swapValidateR(u uint32) {
	st.states.Set(u, semiext.StateNonIS)
	st.canSwap = true
}

// replaySwap runs the validating swap pass from the cross-round carry
// instead of a dedicated scan. Every P vertex was an A vertex when the
// carry was collected, so its adjacency list is in the buffer; the R
// vertices (IS vertices demoted by the pre-swap replay) carry no adjacency
// reads and are found through their swap groups. The replay validates every
// buffered P vertex in scan order, then the R vertices still in state R,
// and reaches the dedicated scan's states and canSwap:
//   - a P vertex's verdict reads only which of its neighbors are I, and an
//     R vertex is not I whether or not it has left yet;
//   - a failing group resets its own R vertices to I, so the R vertices
//     left after the P vertices are exactly those of the surviving groups;
//   - every group failure is set off by a confirmed member of a group that
//     has not failed at that moment, so when any group fired, the last
//     failure leaves a survivor, whose R vertices set canSwap in either
//     order.
func (st *twoKState) replaySwap() {
	st.canSwap = false
	buf := st.carry.buf
	for i := 0; i < buf.Len(); i++ {
		if u := buf.ID(i); st.states.Get(u) == semiext.StateProtected {
			st.swapValidateP(u, buf.Neighbors(i))
		}
	}
	for _, g := range st.groups.list {
		for _, w := range g.ws {
			if w != semiext.NoVertex && st.states.Get(w) == semiext.StateRetrograde {
				st.swapValidateR(w)
			}
		}
	}
}

// swapGroups holds the round's swap groups and, for each P or R vertex, the
// groups it belongs to. Only P and R vertices have entries — a few hundred
// in the first round of a 150k-vertex power-law graph, a handful later — so
// the table is sized to the round's swaps, not to |V|. reset empties it
// and keeps every allocation.
type swapGroups struct {
	members semiext.KeyTable // P or R vertex → its position in memberOf
	// memberOf holds, by position, a vertex's primary group and its
	// secondary one (a joiner whose two ISN left in different groups); -1
	// when none.
	memberOf  [][2]int32
	list      []swapGroup
	confirmed []confirmedMember // every group's confirmed members
}

type swapGroup struct {
	ws        [2]uint32 // IS vertices leaving (state R); ws[1] is NoVertex for a 1-k swap
	confirmed int32     // the member last promoted to I this swap phase, -1 when none
	failed    bool
}

// confirmedMember links one group's confirmed members, newest first.
type confirmedMember struct {
	v    uint32
	next int32 // the group's previously confirmed member, -1 when none
}

func (gs *swapGroups) reset() {
	gs.members.Reset()
	gs.memberOf = gs.memberOf[:0]
	gs.list = gs.list[:0]
	gs.confirmed = gs.confirmed[:0]
}

// add registers a group whose leaving IS vertices are w1 and w2 (NoVertex
// for a 1-k swap) and returns its index.
func (gs *swapGroups) add(w1, w2 uint32) int32 {
	gs.list = append(gs.list, swapGroup{ws: [2]uint32{w1, w2}, confirmed: -1})
	return int32(len(gs.list) - 1)
}

// groupsOf returns v's group entry, creating an empty one.
func (gs *swapGroups) groupsOf(v uint32) *[2]int32 {
	pos := gs.members.Insert(uint64(v))
	if pos == len(gs.memberOf) {
		gs.memberOf = append(gs.memberOf, [2]int32{-1, -1})
	}
	return &gs.memberOf[pos]
}

// assign makes gi v's primary group.
func (gs *swapGroups) assign(v uint32, gi int32) { gs.groupsOf(v)[0] = gi }

// join adds gi to u's groups: as the primary group when u has none, else
// as the secondary one when it differs and that slot is free.
func (gs *swapGroups) join(u uint32, gi int32) {
	g := gs.groupsOf(u)
	if g[0] < 0 {
		g[0] = gi
	} else if g[0] != gi && g[1] < 0 {
		g[1] = gi
	}
}

// of returns v's primary and secondary groups, -1 for none.
func (gs *swapGroups) of(v uint32) (int32, int32) {
	if pos, ok := gs.members.Find(uint64(v)); ok {
		return gs.memberOf[pos][0], gs.memberOf[pos][1]
	}
	return -1, -1
}

func (gs *swapGroups) failed(gi int32) bool { return gi >= 0 && gs.list[gi].failed }

// confirm records u's promotion to I in group gi, if any.
func (gs *swapGroups) confirm(gi int32, u uint32) {
	if gi < 0 {
		return
	}
	g := &gs.list[gi]
	gs.confirmed = append(gs.confirmed, confirmedMember{v: u, next: g.confirmed})
	g.confirmed = int32(len(gs.confirmed) - 1)
}

// fail rolls group gi back, if any: members already confirmed are demoted
// to C and the group's leaving IS vertices are reinstated. Cross-group P–R
// adjacency is impossible (an A vertex's IS neighbors are exactly its ISN
// set, and an IS vertex is demoted by at most one skeleton per round), so
// reinstating the ws cannot collide with any other group's confirmed
// members.
func (gs *swapGroups) fail(gi int32, states semiext.States) {
	if gi < 0 || gs.list[gi].failed {
		return
	}
	g := &gs.list[gi]
	g.failed = true
	for e := g.confirmed; e >= 0; e = gs.confirmed[e].next {
		states.Set(gs.confirmed[e].v, semiext.StateConflict)
	}
	for _, w := range g.ws {
		if w != semiext.NoVertex {
			states.Set(w, semiext.StateIS)
		}
	}
}

// memoryBytes returns the bytes the table has allocated; capacity never
// shrinks, so this is also its high-water mark.
func (gs *swapGroups) memoryBytes() uint64 {
	return gs.members.MemoryBytes() +
		uint64(cap(gs.memberOf))*uint64(unsafe.Sizeof([2]int32{})) +
		uint64(cap(gs.list))*uint64(unsafe.Sizeof(swapGroup{})) +
		uint64(cap(gs.confirmed))*uint64(unsafe.Sizeof(confirmedMember{}))
}

// adjacency answers whether a vertex is a neighbor of the record in hand,
// from a sorted copy of its list; the copy is scratch reused across
// records.
type adjacency struct{ sorted []uint32 }

func (a *adjacency) load(neighbors []uint32) {
	a.sorted = append(a.sorted[:0], neighbors...)
	slices.Sort(a.sorted)
}

func (a *adjacency) has(v uint32) bool {
	_, found := slices.BinarySearch(a.sorted, v)
	return found
}

func (a *adjacency) memoryBytes() uint64 { return uint64(cap(a.sorted)) * 4 }
