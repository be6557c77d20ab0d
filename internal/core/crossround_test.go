package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
	"repro/internal/semiext"
)

// TestCarryCollectorOverflow white-boxes the collector: a collection that
// fits buffers the A records in scan order and gives every I vertex its
// carry index, the number of A records buffered before it, across batch
// boundaries; past the budget it discards the buffer and reports not-ready
// (forcing the classic dedicated scans); and re-arming starts afresh.
func TestCarryCollectorOverflow(t *testing.T) {
	const n = 8
	A, I := semiext.StateAdjacent, semiext.StateIS
	states := semiext.NewStates(n)
	for v, s := range []semiext.State{A, A, I, A, I, I, A, I} {
		states.Set(uint32(v), s)
	}
	isn := semiext.NewISN(states, true)
	c := newCarryCollector(states, isn)

	var batch []gio.Record
	for v := uint32(0); v < n; v++ {
		batch = append(batch, gio.Record{ID: v, Neighbors: []uint32{(v + 1) % n, (v + 2) % n}})
	}
	collect := func() {
		t.Helper()
		_ = c.pass("test-carry", "test-product") // arms the collection
		for _, part := range [][]gio.Record{batch[:3], batch[3:]} {
			if err := c.batch(part); err != nil {
				t.Fatal(err)
			}
		}
	}

	collect()
	if !c.ready() {
		t.Fatal("a collection within budget is not ready")
	}
	var ids []uint32
	c.forEach(func(u uint32, _ []uint32) { ids = append(ids, u) })
	if !reflect.DeepEqual(ids, []uint32{0, 1, 3, 6}) {
		t.Fatalf("buffered %v, want the A vertices [0 1 3 6] in scan order", ids)
	}
	for w, want := range map[uint32]uint32{2: 2, 4: 3, 5: 3, 7: 4} {
		if got := isn.CarryIndex(w); got != want {
			t.Fatalf("carry index of I vertex %d = %d, want %d", w, got, want)
		}
	}

	c.buf = semiext.NewRecordBuffer(5) // two records of two neighbours fit
	collect()
	if !c.buf.Overflowed() {
		t.Fatal("collector did not overflow past its budget")
	}
	if c.ready() {
		t.Fatal("overflowed collector claims to be ready")
	}
	if c.buf.Len() != 0 {
		t.Fatalf("overflow did not discard the deferral buffer: %d records kept", c.buf.Len())
	}

	// Re-arming for the next scan starts a fresh, non-overflowed collection.
	_ = c.pass("test-carry", "test-product")
	if c.buf.Overflowed() || c.buf.Len() != 0 {
		t.Fatalf("re-armed collector kept stale state: overflow=%v len=%d", c.buf.Overflowed(), c.buf.Len())
	}
}

// TestReplaySwapFollowsScanOrder runs the validating swap pass twice on one
// hand-built state, as the dedicated scan and as the carried replay, and
// requires the same states and canSwap. In scan order the R vertex w (0)
// comes before the P vertex u (1) of its group, and u has an I neighbor x
// (2), so u fails the group and reinstates w after w has left: canSwap is
// true only if w is handled first, which the replay gets from w's carry
// index. In a whole run x would be another group's confirmed passenger,
// and that group's own departing vertices would set canSwap in either
// order; here x is a plain I vertex so that the order shows.
func TestReplaySwapFollowsScanOrder(t *testing.T) {
	const w, u, x = 0, 1, 2
	records := []gio.Record{
		{ID: w, Neighbors: []uint32{u}},
		{ID: u, Neighbors: []uint32{w, x}},
		{ID: x, Neighbors: []uint32{u}},
	}
	build := func(carried bool) *twoKState {
		states := semiext.NewStates(len(records))
		st := &twoKState{states: states, isn: semiext.NewISN(states, true)}
		if carried {
			// The collection scan saw w and x in the set and u as A.
			states.Set(w, semiext.StateIS)
			states.Set(u, semiext.StateAdjacent)
			states.Set(x, semiext.StateIS)
			st.carry = newCarryCollector(states, st.isn)
			_ = st.carry.pass("test-carry", "test-product")
			if err := st.carry.batch(records); err != nil {
				t.Fatal(err)
			}
		}
		// The pre-swap fired a 1-2 swap: w leaves, u enters.
		states.Set(w, semiext.StateRetrograde)
		states.Set(u, semiext.StateProtected)
		states.Set(x, semiext.StateIS)
		gi := st.groups.add(w, semiext.NoVertex)
		st.groups.assign(w, gi)
		st.groups.assign(u, gi)
		return st
	}

	scan := build(false)
	if err := scan.swapPass().Batch(records); err != nil {
		t.Fatal(err)
	}
	replay := build(true)
	replay.replaySwap()
	if !scan.canSwap {
		t.Fatal("dedicated scan: w left before u failed its group, but canSwap is false")
	}
	if replay.canSwap != scan.canSwap || !reflect.DeepEqual(replay.states.Snapshot(), scan.states.Snapshot()) {
		t.Fatalf("replay canSwap=%v states %v, dedicated scan canSwap=%v states %v",
			replay.canSwap, replay.states.Snapshot(), scan.canSwap, scan.states.Snapshot())
	}
}

// TestCarryOverflowFallbackParity forces the carry buffer to overflow on
// every scan that has anything to buffer and requires both swap algorithms
// to fall back to the classic dedicated scans with bit-identical results.
// A collection that finds no A records cannot overflow a zero budget and
// still carries legitimately (replaying an empty buffer is exactly what a
// dedicated pre-swap scan over an A-free graph does), so the carried count
// is required to drop, not to vanish.
func TestCarryOverflowFallbackParity(t *testing.T) {
	old := carryBudget
	defer func() { carryBudget = old }()

	run := func(alg string) (normal, overflowed *Result) {
		for i, budget := range []func(int) int{old, func(int) int { return 0 }} {
			carryBudget = budget
			f, _ := openFixture(t, multiroundFixture)
			seed, err := Greedy(f)
			if err != nil {
				t.Fatal(err)
			}
			var r *Result
			switch alg {
			case "one-k-swap":
				r, err = OneKSwap(f, seed.InSet, SwapOptions{})
			case "two-k-swap":
				r, err = TwoKSwap(f, seed.InSet, SwapOptions{})
			}
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if i == 0 {
				normal = r
			} else {
				overflowed = r
			}
		}
		return normal, overflowed
	}

	for _, alg := range []string{"one-k-swap", "two-k-swap"} {
		normal, overflowed := run(alg)
		if !reflect.DeepEqual(normal.InSet, overflowed.InSet) || normal.Size != overflowed.Size {
			t.Fatalf("%s: overflow fallback changed the result", alg)
		}
		if normal.Rounds != overflowed.Rounds || !reflect.DeepEqual(normal.RoundGains, overflowed.RoundGains) {
			t.Fatalf("%s: overflow fallback changed the round trace: %v vs %v",
				alg, normal.RoundGains, overflowed.RoundGains)
		}
		if overflowed.IO.CarriedScans >= normal.IO.CarriedScans {
			t.Fatalf("%s: overflow did not suppress carries: %d vs %d normally",
				alg, overflowed.IO.CarriedScans, normal.IO.CarriedScans)
		}
		if normal.IO.CarriedScans == 0 {
			t.Fatalf("%s: normal run carried nothing (fixture no longer exercises the carry)", alg)
		}
		if overflowed.IO.Scans != normal.IO.Scans {
			t.Fatalf("%s: logical scans drifted between carry (%d) and fallback (%d)",
				alg, normal.IO.Scans, overflowed.IO.Scans)
		}
		if overflowed.IO.PhysicalScans <= normal.IO.PhysicalScans {
			t.Fatalf("%s: fallback physical scans %d not above carried %d (overflow never engaged?)",
				alg, overflowed.IO.PhysicalScans, normal.IO.PhysicalScans)
		}
	}
}

// TestRandomizedCarryOverflow forces RandomizedMaximal's residual buffer to
// overflow on every collection, so every round pays both physical scans,
// and requires each property case's result to match the randomized digest
// recorded in the result-identity golden: the in-memory replay and the
// dedicated scans are the same rounds.
func TestRandomizedCarryOverflow(t *testing.T) {
	golden := readIdentityGolden(t)
	cases := map[string]*graph.Graph{}
	for seed := int64(1); seed <= 10; seed++ {
		for model, g := range propertyGraphs(seed) {
			cases[fmt.Sprintf("%s-seed%d", model, seed)] = g
		}
	}
	for _, beta := range []float64{1.8, 2.2} {
		cases[fmt.Sprintf("plrg20k-beta%.1f", beta)] = plrg.PowerLawN(20000, beta, 1)
	}

	old := carryBudget
	defer func() { carryBudget = old }()
	carriedNormally := 0
	for name, g := range cases {
		f := writeSorted(t, g)
		carryBudget = old
		normal, err := RandomizedMaximal(f, propertyRandomizedSeed)
		if err != nil {
			t.Fatal(err)
		}
		carriedNormally += normal.IO.CarriedScans
		carryBudget = func(int) int { return -1 } // no record fits
		r, err := RandomizedMaximal(f, propertyRandomizedSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.IO.PhysicalScans != r.IO.Scans || r.IO.CarriedScans != 0 {
			t.Errorf("%s: overflowing run carried: %d logical / %d physical / %d carried",
				name, r.IO.Scans, r.IO.PhysicalScans, r.IO.CarriedScans)
		}
		key := name + " randomized"
		if want, got := golden[key], randomizedDigest(r); got != want {
			t.Errorf("%s: overflowing run's digest %s, golden %s", key, got, want)
		}
	}
	if carriedNormally == 0 {
		t.Fatal("no case carried a round without the forced overflow (the test no longer exercises the replay)")
	}
}
