package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
	"repro/internal/semiext"
)

// TestCarryCollectorOverflow white-boxes the collector: a collection that
// fits buffers the A records in scan order across batch boundaries; past
// the budget it discards the buffer and reports not-ready (forcing the
// classic dedicated scans); and re-arming starts afresh.
func TestCarryCollectorOverflow(t *testing.T) {
	const n = 8
	A, I := semiext.StateAdjacent, semiext.StateIS
	states := semiext.NewStates(n)
	for v, s := range []semiext.State{A, A, I, A, I, I, A, I} {
		states.Set(uint32(v), s)
	}
	c := newCarryCollector(states)

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

// TestFailedGroupLeavesNoRetrograde white-boxes the invariant the carried
// swap replay's order rests on (see replaySwap): once a group fails, none
// of its vertices is still R and its confirmed members are C, so the R
// vertices the replay meets after the P vertices are exactly those of the
// surviving groups. Group 0 is a 2-3 skeleton (w1, w2 leave; a, b, c
// enter), group 1 a 1-2 swap (x leaves; y enters), and c is adjacent to y:
// validated in the order y, a, b, c, group 1 confirms y, group 0 confirms a
// and b, and c's collision with y fails group 0.
func TestFailedGroupLeavesNoRetrograde(t *testing.T) {
	const w1, w2, a, b, c, x, y = 0, 1, 2, 3, 4, 5, 6
	R, P := semiext.StateRetrograde, semiext.StateProtected
	states := semiext.NewStates(7)
	for v, s := range []semiext.State{R, R, P, P, P, R, P} {
		states.Set(uint32(v), s)
	}
	st := &twoKState{states: states, isn: semiext.NewISN(states, true)}
	g0 := st.groups.add(w1, w2)
	for _, v := range []uint32{w1, w2, a, b, c} {
		st.groups.assign(v, g0)
	}
	g1 := st.groups.add(x, semiext.NoVertex)
	for _, v := range []uint32{x, y} {
		st.groups.assign(v, g1)
	}

	st.swapValidateP(y, []uint32{x, c})
	st.swapValidateP(a, []uint32{w1})
	st.swapValidateP(b, []uint32{w2})
	if got := states.Get(a); got != semiext.StateIS {
		t.Fatalf("a confirmed before the failure is %v, want I", got)
	}
	st.swapValidateP(c, []uint32{w1, w2, y})

	if !st.groups.failed(g0) || st.groups.failed(g1) {
		t.Fatalf("failed: group 0 %v, group 1 %v; want true, false", st.groups.failed(g0), st.groups.failed(g1))
	}
	for _, v := range []uint32{w1, w2, a, b, c} {
		if states.Get(v) == R {
			t.Errorf("vertex %d of the failed group is still R", v)
		}
	}
	for _, v := range []uint32{a, b, c} {
		if got := states.Get(v); got != semiext.StateConflict {
			t.Errorf("member %d of the failed group is %v, want C", v, got)
		}
	}
	for _, v := range []uint32{w1, w2} {
		if got := states.Get(v); got != semiext.StateIS {
			t.Errorf("leaving vertex %d of the failed group is %v, want I (reinstated)", v, got)
		}
	}
	if states.Get(x) != R || states.Get(y) != semiext.StateIS {
		t.Fatalf("surviving group: x %v, y %v; want R, I", states.Get(x), states.Get(y))
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
			seed, err := GreedyCtx(context.Background(), f, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			var r *Result
			switch alg {
			case "one-k-swap":
				r, err = OneKSwapCtx(context.Background(), f, seed.InSet, SwapOptions{}, Hooks{})
			case "two-k-swap":
				r, err = TwoKSwapCtx(context.Background(), f, seed.InSet, SwapOptions{}, Hooks{})
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
		normal, err := RandomizedMaximalCtx(context.Background(), f, propertyRandomizedSeed, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		carriedNormally += normal.IO.CarriedScans
		carryBudget = func(int) int { return -1 } // no record fits
		r, err := RandomizedMaximalCtx(context.Background(), f, propertyRandomizedSeed, Hooks{})
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
