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

// TestCarryCollectorOverflow white-boxes the collector's overflow
// discipline: past the budget it discards the deferral buffers and reports
// not-ready (forcing the classic dedicated scans), while the scan-position
// table keeps filling — it is needed by whichever later round's collection
// does fit.
func TestCarryCollectorOverflow(t *testing.T) {
	const n = 8
	states := semiext.NewStates(n)
	for v := uint32(0); v < n; v++ {
		states.Set(v, semiext.StateAdjacent)
	}
	c := newCarryCollector(states, true)
	c.buf = semiext.NewRecordBuffer(5, true)
	_ = c.pass("test-carry", "test-product") // arms the collection

	var batch []gio.Record
	for v := uint32(0); v < n; v++ {
		batch = append(batch, gio.Record{ID: v, Neighbors: []uint32{(v + 1) % n, (v + 2) % n}})
	}
	if err := c.batch(batch); err != nil {
		t.Fatal(err)
	}
	if !c.buf.Overflowed() {
		t.Fatal("collector did not overflow past its budget")
	}
	if c.ready() {
		t.Fatal("overflowed collector claims to be ready")
	}
	if c.buf.Len() != 0 {
		t.Fatalf("overflow did not discard the deferral buffer: %d records kept", c.buf.Len())
	}
	for v := uint32(0); v < n; v++ {
		if c.scanPos[v] != v {
			t.Fatalf("scanPos[%d] = %d, want %d (must keep filling past overflow)", v, c.scanPos[v], v)
		}
	}

	// Re-arming for the next scan starts a fresh, non-overflowed collection.
	_ = c.pass("test-carry", "test-product")
	if c.buf.Overflowed() || c.idx != 0 {
		t.Fatalf("re-armed collector kept stale state: overflow=%v idx=%d", c.buf.Overflowed(), c.idx)
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
