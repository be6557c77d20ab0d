package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gio"
	"repro/internal/pipeline"
)

const (
	tinyFixture = "../../testdata/tiny.adj"
	// multiroundFixture is a 6×6 grid (misgen -kind grid -rows 6 -cols 6),
	// chosen because the greedy seed leaves both swap algorithms three
	// rounds of work (gains 2, 2, 0) — enough steady-state rounds to pin
	// the cross-round fusion's one-physical-scan-per-round behavior in a
	// golden, where tiny.adj converges after a single round.
	multiroundFixture = "../../testdata/multiround.adj"
)

func openTiny(t *testing.T) (*gio.File, *gio.Counters) {
	t.Helper()
	return openFixture(t, tinyFixture)
}

func openFixture(t *testing.T, path string) (*gio.File, *gio.Counters) {
	t.Helper()
	stats := &gio.Counters{}
	f, err := gio.Open(path, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, stats
}

// TestScanCountGolden pins the exact logical and physical scan counts of
// every algorithm on the checked-in fixture graph, so a future change cannot
// silently reintroduce an extra physical scan (or silently drop a logical
// pass). The fixture converges in one swap round; with the cross-round
// carry the swap algorithms' pre-swap (and two-k's validating swap) passes
// resolve from the collection that rode the setup scan, so the expected
// counts decompose as:
//
//	greedy            setup(mark+stats fused)                       → 2 logical / 1 physical
//	one-k-swap        setup·carry + (pre carried + post·sweep)      → 4 logical / 2 physical
//	two-k-swap        setup·carry + (pre+swap carried + post·sweep) → 5 logical / 2 physical
//	external-maximal  positions + time-forward (unfusable)          → 2 logical / 2 physical
//	upper-bound       one pass                                      → 1 logical / 1 physical
//	verify-both       independent·maximal fused                     → 2 logical / 1 physical
func TestScanCountGolden(t *testing.T) {
	f, stats := openTiny(t)

	greedy, err := GreedyCtx(context.Background(), f, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkIO(t, "greedy", greedy.IO, 2, 1)

	one, err := OneKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Rounds != 1 {
		t.Fatalf("one-k-swap rounds = %d, want 1 (fixture drifted; regenerate goldens)", one.Rounds)
	}
	checkIO(t, "one-k-swap", one.IO, 4, 2)
	if one.IO.CarriedScans != 1 {
		t.Fatalf("one-k-swap carried scans = %d, want 1", one.IO.CarriedScans)
	}

	two, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if two.Rounds != 1 {
		t.Fatalf("two-k-swap rounds = %d, want 1 (fixture drifted; regenerate goldens)", two.Rounds)
	}
	checkIO(t, "two-k-swap", two.IO, 5, 2)
	if two.IO.CarriedScans != 2 {
		t.Fatalf("two-k-swap carried scans = %d, want 2", two.IO.CarriedScans)
	}

	ext, err := ExternalMaximalCtx(context.Background(), f, ExternalMaximalOptions{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	checkIO(t, "external-maximal", ext.IO, 2, 2)

	before := stats.Snapshot()
	if _, err := UpperBoundCtx(context.Background(), f, Hooks{}); err != nil {
		t.Fatal(err)
	}
	checkIO(t, "upper-bound", scanDelta(stats.Snapshot(), before), 1, 1)

	before = stats.Snapshot()
	if err := VerifyBothCtx(context.Background(), f, two.InSet, Hooks{}); err != nil {
		t.Fatal(err)
	}
	checkIO(t, "verify-both", scanDelta(stats.Snapshot(), before), 2, 1)
}

func checkIO(t *testing.T, label string, io gio.Stats, wantLogical, wantPhysical int) {
	t.Helper()
	if io.Scans != wantLogical || io.PhysicalScans != wantPhysical {
		t.Fatalf("%s: scans = %d logical / %d physical, want %d / %d",
			label, io.Scans, io.PhysicalScans, wantLogical, wantPhysical)
	}
}

func scanDelta(now, before gio.Stats) gio.Stats {
	return gio.Stats{
		Scans:         now.Scans - before.Scans,
		PhysicalScans: now.PhysicalScans - before.PhysicalScans,
	}
}

// TestScanCountGoldenMultiround pins the cross-round fusion win on the
// multi-round fixture: every steady-state swap round costs exactly one
// physical scan (the round's own post-swap pass; its pre-swap — and, for
// two-k-swap, swap-validation — work rode the previous scan as a carried
// collection), so a whole run costs Rounds+1 physical scans. The per-round
// I/O trace pins the same fact round by round. A randomized maximal run
// costs two physical scans however many rounds it takes.
func TestScanCountGoldenMultiround(t *testing.T) {
	f, _ := openFixture(t, multiroundFixture)

	greedy, err := GreedyCtx(context.Background(), f, Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	one, err := OneKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Rounds != 3 {
		t.Fatalf("one-k-swap rounds = %d, want 3 (fixture drifted; regenerate goldens)", one.Rounds)
	}
	// setup·carry (1 phys) + 3 × (pre carried + post scan) + sweep fused:
	// 8 logical, 4 physical, 3 carried.
	checkIO(t, "one-k-swap", one.IO, 8, 4)
	if one.IO.CarriedScans != 3 {
		t.Fatalf("one-k-swap carried scans = %d, want 3", one.IO.CarriedScans)
	}

	two, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if two.Rounds != 3 {
		t.Fatalf("two-k-swap rounds = %d, want 3 (fixture drifted; regenerate goldens)", two.Rounds)
	}
	// setup·carry (1 phys) + 3 × (pre+swap carried + post scan) +
	// sweep fused: 11 logical, 4 physical, 6 carried.
	checkIO(t, "two-k-swap", two.IO, 11, 4)
	if two.IO.CarriedScans != 6 {
		t.Fatalf("two-k-swap carried scans = %d, want 6", two.IO.CarriedScans)
	}

	// Randomized maximal: round 1's elect and retire scans are physical,
	// and the retire scan collects the undecided residual; every later
	// round replays both passes from it. At seed 5 the fixture takes three
	// rounds: 6 logical, 2 physical, 4 carried.
	rnd, err := RandomizedMaximalCtx(context.Background(), f, 5, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Rounds != 3 {
		t.Fatalf("randomized rounds = %d, want 3 (fixture drifted; regenerate goldens)", rnd.Rounds)
	}
	checkIO(t, "randomized", rnd.IO, 2*rnd.Rounds, 2)
	if rnd.IO.CarriedScans != 2*(rnd.Rounds-1) {
		t.Fatalf("randomized carried scans = %d, want %d", rnd.IO.CarriedScans, 2*(rnd.Rounds-1))
	}

	for _, tc := range []struct {
		name          string
		res           *Result
		carriedARound int // carried logical scans per steady-state round
	}{
		{"one-k-swap", one, 1},
		{"two-k-swap", two, 2},
	} {
		if len(tc.res.RoundIO) != tc.res.Rounds {
			t.Fatalf("%s: %d RoundIO entries for %d rounds", tc.name, len(tc.res.RoundIO), tc.res.Rounds)
		}
		for i, io := range tc.res.RoundIO {
			if io.PhysicalScans != 1 {
				t.Errorf("%s round %d: %d physical scans, want exactly 1", tc.name, i+1, io.PhysicalScans)
			}
			if io.CarriedScans != tc.carriedARound {
				t.Errorf("%s round %d: %d carried scans, want %d", tc.name, i+1, io.CarriedScans, tc.carriedARound)
			}
		}
	}
}

// TestStatsInvariants guards the scan accounting against drift under the
// cross-round fusion, for every algorithm on both fixtures: the logical
// count never decreases when fusion is enabled (it stays exactly equal to
// the unfused run's — fusion changes where work happens, never how much),
// PhysicalScans ≤ Scans always, and carried scans never exceed logical
// ones.
func TestStatsInvariants(t *testing.T) {
	type run struct {
		name string
		io   func(f *gio.File, unfused bool) gio.Stats
	}
	runs := []run{
		{"greedy", func(f *gio.File, unfused bool) gio.Stats {
			r, err := GreedyScheduled(f, pipeline.Options{Unfused: unfused})
			if err != nil {
				t.Fatal(err)
			}
			return r.IO
		}},
		{"one-k-swap", func(f *gio.File, unfused bool) gio.Stats {
			seed, err := GreedyScheduled(f, pipeline.Options{Unfused: unfused})
			if err != nil {
				t.Fatal(err)
			}
			r, err := OneKSwapCtx(context.Background(), f, seed.InSet, SwapOptions{Unfused: unfused}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			return r.IO
		}},
		{"two-k-swap", func(f *gio.File, unfused bool) gio.Stats {
			seed, err := GreedyScheduled(f, pipeline.Options{Unfused: unfused})
			if err != nil {
				t.Fatal(err)
			}
			r, err := TwoKSwapCtx(context.Background(), f, seed.InSet, SwapOptions{Unfused: unfused}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			return r.IO
		}},
		{"external-maximal", func(f *gio.File, unfused bool) gio.Stats {
			r, err := ExternalMaximalCtx(context.Background(), f, ExternalMaximalOptions{}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			return r.IO
		}},
	}
	for _, fixture := range []string{tinyFixture, multiroundFixture} {
		for _, r := range runs {
			var io [2]gio.Stats
			for i, unfused := range []bool{false, true} {
				f, _ := openFixture(t, fixture)
				io[i] = r.io(f, unfused)
				label := fmt.Sprintf("%s/%s unfused=%v", filepath.Base(fixture), r.name, unfused)
				if io[i].PhysicalScans > io[i].Scans {
					t.Errorf("%s: PhysicalScans %d > Scans %d", label, io[i].PhysicalScans, io[i].Scans)
				}
				if io[i].CarriedScans > io[i].Scans {
					t.Errorf("%s: CarriedScans %d > Scans %d", label, io[i].CarriedScans, io[i].Scans)
				}
			}
			fused, unfused := io[0], io[1]
			if fused.Scans < unfused.Scans {
				t.Errorf("%s/%s: fusion decreased logical scans: %d fused < %d unfused",
					filepath.Base(fixture), r.name, fused.Scans, unfused.Scans)
			}
			if fused.Scans != unfused.Scans {
				t.Errorf("%s/%s: fused logical scans %d != unfused %d (accounting drifted)",
					filepath.Base(fixture), r.name, fused.Scans, unfused.Scans)
			}
			if unfused.CarriedScans != 0 {
				t.Errorf("%s/%s: unfused run carried %d scans", filepath.Base(fixture), r.name, unfused.CarriedScans)
			}
		}
	}
}

// TestFusedVsUnfusedParity holds the two scheduler modes to identical
// results on the fixture — set membership, sizes, rounds, gains, SC high
// water — while requiring the fused mode to pay strictly fewer physical
// scans per round (and in total) than the unfused baseline, whose physical
// count must equal its logical one. This is the acceptance gate for the
// post-swap + sweep fusion of both swap algorithms.
func TestFusedVsUnfusedParity(t *testing.T) {
	type outcome struct {
		res *Result
		err error
	}
	run := func(alg string, unfused bool) outcome {
		f, _ := openTiny(t)
		greedy, err := GreedyScheduled(f, pipeline.Options{Unfused: unfused})
		if err != nil {
			t.Fatal(err)
		}
		opts := SwapOptions{Unfused: unfused}
		switch alg {
		case "one-k-swap":
			r, err := OneKSwapCtx(context.Background(), f, greedy.InSet, opts, Hooks{})
			return outcome{r, err}
		case "two-k-swap":
			r, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, opts, Hooks{})
			return outcome{r, err}
		}
		t.Fatalf("unknown alg %s", alg)
		return outcome{}
	}

	for _, alg := range []string{"one-k-swap", "two-k-swap"} {
		fused, unfused := run(alg, false), run(alg, true)
		if fused.err != nil || unfused.err != nil {
			t.Fatalf("%s: errors fused=%v unfused=%v", alg, fused.err, unfused.err)
		}
		fr, ur := fused.res, unfused.res
		if !reflect.DeepEqual(fr.InSet, ur.InSet) || fr.Size != ur.Size {
			t.Fatalf("%s: fused and unfused sets differ", alg)
		}
		if fr.Rounds != ur.Rounds || !reflect.DeepEqual(fr.RoundGains, ur.RoundGains) {
			t.Fatalf("%s: round trace differs: %d/%v vs %d/%v",
				alg, fr.Rounds, fr.RoundGains, ur.Rounds, ur.RoundGains)
		}
		if fr.SCHighWater != ur.SCHighWater {
			t.Fatalf("%s: SC high water %d vs %d", alg, fr.SCHighWater, ur.SCHighWater)
		}
		if ur.IO.PhysicalScans != ur.IO.Scans {
			t.Fatalf("%s: unfused baseline fused something: %d physical of %d logical",
				alg, ur.IO.PhysicalScans, ur.IO.Scans)
		}
		if fr.IO.PhysicalScans >= ur.IO.PhysicalScans {
			t.Fatalf("%s: fused pays %d physical scans, not fewer than unfused %d",
				alg, fr.IO.PhysicalScans, ur.IO.PhysicalScans)
		}
		perRoundFused := float64(fr.IO.PhysicalScans) / float64(fr.Rounds)
		perRoundUnfused := float64(ur.IO.PhysicalScans) / float64(ur.Rounds)
		if perRoundFused >= perRoundUnfused {
			t.Fatalf("%s: fused %.2f physical scans/round, not below unfused %.2f",
				alg, perRoundFused, perRoundUnfused)
		}
	}
}
