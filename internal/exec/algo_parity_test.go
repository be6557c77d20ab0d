package exec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gio"
)

// The migrated algorithm passes must be oblivious to the scan engine: every
// result field — the set itself, round trace, memory accounting and the I/O
// statistics the paper's tables report — must be bit-identical between the
// sequential oracle and the parallel executor at every worker count.

func openPair(t *testing.T, path string) (seq, par *gio.File) {
	t.Helper()
	var s1, s2 gio.Counters
	seq, err := gio.Open(path, 0, &s1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seq.Close() })
	par, err = gio.Open(path, 0, &s2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { par.Close() })
	return seq, par
}

func TestAlgorithmParity(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name       string
		compressed bool
	}{
		{"raw", false},
		{"compressed", true},
	} {
		g := randomGraph(77, 4000, 24000)
		path := writeFile(t, dir, g, tc.compressed, tc.name+".adj")
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range parityWorkers {
				seqF, parF := openPair(t, path)
				ex := New(parF, workers)

				wantG, err := core.GreedyCtx(context.Background(), seqF, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				gotG, err := core.GreedyCtx(context.Background(), ex, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("greedy workers=%d", workers), gotG, wantG)

				wantOne, err := core.OneKSwapCtx(context.Background(), seqF, wantG.InSet, core.SwapOptions{}, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				gotOne, err := core.OneKSwapCtx(context.Background(), ex, gotG.InSet, core.SwapOptions{}, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("one-k-swap workers=%d", workers), gotOne, wantOne)

				wantTwo, err := core.TwoKSwapCtx(context.Background(), seqF, wantG.InSet, core.SwapOptions{}, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				gotTwo, err := core.TwoKSwapCtx(context.Background(), ex, gotG.InSet, core.SwapOptions{}, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				assertResultsEqual(t, fmt.Sprintf("two-k-swap workers=%d", workers), gotTwo, wantTwo)

				wantUB, err := core.UpperBoundCtx(context.Background(), seqF, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				gotUB, err := core.UpperBoundCtx(context.Background(), ex, core.Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if gotUB != wantUB {
					t.Fatalf("upper bound workers=%d: got %d, want %d", workers, gotUB, wantUB)
				}

				if err := core.VerifyIndependentCtx(context.Background(), ex, gotTwo.InSet, core.Hooks{}); err != nil {
					t.Fatal(err)
				}
				if err := core.VerifyMaximalCtx(context.Background(), ex, gotTwo.InSet, core.Hooks{}); err != nil {
					t.Fatal(err)
				}
				if err := core.VerifyIndependentCtx(context.Background(), seqF, wantTwo.InSet, core.Hooks{}); err != nil {
					t.Fatal(err)
				}
				if err := core.VerifyMaximalCtx(context.Background(), seqF, wantTwo.InSet, core.Hooks{}); err != nil {
					t.Fatal(err)
				}

				// The files accumulated identical scan statistics overall.
				if *seqF.Stats() != *parF.Stats() {
					t.Fatalf("workers=%d: file stats diverged:\n seq %+v\n par %+v",
						workers, *seqF.Stats(), *parF.Stats())
				}
			}
		})
	}
}

// TestFusedUnfusedWorkerMatrix extends the parity harness across the
// scheduler dimension: for each of workers 1, 2, 4 and 7 and each scheduler
// mode (fused, unfused), the swap algorithms and the fused verify must
// produce bit-identical outcomes. Within a mode, every worker count must
// agree on everything including the I/O accounting; across modes the results
// and errors must agree while the fused mode pays fewer physical scans.
func TestFusedUnfusedWorkerMatrix(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(91, 3000, 18000)
	path := writeFile(t, dir, g, true, "matrix.adj")

	type key struct {
		alg     string
		unfused bool
	}
	results := map[key]map[int]*core.Result{}

	for _, unfused := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 7} {
			var stats gio.Counters
			f, err := gio.Open(path, 0, &stats)
			if err != nil {
				t.Fatal(err)
			}
			var src core.Source = f
			if workers > 1 {
				src = New(f, workers)
			}
			greedy, err := core.GreedyCtx(context.Background(), src, core.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.SwapOptions{Unfused: unfused}
			one, err := core.OneKSwapCtx(context.Background(), src, greedy.InSet, opts, core.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			two, err := core.TwoKSwapCtx(context.Background(), src, greedy.InSet, opts, core.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyBothCtx(context.Background(), src, one.InSet, core.Hooks{}); err != nil {
				t.Fatalf("workers=%d unfused=%v: one-k result failed verify: %v", workers, unfused, err)
			}
			if err := core.VerifyBothCtx(context.Background(), src, two.InSet, core.Hooks{}); err != nil {
				t.Fatalf("workers=%d unfused=%v: two-k result failed verify: %v", workers, unfused, err)
			}
			for alg, r := range map[string]*core.Result{"one-k": one, "two-k": two} {
				k := key{alg, unfused}
				if results[k] == nil {
					results[k] = map[int]*core.Result{}
				}
				results[k][workers] = r
			}
			f.Close()
		}
	}

	for k, byWorkers := range results {
		ref := byWorkers[1]
		for _, workers := range []int{2, 4, 7} {
			assertResultsEqual(t, fmt.Sprintf("%s unfused=%v workers=%d vs 1", k.alg, k.unfused, workers),
				byWorkers[workers], ref)
		}
	}
	for _, alg := range []string{"one-k", "two-k"} {
		fused, unfused := results[key{alg, false}][1], results[key{alg, true}][1]
		if !reflect.DeepEqual(fused.InSet, unfused.InSet) || fused.Rounds != unfused.Rounds {
			t.Fatalf("%s: fused and unfused disagree on the result", alg)
		}
		if fused.IO.PhysicalScans >= unfused.IO.PhysicalScans {
			t.Fatalf("%s: fused physical scans %d, not below unfused %d",
				alg, fused.IO.PhysicalScans, unfused.IO.PhysicalScans)
		}
	}
}

func assertResultsEqual(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.InSet, want.InSet) {
		t.Fatalf("%s: InSet differs", label)
	}
	if got.Size != want.Size || got.Rounds != want.Rounds {
		t.Fatalf("%s: size/rounds (%d, %d) vs (%d, %d)", label, got.Size, got.Rounds, want.Size, want.Rounds)
	}
	if !reflect.DeepEqual(got.RoundGains, want.RoundGains) {
		t.Fatalf("%s: RoundGains %v vs %v", label, got.RoundGains, want.RoundGains)
	}
	if got.SCHighWater != want.SCHighWater {
		t.Fatalf("%s: SCHighWater %d vs %d", label, got.SCHighWater, want.SCHighWater)
	}
	if got.MemoryBytes != want.MemoryBytes {
		t.Fatalf("%s: MemoryBytes %d vs %d", label, got.MemoryBytes, want.MemoryBytes)
	}
	if got.IO != want.IO {
		t.Fatalf("%s: IO stats:\n got  %+v\n want %+v", label, got.IO, want.IO)
	}
}
