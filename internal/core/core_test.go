package core

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
)

// writeFile writes g under t.TempDir and opens it, degree-sorted or in
// vertex-ID order.
func writeFile(t *testing.T, g *graph.Graph, sorted bool) *gio.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.adj")
	var err error
	if sorted {
		err = gio.WriteGraphSorted(path, g, nil)
	} else {
		err = gio.WriteGraph(path, g, nil, 0, nil)
	}
	if err != nil {
		t.Fatalf("write graph: %v", err)
	}
	f, err := gio.Open(path, 0, &gio.Counters{})
	if err != nil {
		t.Fatalf("open graph: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func mustIndependent(t *testing.T, f *gio.File, in []bool) {
	t.Helper()
	if err := VerifyIndependent(f, in); err != nil {
		t.Fatalf("independence violated: %v", err)
	}
}

func mustMaximal(t *testing.T, f *gio.File, in []bool) {
	t.Helper()
	if err := VerifyMaximal(f, in); err != nil {
		t.Fatalf("maximality violated: %v", err)
	}
}

func members(n int, vs ...uint32) []bool {
	in := make([]bool, n)
	for _, v := range vs {
		in[v] = true
	}
	return in
}

func TestGreedyFigure1Sorted(t *testing.T) {
	// Degree order visits the degree-0/1 vertices v2..v5 first, recovering
	// the maximum independent set {v2, v3, v4, v5}.
	f := writeFile(t, plrg.Figure1(), true)
	r, err := Greedy(f)
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
	if r.Size != 4 {
		t.Fatalf("greedy on sorted Figure 1: size %d, want 4", r.Size)
	}
	if r.InSet[0] {
		t.Fatal("v1 should not be in the maximum set")
	}
}

func TestBaselineFigure1Unsorted(t *testing.T) {
	// Vertex-ID order visits the hub v1 first and gets stuck with the
	// maximal-but-not-maximum {v1, v2} — the paper's Figure 1 narrative.
	f := writeFile(t, plrg.Figure1(), false)
	r, err := Baseline(f)
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
	if r.Size != 2 {
		t.Fatalf("baseline on unsorted Figure 1: size %d, want 2", r.Size)
	}
	if !r.InSet[0] || !r.InSet[1] {
		t.Fatalf("baseline should pick {v1,v2}, got %v", r.Vertices())
	}
}

func TestGreedyScanCount(t *testing.T) {
	g := plrg.PowerLawN(500, 2.0, 1)
	f := writeFile(t, g, true)
	r, err := Greedy(f)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim is about physical passes: greedy reads the file
	// exactly once. The marking pass and the fused degree/stat rider are two
	// logical passes sharing that one scan.
	if r.IO.PhysicalScans != 1 {
		t.Fatalf("greedy used %d physical scans, want exactly 1", r.IO.PhysicalScans)
	}
	if r.IO.Scans != 2 {
		t.Fatalf("greedy counted %d logical scans, want 2 (marking + degree stats)", r.IO.Scans)
	}
	if r.Degrees.Sum != uint64(2*g.NumEdges()) {
		t.Fatalf("degree rider: Sum = %d, want %d", r.Degrees.Sum, 2*g.NumEdges())
	}
	if r.Degrees.Max == 0 {
		t.Fatal("degree rider: Max = 0 on a power-law graph")
	}
}

func TestOneKSwapFigure2(t *testing.T) {
	// Initial set {v1, v4}; the two 1-2 swaps conflict through edge v3–v6,
	// so exactly one fires and the set grows from 2 to 3.
	g := plrg.Figure2()
	f := writeFile(t, g, true)
	r, err := OneKSwap(f, members(6, 0, 3), SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
	if r.Size != 3 {
		t.Fatalf("one-k-swap on Figure 2: size %d, want 3", r.Size)
	}
}

// TestOneTwoWitnessBoundary pins the 1-2 swap witness test at its boundary
// |ISN⁻¹(w)| = x + 2, where exactly one witness exists. Scanned in ID order,
// 0 is the first A vertex naming w = 3; its neighbour 1 names w too (x = 1),
// and 2 is the one witness. The swap must fire on 0 and end at {0, 2}. A
// test that ruled the witness out one count early would pass over 0, fire
// on 2 instead and end at {1, 2}: the same size, so no size check sees it.
func TestOneTwoWitnessBoundary(t *testing.T) {
	g := graph.FromEdges(4, [][2]uint32{{0, 3}, {1, 3}, {2, 3}, {0, 1}})
	f := writeFile(t, g, false)
	for _, alg := range []struct {
		name string
		run  func(Source, []bool, SwapOptions) (*Result, error)
	}{{"one-k-swap", OneKSwap}, {"two-k-swap", TwoKSwap}} {
		r, err := alg.run(f, members(4, 3), SwapOptions{})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if got := r.Vertices(); !slices.Equal(got, []uint32{0, 2}) {
			t.Fatalf("%s: set %v, want [0 2]", alg.name, got)
		}
	}
}

func TestOneKSwapRejectsDependentInput(t *testing.T) {
	f := writeFile(t, plrg.Path(4), true)
	if _, err := OneKSwap(f, members(4, 0, 1), SwapOptions{}); err == nil {
		t.Fatal("expected error for non-independent initial set")
	}
	if _, err := TwoKSwap(f, members(4, 0, 1), SwapOptions{}); err == nil {
		t.Fatal("expected error for non-independent initial set (two-k)")
	}
}

func TestOneKSwapCascade(t *testing.T) {
	// Figure 5: the cascade-swap graph forces one 1-2 swap per round, so a
	// k-group cascade needs k rounds (plus the terminating round).
	for _, k := range []int{2, 3, 5, 8} {
		g := plrg.Cascade(k)
		f := writeFile(t, g, true)
		init := members(3*k, plrg.CascadeCenters(k)...)
		r, err := OneKSwap(f, init, SwapOptions{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		mustIndependent(t, f, r.InSet)
		mustMaximal(t, f, r.InSet)
		if r.Size != 2*k {
			t.Fatalf("k=%d: size %d, want %d (all leaves)", k, r.Size, 2*k)
		}
		if r.Rounds < k {
			t.Fatalf("k=%d: converged in %d rounds, cascade needs ≥ %d", k, r.Rounds, k)
		}
	}
}

func TestTwoKSwapFigure7(t *testing.T) {
	// Initial set {v1, v2, v3}; a 2-4 swap exchanges {v2, v3} for
	// {v4, v5, v6, v8} while v7 conflicts, ending at size 5.
	g := plrg.Figure7()
	f := writeFile(t, g, true)
	r, err := TwoKSwap(f, members(8, 0, 1, 2), SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
	if r.Size != 5 {
		t.Fatalf("two-k-swap on Figure 7: size %d, want 5", r.Size)
	}
	if r.InSet[6] {
		t.Fatal("v7 must stay outside (it conflicts and is covered by v1)")
	}
}

func TestSwapNeverShrinks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(70)
		m := n * (1 + rng.Intn(4))
		g := plrg.ErdosRenyi(n, m, seed)
		f := writeFile(t, g, true)
		greedy, err := Greedy(f)
		if err != nil {
			t.Fatal(err)
		}
		one, err := OneKSwap(f, greedy.InSet, SwapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		two, err := TwoKSwap(f, greedy.InSet, SwapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mustIndependent(t, f, one.InSet)
		mustMaximal(t, f, one.InSet)
		mustIndependent(t, f, two.InSet)
		mustMaximal(t, f, two.InSet)
		if one.Size < greedy.Size {
			t.Fatalf("seed %d: one-k-swap shrank %d → %d", seed, greedy.Size, one.Size)
		}
		if two.Size < greedy.Size {
			t.Fatalf("seed %d: two-k-swap shrank %d → %d", seed, greedy.Size, two.Size)
		}
	}
}

func TestSwapOnPowerLawGraphs(t *testing.T) {
	for _, beta := range []float64{1.8, 2.2, 2.6} {
		for seed := int64(1); seed <= 3; seed++ {
			g := plrg.PowerLawN(800, beta, seed)
			f := writeFile(t, g, true)
			greedy, err := Greedy(f)
			if err != nil {
				t.Fatal(err)
			}
			one, err := OneKSwap(f, greedy.InSet, SwapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			two, err := TwoKSwap(f, greedy.InSet, SwapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mustIndependent(t, f, one.InSet)
			mustMaximal(t, f, one.InSet)
			mustIndependent(t, f, two.InSet)
			mustMaximal(t, f, two.InSet)
			if one.Size < greedy.Size || two.Size < greedy.Size {
				t.Fatalf("beta=%.1f seed=%d: swaps shrank the set", beta, seed)
			}
		}
	}
}

func TestExternalMaximalMatchesBaselineOrder(t *testing.T) {
	// On a vertex-ID-ordered file, time-forward processing is first-fit in
	// ID order — identical to the Baseline greedy.
	for seed := int64(0); seed < 5; seed++ {
		g := plrg.ErdosRenyi(60, 150, seed)
		f := writeFile(t, g, false)
		ext, err := ExternalMaximal(f, ExternalMaximalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Baseline(f)
		if err != nil {
			t.Fatal(err)
		}
		mustIndependent(t, f, ext.InSet)
		mustMaximal(t, f, ext.InSet)
		if ext.Size != base.Size {
			t.Fatalf("seed %d: external=%d baseline=%d", seed, ext.Size, base.Size)
		}
		for v := range ext.InSet {
			if ext.InSet[v] != base.InSet[v] {
				t.Fatalf("seed %d: sets differ at vertex %d", seed, v)
			}
		}
	}
}

func TestExternalMaximalSpills(t *testing.T) {
	// A tiny PQ buffer forces disk spills without changing the answer.
	g := plrg.PowerLawN(400, 2.0, 7)
	f := writeFile(t, g, false)
	small, err := ExternalMaximal(f, ExternalMaximalOptions{PQMemoryCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	big, err := ExternalMaximal(f, ExternalMaximalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if small.Size != big.Size {
		t.Fatalf("spilling changed the result: %d vs %d", small.Size, big.Size)
	}
	mustIndependent(t, f, small.InSet)
	mustMaximal(t, f, small.InSet)
}

func TestDynamicUpdate(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := plrg.ErdosRenyi(80, 200, seed)
		r := DynamicUpdate(g)
		if err := VerifyIndependentGraph(g, r.InSet); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := VerifyMaximalGraph(g, r.InSet); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDynamicUpdateKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"star", plrg.Star(9), 9},
		{"path10", plrg.Path(10), 5},
		{"complete6", plrg.Complete(6), 1},
		{"cycle8", plrg.Cycle(8), 4},
	}
	for _, c := range cases {
		r := DynamicUpdate(c.g)
		if r.Size != c.want {
			t.Errorf("%s: DynamicUpdate size %d, want %d", c.name, r.Size, c.want)
		}
	}
}

func TestExactKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.NewBuilder(5).Build(), 5},
		{"path5", plrg.Path(5), 3},
		{"cycle5", plrg.Cycle(5), 2},
		{"cycle6", plrg.Cycle(6), 3},
		{"complete6", plrg.Complete(6), 1},
		{"star7", plrg.Star(7), 7},
		{"grid3x3", plrg.Grid(3, 3), 5},
		{"grid4x4", plrg.Grid(4, 4), 8},
		{"figure1", plrg.Figure1(), 4},
	}
	for _, c := range cases {
		got, err := Exact(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: exact independence number %d, want %d", c.name, got, c.want)
		}
		in, size, err := ExactSet(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if size != c.want {
			t.Errorf("%s: ExactSet size %d, want %d", c.name, size, c.want)
		}
		if err := VerifyIndependentGraph(c.g, in); err != nil {
			t.Errorf("%s: ExactSet not independent: %v", c.name, err)
		}
	}
}

func TestExactRejectsLargeGraph(t *testing.T) {
	if _, err := Exact(plrg.Path(65)); err == nil {
		t.Fatal("expected error for 65-vertex graph")
	}
}

func TestUpperBoundDominatesExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(30)
		m := rng.Intn(3 * n)
		g := plrg.ErdosRenyi(n, m, seed)
		f := writeFile(t, g, true)
		bound, err := UpperBound(f)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(exact) > bound {
			t.Fatalf("seed %d: exact %d exceeds Algorithm 5 bound %d", seed, exact, bound)
		}
	}
}

func TestAllAlgorithmsOnDenseAndSparse(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"dense":    plrg.ErdosRenyi(40, 400, 3),
		"sparse":   plrg.ErdosRenyi(200, 100, 3),
		"plrg":     plrg.PowerLawN(300, 2.0, 3),
		"isolated": graph.NewBuilder(10).Build(),
		"single":   graph.NewBuilder(1).Build(),
		"empty":    graph.NewBuilder(0).Build(),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			f := writeFile(t, g, true)
			greedy, err := Greedy(f)
			if err != nil {
				t.Fatal(err)
			}
			mustIndependent(t, f, greedy.InSet)
			mustMaximal(t, f, greedy.InSet)
			one, err := OneKSwap(f, greedy.InSet, SwapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			two, err := TwoKSwap(f, greedy.InSet, SwapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mustIndependent(t, f, one.InSet)
			mustIndependent(t, f, two.InSet)
			mustMaximal(t, f, one.InSet)
			mustMaximal(t, f, two.InSet)
			ext, err := ExternalMaximal(f, ExternalMaximalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			mustIndependent(t, f, ext.InSet)
			mustMaximal(t, f, ext.InSet)
		})
	}
}

func TestSwapFromEmptyInitialSet(t *testing.T) {
	// An empty initial set is valid: everything is N, the post-swap 0-1
	// phase plus the maximality sweep must still deliver a maximal set.
	g := plrg.PowerLawN(200, 2.0, 5)
	f := writeFile(t, g, true)
	empty := make([]bool, f.NumVertices())
	r, err := OneKSwap(f, empty, SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
	if r.Size == 0 {
		t.Fatal("one-k-swap from empty set produced nothing")
	}
	r2, err := TwoKSwap(f, empty, SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, r2.InSet)
	mustMaximal(t, f, r2.InSet)
}

func TestEarlyStopRounds(t *testing.T) {
	g := plrg.Cascade(10)
	f := writeFile(t, g, true)
	init := members(30, plrg.CascadeCenters(10)...)
	r, err := OneKSwap(f, init, SwapOptions{EarlyStopRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds > 3 {
		t.Fatalf("early stop at 3 ran %d rounds", r.Rounds)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet) // the final sweep keeps the result maximal
}

func TestRoundGainsMonotoneSize(t *testing.T) {
	g := plrg.PowerLawN(600, 1.9, 11)
	f := writeFile(t, g, true)
	greedy, err := Greedy(f)
	if err != nil {
		t.Fatal(err)
	}
	r, err := TwoKSwap(f, greedy.InSet, SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, gain := range r.RoundGains {
		if gain < 0 {
			t.Fatalf("round %d lost %d vertices; size must never decrease", i+1, -gain)
		}
		sum += gain
	}
	if greedy.Size+sum > r.Size {
		t.Fatalf("round gains %d on greedy %d exceed final size %d", sum, greedy.Size, r.Size)
	}
}
