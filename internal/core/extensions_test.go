package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/plrg"
)

func TestRandomizedMaximal(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := plrg.ErdosRenyi(120, 360, seed)
		f := writeFile(t, g, false)
		r, err := RandomizedMaximalCtx(context.Background(), f, seed+100, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		mustIndependent(t, f, r.InSet)
		mustMaximal(t, f, r.InSet)
		if r.Rounds < 1 {
			t.Fatal("no rounds recorded")
		}
	}
}

func TestRandomizedMaximalDeterministicPerSeed(t *testing.T) {
	g := plrg.PowerLawN(500, 2.0, 3)
	f := writeFile(t, g, true)
	a, err := RandomizedMaximalCtx(context.Background(), f, 7, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomizedMaximalCtx(context.Background(), f, 7, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatalf("same seed diverged at vertex %d", v)
		}
	}
	c, err := RandomizedMaximalCtx(context.Background(), f, 8, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	mustIndependent(t, f, c.InSet)
}

func TestRandomizedMaximalEdgeCases(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(7).Build(), // isolated vertices: all join
		plrg.Complete(9),            // exactly one joins
	} {
		f := writeFile(t, g, false)
		r, err := RandomizedMaximalCtx(context.Background(), f, 1, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		mustIndependent(t, f, r.InSet)
		mustMaximal(t, f, r.InSet)
		if g.NumVertices() == 7 && r.Size != 7 {
			t.Fatalf("isolated graph: size %d, want 7", r.Size)
		}
		if g.NumVertices() == 9 && g.NumEdges() > 0 && r.Size != 1 {
			t.Fatalf("complete graph: size %d, want 1", r.Size)
		}
	}
}

func TestColoringKnownGraphs(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		maxWant   int // greedy classes allowed (≥ chromatic number)
		exactWant int // chromatic number, checked as a lower bound
	}{
		// IS extraction is a greedy heuristic: on a path the first class can
		// fragment the remainder, costing one extra class over χ = 2.
		{"path", plrg.Path(10), 3, 2},
		{"evencycle", plrg.Cycle(8), 2, 2},
		{"oddcycle", plrg.Cycle(9), 3, 3},
		{"complete", plrg.Complete(5), 5, 5},
		{"star", plrg.Star(6), 2, 2},
		{"isolated", graph.NewBuilder(4).Build(), 1, 1},
	}
	for _, c := range cases {
		f := writeFile(t, c.g, true)
		col, err := ColorByISCtx(context.Background(), f, 0, Hooks{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := VerifyColoringCtx(context.Background(), f, col, Hooks{}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if col.NumColors < c.exactWant {
			t.Errorf("%s: %d colors is below the chromatic number %d — coloring must be broken",
				c.name, col.NumColors, c.exactWant)
		}
		if col.NumColors > c.maxWant {
			t.Errorf("%s: %d colors, expected at most %d from IS extraction",
				c.name, col.NumColors, c.maxWant)
		}
		total := 0
		for _, s := range col.ClassSizes {
			if s == 0 {
				t.Errorf("%s: empty color class", c.name)
			}
			total += s
		}
		if total != c.g.NumVertices() {
			t.Errorf("%s: class sizes sum to %d of %d", c.name, total, c.g.NumVertices())
		}
	}
}

func TestColoringRandomProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := plrg.ErdosRenyi(n, int(mRaw), seed)
		// Write to a throwaway dir (testing/quick cannot use t.TempDir
		// inside the property without capturing t; that is fine here).
		file := writeFileQuick(g)
		if file == nil {
			return false
		}
		defer file.Close()
		col, err := ColorByISCtx(context.Background(), file, 0, Hooks{})
		if err != nil {
			return false
		}
		if VerifyColoringCtx(context.Background(), file, col, Hooks{}) != nil {
			return false
		}
		// Greedy-by-IS never needs more than maxdeg+1 colors.
		return col.NumColors <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestColoringMaxColorsGuard(t *testing.T) {
	f := writeFile(t, plrg.Complete(6), true)
	if _, err := ColorByISCtx(context.Background(), f, 3, Hooks{}); err == nil {
		t.Fatal("K6 cannot be colored with 3 classes")
	}
}

func TestColoringFirstClassIsGreedyIS(t *testing.T) {
	// On a degree-sorted file the first extracted class is exactly the
	// Greedy independent set.
	g := plrg.PowerLawN(400, 2.0, 5)
	f := writeFile(t, g, true)
	col, err := ColorByISCtx(context.Background(), f, 0, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := GreedyCtx(context.Background(), f, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if col.ClassSizes[0] != greedy.Size {
		t.Fatalf("first class %d, greedy %d", col.ClassSizes[0], greedy.Size)
	}
}

// TestSwapInvariantsQuick drives the swap algorithms through testing/quick
// generated graphs and asserts the paper's core guarantees hold under every
// seed: independence, maximality, and monotone growth from the seed set.
func TestSwapInvariantsQuick(t *testing.T) {
	prop := func(seed int64, nRaw uint8, density uint8) bool {
		n := int(nRaw%80) + 4
		m := n * (int(density%5) + 1) / 2
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.Build()
		f := writeFileQuick(g)
		if f == nil {
			return false
		}
		defer f.Close()
		greedy, err := GreedyCtx(context.Background(), f, Hooks{})
		if err != nil {
			return false
		}
		one, err := OneKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
		if err != nil {
			return false
		}
		two, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
		if err != nil {
			return false
		}
		for _, r := range []*Result{greedy, one, two} {
			if VerifyIndependentCtx(context.Background(), f, r.InSet, Hooks{}) != nil || VerifyMaximalCtx(context.Background(), f, r.InSet, Hooks{}) != nil {
				return false
			}
		}
		return one.Size >= greedy.Size && two.Size >= greedy.Size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
