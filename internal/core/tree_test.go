package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// treeMIS computes the exact independence number of a tree (or forest) with
// the classical two-state DP, giving the tests an exact oracle far beyond
// the 64-vertex branch-and-bound limit.
func treeMIS(g *graph.Graph) int {
	n := g.NumVertices()
	visited := make([]bool, n)
	incl := make([]int, n) // best including v
	excl := make([]int, n) // best excluding v
	total := 0
	type frame struct {
		v      uint32
		parent uint32
		stage  int
	}
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		stack := []frame{{uint32(root), ^uint32(0), 0}}
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.stage == 0 {
				visited[fr.v] = true
				incl[fr.v], excl[fr.v] = 1, 0
				fr.stage = 1
				for _, c := range g.Neighbors(fr.v) {
					if c != fr.parent {
						stack = append(stack, frame{c, fr.v, 0})
					}
				}
				continue
			}
			v, parent := fr.v, fr.parent
			stack = stack[:len(stack)-1]
			if parent != ^uint32(0) {
				incl[parent] += excl[v]
				if incl[v] > excl[v] {
					excl[parent] += incl[v]
				} else {
					excl[parent] += excl[v]
				}
			} else {
				if incl[v] > excl[v] {
					total += incl[v]
				} else {
					total += excl[v]
				}
			}
		}
	}
	return total
}

// randomTree returns a uniformly labeled random tree on n vertices via a
// random attachment process.
func randomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(uint32(v), uint32(rng.Intn(v)))
	}
	return b.Build()
}

func TestTreeOracleAgreesWithExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomTree(20, seed)
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		if dp := treeMIS(g); dp != exact {
			t.Fatalf("seed %d: tree DP %d, exact %d", seed, dp, exact)
		}
	}
	// Known cases: a path of n vertices has independence number ⌈n/2⌉.
	path := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(uint32(i), uint32(i+1))
		}
		return b.Build()
	}
	for _, n := range []int{1, 2, 7, 100} {
		if got := treeMIS(path(n)); got != (n+1)/2 {
			t.Fatalf("path %d: DP = %d, want %d", n, got, (n+1)/2)
		}
	}
}

func TestSwapsNearOptimalOnTrees(t *testing.T) {
	// Trees at a scale the branch-and-bound oracle cannot reach: the DP
	// gives exact optima, Algorithm 5's bound must dominate them, and the
	// swap pipeline must land close to them.
	for seed := int64(0); seed < 5; seed++ {
		n := 2000
		g := randomTree(n, seed)
		f := writeFile(t, g, true)
		exact := treeMIS(g)

		bound, err := UpperBoundCtx(context.Background(), f, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(exact) > bound {
			t.Fatalf("seed %d: exact %d exceeds bound %d", seed, exact, bound)
		}

		greedy, err := GreedyCtx(context.Background(), f, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		two, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		mustIndependent(t, f, two.InSet)
		mustMaximal(t, f, two.InSet)
		if two.Size > exact {
			t.Fatalf("seed %d: result %d exceeds the optimum %d", seed, two.Size, exact)
		}
		if ratio := float64(two.Size) / float64(exact); ratio < 0.95 {
			t.Fatalf("seed %d: two-k-swap at %.3f of the tree optimum (%d/%d)",
				seed, ratio, two.Size, exact)
		}
	}
}

func TestVertexCover(t *testing.T) {
	g := randomTree(200, 1)
	f := writeFile(t, g, true)
	greedy, err := GreedyCtx(context.Background(), f, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	cover := VertexCover(greedy.InSet)
	if err := VerifyVertexCoverCtx(context.Background(), f, cover, Hooks{}); err != nil {
		t.Fatal(err)
	}
	// A broken cover must be rejected.
	for v := range cover {
		if cover[v] {
			cover[v] = false
			break
		}
	}
	// Removing one cover vertex leaves some edge uncovered unless the
	// vertex was isolated; trees have no isolated vertices.
	if err := VerifyVertexCoverCtx(context.Background(), f, cover, Hooks{}); err == nil {
		t.Fatal("expected uncovered edge after removing a cover vertex")
	}
}

func TestWeiBound(t *testing.T) {
	// Star: 1/(k+1) + k/2. Exact independence number is k, and Wei's bound
	// must be below it but above 1.
	g := writeFile(t, graph.FromEdges(5, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {0, 4}}), true)
	w, err := WeiBoundCtx(context.Background(), g, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/5.0 + 4.0/2.0
	if w != want {
		t.Fatalf("Wei bound = %f, want %f", w, want)
	}
	// On every graph, greedy (maximal) must reach at least Wei's bound.
	for seed := int64(0); seed < 5; seed++ {
		tr := randomTree(500, seed)
		f := writeFile(t, tr, true)
		wb, err := WeiBoundCtx(context.Background(), f, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := GreedyCtx(context.Background(), f, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(r.Size) < wb-1e-9 {
			t.Fatalf("seed %d: greedy %d below Wei bound %f", seed, r.Size, wb)
		}
	}
}
