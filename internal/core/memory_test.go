package core

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/graph"
	"repro/internal/plrg"
)

// liveHeap collects twice and returns the live heap: the second collection
// empties sync.Pool victim caches, whose contents would otherwise count or
// not depending on when the last collection ran.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// twoISNGraph builds a graph whose non-IS vertices mostly have exactly two
// IS neighbours: m low-degree "IS" vertices w, and 2m vertices u that each
// touch two nearby w and three random other u. Greedy's ascending-degree
// order takes the w first, so nearly every u becomes an A vertex with a
// two-vertex ISN, and two-k-swap's candidate index receives an entry for
// almost every vertex of the graph.
func twoISNGraph(m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 3 * m
	b := graph.NewBuilder(n)
	for u := m; u < n; u++ {
		i := rng.Intn(m)
		b.AddEdge(uint32(u), uint32(i))
		b.AddEdge(uint32(u), uint32((i+1+rng.Intn(3))%m))
		for k := 0; k < 3; k++ {
			b.AddEdge(uint32(u), uint32(m+rng.Intn(2*m)))
		}
	}
	return b.Build()
}

// TestSwapMemoryCountsLiveHeap holds Result.MemoryBytes to the heap the
// swap algorithms really keep. It samples the exact live heap at every
// round end, where a round's structures are all still reachable, and
// requires the peak growth over the call to stay within 1.2× the reported
// footprint, on power-law graphs at two sizes and on three adversarial
// shapes: a star, a dense uniform graph, and a graph that fills two-k's
// candidate index. On the 150k-vertex power-law graph (average degree
// about 5) two-k's footprint must also stay below the file it scans: there
// it is semi-external.
func TestSwapMemoryCountsLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 150k-vertex graph")
	}
	const factor = 1.2
	cases := []struct {
		name      string
		g         func() *graph.Graph
		belowFile bool // two-k's MemoryBytes must be below the file's size
	}{
		{"plrg20k", func() *graph.Graph { return plrg.PowerLawN(20000, 2.0, 10) }, false},
		{"plrg150k", func() *graph.Graph { return plrg.PowerLawN(150000, 2.0, 10) }, true},
		{"star", func() *graph.Graph { return plrg.Star(50000) }, false},
		{"dense-er", func() *graph.Graph { return plrg.ErdosRenyi(20000, 500000, 1) }, false},
		{"two-isn", func() *graph.Graph { return twoISNGraph(20000, 1) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := writeSorted(t, tc.g())
			seed, err := GreedyCtx(context.Background(), f, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []struct {
				name string
				run  func(context.Context, Source, []bool, SwapOptions, Hooks) (*Result, error)
			}{{"one-k-swap", OneKSwapCtx}, {"two-k-swap", TwoKSwapCtx}} {
				base := liveHeap()
				peak := base
				sample := func(RoundEvent) { peak = max(peak, liveHeap()) }
				res, err := alg.run(context.Background(), f, seed.InSet, SwapOptions{}, Hooks{OnRound: sample})
				if err != nil {
					t.Fatal(err)
				}
				growth := peak - base
				n := f.NumVertices()
				t.Logf("%s: %d vertices, %d rounds: peak live growth %d B (%.1f B/vertex), MemoryBytes %d (%.1f B/vertex), ratio %.2f",
					alg.name, n, res.Rounds, growth, float64(growth)/float64(n),
					res.MemoryBytes, float64(res.MemoryBytes)/float64(n), float64(growth)/float64(res.MemoryBytes))
				if float64(growth) > factor*float64(res.MemoryBytes) {
					t.Errorf("%s: peak live growth %d B exceeds %.1f × MemoryBytes %d", alg.name, growth, factor, res.MemoryBytes)
				}
				if tc.belowFile && alg.name == "two-k-swap" {
					size, err := f.SizeBytes()
					if err != nil {
						t.Fatal(err)
					}
					if res.MemoryBytes >= uint64(size) {
						t.Errorf("%s: MemoryBytes %d (%.1f B/vertex) not below the %d B file (%.1f B/vertex)", alg.name,
							res.MemoryBytes, float64(res.MemoryBytes)/float64(n), size, float64(size)/float64(n))
					}
				}
			}
		})
	}
}
