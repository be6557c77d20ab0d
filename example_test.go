package mis_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	mis "repro"
)

// figure1 writes the paper's Figure 1 graph — a hub v1 (ID 0) adjacent to
// v3, v4, v5 (IDs 2, 3, 4) plus an isolated v2 (ID 1) — and returns its
// path. The maximal set {v1, v2} has size 2; the maximum {v2..v5} size 4.
func figure1(dir string, sorted bool) string {
	path := filepath.Join(dir, "figure1.adj")
	b := mis.NewBuilder(5)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	if err := b.WriteFile(path, sorted); err != nil {
		log.Fatal(err)
	}
	return path
}

func Example() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	f, err := mis.Open(figure1(dir, true))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	ctx := context.Background()
	solver := mis.NewSolver(f)
	greedy, _ := solver.Greedy(ctx)
	better, _ := solver.TwoKSwap(ctx, greedy)
	bound, _ := solver.UpperBound(ctx)
	fmt.Printf("greedy=%d two-k=%d bound=%d\n", greedy.Size, better.Size, bound)
	// Output: greedy=4 two-k=4 bound=4
}

func ExampleSolver_Greedy() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	// On a degree-sorted file the small-degree vertices are scanned first
	// and greedy recovers the maximum set of Figure 1.
	f, err := mis.Open(figure1(dir, true))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, _ := mis.NewSolver(f).Greedy(context.Background())
	fmt.Println(r.Size, r.Vertices())
	// Output: 4 [1 2 3 4]
}

func ExampleSolver_Solve() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	// The same scan on an unsorted (vertex-ID-ordered) file is the paper's
	// BASELINE: the hub is scanned first and blocks the leaves.
	f, err := mis.Open(figure1(dir, false))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, _ := mis.NewSolver(f).Solve(context.Background(), mis.AlgBaseline)
	fmt.Println(r.Size, r.Vertices())
	// Output: 2 [0 1]
}

func ExampleSolver_OneKSwap() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	// Starting from the stuck Baseline result {v1, v2}, one-k-swap
	// exchanges the hub for its three leaves: a 1↔3 swap.
	f, err := mis.Open(figure1(dir, false))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	solver := mis.NewSolver(f)
	baseline, _ := solver.Solve(ctx, mis.AlgBaseline)
	improved, _ := solver.OneKSwap(ctx, baseline)
	fmt.Printf("%d -> %d\n", baseline.Size, improved.Size)
	// Output: 2 -> 4
}

func ExampleNewSolver() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	f, err := mis.Open(figure1(dir, false))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// The Solver is the context-first entry point: functional options carry
	// the swap tuning and observers, and every call takes a context that
	// cancels mid-scan. Here the per-round event stream watches one-k-swap
	// rescue the stuck BASELINE result of Figure 1.
	solver := mis.NewSolver(f,
		mis.MaxRounds(9),
		mis.OnRound(func(ev mis.RoundEvent) {
			fmt.Printf("round %d: %+d -> %d\n", ev.Round, ev.Gain, ev.Size)
		}),
	)
	ctx := context.Background()
	seed, _ := solver.Solve(ctx, mis.AlgBaseline)
	improved, _ := solver.OneKSwap(ctx, seed)
	fmt.Printf("%d -> %d\n", seed.Size, improved.Size)
	// Output:
	// round 1: +2 -> 4
	// round 2: +0 -> 4
	// 2 -> 4
}

func ExampleSolver_Solve_deadline() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	f, err := mis.Open(figure1(dir, true))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// A deadline bounds the whole run; an expired context stops the scan
	// within one batch and the error unwraps to context.DeadlineExceeded.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = mis.NewSolver(f).Solve(ctx, mis.AlgTwoKSwap)
	fmt.Println(err == nil, context.Cause(ctx))
	// Output: false context deadline exceeded
}

func ExampleSolver_ColorByIS() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	// A 5-cycle needs three colors; iterated IS extraction finds them.
	path := filepath.Join(dir, "c5.adj")
	b := mis.NewBuilder(5)
	for i := uint32(0); i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	if err := b.WriteFile(path, true); err != nil {
		log.Fatal(err)
	}
	f, err := mis.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	col, _ := mis.NewSolver(f).ColorByIS(context.Background(), 0)
	fmt.Println(col.NumColors, col.ClassSizes)
	// Output: 3 [2 2 1]
}

func ExampleResult_VertexCover() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	f, err := mis.Open(figure1(dir, true))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	solver := mis.NewSolver(f)
	r, _ := solver.Greedy(ctx)
	cover := r.VertexCover()
	// The complement of the maximum set {v2..v5} is the hub alone.
	var members []int
	for v, in := range cover {
		if in {
			members = append(members, v)
		}
	}
	fmt.Println(members, solver.VerifyVertexCover(ctx, cover) == nil)
	// Output: [0] true
}

func ExampleNewMaintainer() {
	dir, _ := os.MkdirTemp("", "mis-example")
	defer os.RemoveAll(dir)

	f, err := mis.Open(figure1(dir, true))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	seed, _ := mis.NewSolver(f).Greedy(ctx) // {1, 2, 3, 4}

	m, err := mis.NewMaintainer(f, seed)
	if err != nil {
		log.Fatal(err)
	}
	// A new edge between two members evicts one of them immediately...
	_ = m.InsertEdge(2, 3)
	fmt.Println("after insert:", m.Size(), "evictions:", m.Evictions())
	// ...and Repair restores maximality lazily with one scan.
	added, _ := m.Repair(ctx)
	fmt.Println("repair re-added:", added, "size:", m.Size())
	// Output:
	// after insert: 3 evictions: 1
	// repair re-added: 0 size: 3
}
