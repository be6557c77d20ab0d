// Streaming updates: maintain an independent set while the graph changes —
// the incremental setting the paper's conclusion lists as future work.
//
// A power-law "friendship" graph receives a stream of edge insertions and
// deletions. The maintainer keeps the set independent after every single
// update (insertions inside the set evict an endpoint immediately) and
// restores maximality with a periodic one-scan Repair. At the end the
// effective graph is materialized and re-optimized with two-k-swap to show
// how close lazy maintenance stayed to a fresh solve.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	mis "repro"
)

func main() {
	if err := run(os.Stdout, 100000, 50000, 10000); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, users, updates, repairEvery int) error {
	dir, err := os.MkdirTemp("", "mis-streaming")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "base.adj")
	if err := mis.GeneratePowerLawFile(base, users, 2.1, 11, true); err != nil {
		return err
	}

	f, err := mis.Open(base)
	if err != nil {
		return err
	}
	defer f.Close()
	ctx := context.Background()
	seed, err := mis.NewSolver(f).Greedy(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base graph: %d users, %d edges; initial greedy set: %d\n",
		f.NumVertices(), f.NumEdges(), seed.Size)

	m, err := mis.NewMaintainer(f, seed)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(99))
	n := uint32(f.NumVertices())
	for i := 1; i <= updates; i++ {
		u, v := rng.Uint32()%n, rng.Uint32()%n
		if u == v {
			continue
		}
		if rng.Intn(3) == 0 {
			err = m.DeleteEdge(u, v)
		} else {
			err = m.InsertEdge(u, v)
		}
		if err != nil {
			return err
		}
		if i%repairEvery == 0 {
			added, err := m.Repair(ctx)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "after %6d updates: |IS| = %d (evictions so far %d, repair re-added %d, delta %d edges)\n",
				i, m.Size(), m.Evictions(), added, m.DeltaEdges())
		}
	}
	if err := m.Verify(ctx); err != nil {
		return err
	}
	fmt.Fprintln(out, "invariant verified: the maintained set is independent")

	// How far did lazy maintenance drift from a fresh solve?
	mat := filepath.Join(dir, "materialized.adj")
	if err := m.Materialize(ctx, mat); err != nil {
		return err
	}
	mf, err := mis.Open(mat)
	if err != nil {
		return err
	}
	defer mf.Close()
	solver := mis.NewSolver(mf)
	fresh, err := solver.Greedy(ctx)
	if err != nil {
		return err
	}
	improved, err := solver.TwoKSwap(ctx, fresh)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "maintained: %d   fresh greedy: %d   fresh two-k-swap: %d (%.2f%% drift)\n",
		m.Size(), fresh.Size, improved.Size,
		100*float64(improved.Size-m.Size())/float64(improved.Size))
	return nil
}
