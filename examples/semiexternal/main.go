// Semi-external pipeline: the full disk workflow the paper describes for
// graphs whose edges do not fit in memory.
//
//  1. A raw (vertex-ID-ordered) adjacency file arrives on disk.
//  2. The external merge sort rewrites it in ascending-degree order using a
//     deliberately tiny memory budget — the Section 4.1 preprocessing.
//  3. Greedy scans the sorted file once; two-k-swap improves it with a few
//     more scans. Only O(|V|) bytes ever live in memory.
//
// The run prints the I/O ledger (scans, bytes, blocks) at each stage.
// Scans decode through the parallel partitioned executor when -workers > 1;
// the results are bit-identical either way.
//
//	go run ./examples/semiexternal [-n 300000] [-workers 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	mis "repro"
)

func main() {
	n := flag.Int("n", 300000, "vertices in the synthetic input")
	workers := flag.Int("workers", 1, "scan parallelism (0 = GOMAXPROCS)")
	flag.Parse()
	if err := run(os.Stdout, *n, *workers); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, n, workers int) error {
	dir, err := os.MkdirTemp("", "mis-semiext")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	raw := filepath.Join(dir, "raw.adj")
	sorted := filepath.Join(dir, "sorted.adj")

	// Stage 0: a raw unsorted graph file "arrives".
	if err := mis.GeneratePowerLawFile(raw, n, 2.0, 7, false /* unsorted */); err != nil {
		return err
	}
	info, err := os.Stat(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "raw file: %s (%d bytes)\n", raw, info.Size())

	// Stage 1: external degree sort with a 1 MiB budget — far smaller than
	// the file, so runs spill and merge exactly as they would at scale.
	const budget = 1 << 20
	fmt.Fprintf(out, "sorting by degree with a %d-byte memory budget...\n", budget)
	if err := mis.SortFileByDegree(raw, sorted, budget); err != nil {
		return err
	}

	f, err := mis.Open(sorted, mis.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(out, "sorted file: %d vertices, %d edges, degree-sorted=%v, scan workers=%d\n\n",
		f.NumVertices(), f.NumEdges(), f.DegreeSorted(), f.Workers())

	// Stage 2: one-scan greedy.
	ctx := context.Background()
	solver := mis.NewSolver(f)
	greedy, err := solver.Greedy(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "greedy:     |IS| = %-8d memory = %-8d physical scans = %d\n",
		greedy.Size, greedy.MemoryBytes, greedy.IO.PhysicalScans)

	// Stage 3: swap refinement, still sequential scans only.
	two, err := solver.TwoKSwap(ctx, greedy)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "two-k-swap: |IS| = %-8d memory = %-8d physical scans = %d rounds = %d\n",
		two.Size, two.MemoryBytes, two.IO.PhysicalScans, two.Rounds)

	st := f.Stats()
	fmt.Fprintf(out, "\nI/O ledger: %d physical scans (%d logical passes), %d records, %d bytes read, %d buffered blocks\n",
		st.PhysicalScans, st.Scans, st.RecordsRead, st.BytesRead, st.BlocksRead)

	// Independence and maximality fuse into one physical scan (Solver.Verify).
	if err := solver.Verify(ctx, two); err != nil {
		return err
	}
	fmt.Fprintln(out, "verified: independent and maximal")
	return nil
}
