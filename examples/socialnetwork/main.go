// Social network analysis: the paper's headline workload. Generate a
// power-law social graph (the P(α, β) model of Section 2.2), then compare
// all six algorithms of the evaluation on it — sizes, memory and scans —
// the way Table 5/6 do for the real Facebook and Twitter graphs.
//
// An independent set in a social graph is a maximum set of mutually
// unconnected users, e.g. for interference-free survey sampling.
//
//	go run ./examples/socialnetwork [-n 200000] [-beta 2.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	mis "repro"
)

func main() {
	n := flag.Int("n", 200000, "number of users")
	beta := flag.Float64("beta", 2.1, "power-law exponent")
	flag.Parse()
	if err := run(os.Stdout, *n, *beta); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, n int, beta float64) error {
	dir, err := os.MkdirTemp("", "mis-social")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "social.adj")

	fmt.Fprintf(out, "generating P(α, β=%.1f) social graph with ≈%d users...\n", beta, n)
	if err := mis.GeneratePowerLawFile(path, n, beta, 42, true); err != nil {
		return err
	}
	f, err := mis.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.SizeBytes()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: %d users, %d friendships, avg degree %.2f, %d bytes on disk\n\n",
		f.NumVertices(), f.NumEdges(), f.AvgDegree(), size)

	// The comparison file is degree-sorted, so running BASELINE over it
	// would silently reproduce GREEDY; BaselineOnSorted opts in knowingly,
	// to keep the Table 5-style comparison complete on one file.
	solver := mis.NewSolver(f, mis.BaselineOnSorted())
	ctx := context.Background()
	bound, err := solver.UpperBound(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%-18s %10s %8s %10s %8s %8s\n", "algorithm", "|IS|", "ratio", "memory", "p.scans", "time")
	for _, alg := range mis.Algorithms() {
		f.ResetStats()
		start := time.Now()
		r, err := solver.Solve(ctx, alg)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if err := solver.VerifyIndependent(ctx, r); err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		fmt.Fprintf(out, "%-18s %10d %8.4f %10d %8d %8s\n",
			alg, r.Size, r.Ratio(bound), r.MemoryBytes, r.IO.PhysicalScans,
			elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(out, "\nupper bound on the independence number: %d\n", bound)
	return nil
}
