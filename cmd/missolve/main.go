// Command missolve runs one of the paper's algorithms on an adjacency file
// and reports the independent-set size, rounds, memory and I/O cost.
//
// Usage:
//
//	missolve -alg two-k-swap graph.adj
//	missolve -alg greedy -verify -bound graph.adj
//	missolve -alg randomized -seed 7 graph.adj
//	missolve -timeout 30s -alg two-k-swap huge.adj
//	missolve -color graph.adj
//	missolve -alg greedy sharded/          # sharded graph (MANIFEST.shards)
//
// The graph argument may be a single adjacency file, a shard manifest file,
// or a directory containing MANIFEST.shards (see missplit); sharded graphs
// solve identically, scanning shards in parallel when -workers > 1.
//
// Algorithms: greedy, baseline, one-k-swap, two-k-swap, dynamic-update,
// external-maximal, randomized. Swap algorithms are seeded with a Greedy
// pass. -bound additionally computes the Algorithm 5 upper bound and the
// approximation ratio; -color runs the iterated-IS graph coloring instead.
//
// Long runs are interruptible: -timeout bounds the whole run, and a SIGINT
// (Ctrl-C) or SIGTERM cancels it gracefully. Either way missolve stops
// within one decoded batch of the current scan, reports where the scan
// stood, prints the partial I/O statistics accumulated so far, and exits
// with status 1 — no result is fabricated.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	mis "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("missolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		alg       = fs.String("alg", "two-k-swap", "algorithm to run")
		verify    = fs.Bool("verify", false, "verify independence and maximality of the result")
		bound     = fs.Bool("bound", false, "also compute the Algorithm 5 upper bound and ratio")
		color     = fs.Bool("color", false, "run iterated-IS graph coloring instead of a single IS")
		maxRounds = fs.Int("max-rounds", 0, "cap swap rounds (0 = until convergence)")
		earlyStop = fs.Int("early-stop", 0, "stop swaps after this many rounds (0 = off)")
		seed      = fs.Int64("seed", 1, "seed for the randomized algorithm")
		workers   = fs.Int("workers", 1, "goroutines decoding file partitions concurrently during scans (0 = GOMAXPROCS); results are identical for any value")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit); partial stats are reported")
		progress  = fs.Bool("progress", false, "print each swap round as it completes")
		mmap      = fs.Bool("mmap", false, "scan through a memory mapping of the file instead of the prefetching block pipeline (results identical; falls back silently where mmap is unavailable)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: missolve [flags] <graph.adj>")
		fs.PrintDefaults()
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	oopts := []mis.OpenOption{mis.WithWorkers(*workers)}
	if *mmap {
		oopts = append(oopts, mis.WithMmap())
	}
	f, err := mis.OpenGraph(fs.Arg(0), oopts...)
	if err != nil {
		fmt.Fprintf(stderr, "missolve: %v\n", err)
		return 1
	}
	defer f.Close()
	if *mmap && !f.MmapActive() {
		fmt.Fprintln(stderr, "missolve: mmap unavailable here; using the default scan engine")
	}

	// fail reports an error; an interrupted run (canceled, deadline) also
	// prints the partial I/O statistics the run accumulated before stopping.
	fail := func(err error) int {
		fmt.Fprintf(stderr, "missolve: %v\n", err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			st := f.Stats()
			fmt.Fprintf(stdout, "interrupted: partial stats: scans=%d (physical %d, carried %d) records=%d read=%s\n",
				st.Scans, st.PhysicalScans, st.CarriedScans, st.RecordsRead, formatBytes(st.BytesRead))
		}
		return 1
	}

	fmt.Fprintf(stdout, "graph: %d vertices, %d edges, avg degree %.2f, degree-sorted=%v\n",
		f.NumVertices(), f.NumEdges(), f.AvgDegree(), f.DegreeSorted())

	sopts := []mis.SolverOption{mis.MaxRounds(*maxRounds), mis.EarlyStop(*earlyStop), mis.Workers(*workers)}
	if *progress {
		sopts = append(sopts, mis.OnRound(func(ev mis.RoundEvent) {
			fmt.Fprintf(stdout, "round %d: gain %+d, |IS| = %d, scans=%d (physical %d, carried %d)\n",
				ev.Round, ev.Gain, ev.Size, ev.IO.Scans, ev.IO.PhysicalScans, ev.IO.CarriedScans)
		}))
	}
	solver := mis.NewSolver(f, sopts...)

	if *color {
		start := time.Now()
		col, err := solver.ColorByIS(ctx, 0)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "coloring: %d classes in %v; first classes: %v\n",
			col.NumColors, time.Since(start).Round(time.Millisecond), head(col.ClassSizes, 8))
		if *verify {
			if err := solver.VerifyColoring(ctx, col); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, "verified: proper coloring")
		}
		return 0
	}

	start := time.Now()
	var r *mis.Result
	if *alg == "randomized" {
		r, err = solver.RandomizedMaximal(ctx, *seed)
	} else {
		r, err = solver.Solve(ctx, mis.Algorithm(*alg))
	}
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "%s: |IS| = %d  time = %v  memory = %s  rounds = %d  scans = %d (physical %d, carried %d)\n",
		*alg, r.Size, elapsed.Round(time.Millisecond), formatBytes(r.MemoryBytes), r.Rounds,
		r.IO.Scans, r.IO.PhysicalScans, r.IO.CarriedScans)
	if len(r.RoundGains) > 0 {
		fmt.Fprintf(stdout, "round gains: %v\n", r.RoundGains)
	}
	if r.SCHighWater > 0 {
		fmt.Fprintf(stdout, "|SC| high water: %d (%.4f of |V|)\n",
			r.SCHighWater, float64(r.SCHighWater)/float64(f.NumVertices()))
	}

	if *verify {
		// Both checks fuse into one physical scan (see mis.Solver.Verify).
		if err := solver.Verify(ctx, r); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "verified: independent and maximal")
	}
	if *bound {
		b, err := solver.UpperBound(ctx)
		if err != nil {
			return fail(err)
		}
		wb, err := solver.WeiBound(ctx)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "upper bound (Algorithm 5): %d   ratio: %.4f   Wei lower bound: %.0f\n",
			b, r.Ratio(b), wb)
	}
	return 0
}

func head(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

func formatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(n)/float64(div), "KMGTPE"[exp])
}
