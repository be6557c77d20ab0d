// Command misstat prints the characteristics of adjacency files in the
// style of the paper's Table 4 (|V|, |E|, average degree, disk size),
// plus a degree histogram summary.
//
// Usage:
//
//	misstat graph1.adj graph2.adj ...
//	misstat -workers 4 big.adj     # parallel partitioned histogram scan
//	misstat -rounds graph.adj      # per-round swap scan breakdown
//	misstat -timeout 10s big.adj   # bound the scan time
//	misstat sharded/               # sharded graph (dir with MANIFEST.shards)
//
// Arguments may be single adjacency files, shard manifest files, or
// directories containing a MANIFEST.shards; sharded graphs are scanned
// through the partition-merge engine at the same -workers setting.
//
// Scans are interruptible: -timeout bounds the run and SIGINT/SIGTERM
// cancel it gracefully within one decoded batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.Int("workers", 1, "goroutines decoding file partitions concurrently (0 = GOMAXPROCS)")
	rounds := fs.Bool("rounds", false, "run the greedy-seeded swap algorithms and print a per-round scan breakdown")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: misstat [-workers n] [-rounds] [-timeout d] <graph.adj> ...")
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fmt.Fprintf(stdout, "%-28s %12s %14s %10s %12s %8s\n",
		"Data Set", "|V|", "|E|", "Avg. Deg", "Disk Size", "Sorted")
	for _, path := range fs.Args() {
		if err := report(ctx, stdout, path, *workers, *rounds); err != nil {
			fmt.Fprintf(stderr, "misstat: %s: %v\n", path, err)
			return 1
		}
	}
	return 0
}

func report(ctx context.Context, w io.Writer, path string, workers int, rounds bool) error {
	var stats gio.Counters

	// A shard manifest (or a directory holding one) opens through the shard
	// layer, a plain file directly; either way the partition-merge engine is
	// the scan source.
	var (
		src          core.Source
		n            int
		edges        uint64
		size         int64
		degreeSorted bool
	)
	if shard.IsManifestPath(path) {
		set, err := shard.Open(path, shard.Options{})
		if err != nil {
			return err
		}
		defer set.Close()
		src = set.Source(&stats, workers)
		n, edges, size = set.NumVertices(), set.NumEdges(), set.TotalBytes()
		degreeSorted = set.DegreeSorted()
	} else {
		f, err := gio.Open(path, 0, &stats)
		if err != nil {
			return err
		}
		defer f.Close()
		sz, err := f.SizeBytes()
		if err != nil {
			return err
		}
		src = exec.New(f, workers)
		n, edges, size = f.NumVertices(), f.NumEdges(), sz
		degreeSorted = f.Header().DegreeSorted()
	}
	avg := 0.0
	if n > 0 {
		avg = 2 * float64(edges) / float64(n)
	}
	fmt.Fprintf(w, "%-28s %12d %14d %10.2f %12s %8v\n",
		path, n, edges, avg, gio.FormatBytes(uint64(size)), degreeSorted)

	// Degree histogram summary: the five most populous degrees, collected
	// by one logical pass on the scan scheduler over the parallel
	// partitioned executor (workers == 1 is the plain sequential engine).
	// On a cold file this single pass is also the partition-planning scan,
	// so -workers never pays a dedicated planning pass for this one-shot
	// workload.
	hist := map[int]uint64{}
	sched := pipeline.New(src, pipeline.Options{Ctx: ctx})
	sched.Add(pipeline.Pass{
		Name:     "degree-histogram",
		ReadOnly: true,
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				hist[len(batch[i].Neighbors)]++
			}
			return nil
		},
	})
	if err := sched.Run(); err != nil {
		return err
	}
	type dc struct {
		deg   int
		count uint64
	}
	var dcs []dc
	for d, c := range hist {
		dcs = append(dcs, dc{d, c})
	}
	sort.Slice(dcs, func(i, j int) bool {
		if dcs[i].count != dcs[j].count {
			return dcs[i].count > dcs[j].count
		}
		return dcs[i].deg < dcs[j].deg
	})
	if len(dcs) > 5 {
		dcs = dcs[:5]
	}
	fmt.Fprintf(w, "  top degrees:")
	for _, x := range dcs {
		fmt.Fprintf(w, "  deg %d ×%d", x.deg, x.count)
	}
	fmt.Fprintln(w)
	// I/O accounting for the report: identical for every -workers value (the
	// executor reproduces the sequential engine's numbers by construction).
	snap := stats.Snapshot()
	fmt.Fprintf(w, "  io: scans=%d physical=%d records=%d\n",
		snap.Scans, snap.PhysicalScans, snap.RecordsRead)
	if rounds {
		return reportRounds(ctx, w, src)
	}
	return nil
}

// reportRounds runs the greedy-seeded swap algorithms and prints each
// round's scan bill, making the cross-round fusion observable from the CLI:
// a steady-state round shows exactly one physical scan, its pre-swap (and,
// for two-k-swap, swap-validation) work appearing as carried logical scans
// that rode the previous round's pass.
func reportRounds(ctx context.Context, w io.Writer, src core.Source) error {
	seed, err := core.GreedyCtx(ctx, src, core.Hooks{})
	if err != nil {
		return err
	}
	type alg struct {
		name string
		run  func() (*core.Result, error)
	}
	for _, a := range []alg{
		{"one-k-swap", func() (*core.Result, error) {
			return core.OneKSwapCtx(ctx, src, seed.InSet, core.SwapOptions{}, core.Hooks{})
		}},
		{"two-k-swap", func() (*core.Result, error) {
			return core.TwoKSwapCtx(ctx, src, seed.InSet, core.SwapOptions{}, core.Hooks{})
		}},
	} {
		r, err := a.run()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %s: |IS| %d -> %d in %d rounds, scans=%d physical=%d carried=%d\n",
			a.name, seed.Size, r.Size, r.Rounds, r.IO.Scans, r.IO.PhysicalScans, r.IO.CarriedScans)
		for i, io := range r.RoundIO {
			fmt.Fprintf(w, "    round %d: gain %+d  scans=%d physical=%d carried=%d\n",
				i+1, r.RoundGains[i], io.Scans, io.PhysicalScans, io.CarriedScans)
		}
	}
	return nil
}
