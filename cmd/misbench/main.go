// Command misbench regenerates the paper's experimental tables and figures
// on synthetic stand-in workloads, plus this reproduction's own ablations.
//
// Usage:
//
//	misbench -run all                       # every table, figure and ablation
//	misbench -run table5,table6            # a subset
//	misbench -run fig8 -sweep-n 200000     # bigger β-sweep graphs
//	misbench -scale 500 -workdir ./graphs  # bigger dataset stand-ins, kept on disk
//
// Experiment IDs: table2 fig6 table4 table5 table6 table7 table8 table9
// fig5 fig8 fig9 fig10 ablation-io ablation-earlystop ablation-sort
// ablation-pq scanbench parscanbench.
//
// scanbench compares the scan engines — block-pipelined, memory-mapped
// (with and without zero-copy aliasing) and the bytewise reference decoder —
// and writes a machine-readable BENCH_scan.json (-scan-out picks the path)
// so scan throughput is tracked across PRs. By default trials run against a
// warm page cache; -cold evicts the file's pages and re-opens the file
// before every trial to measure the first-read profile instead (Linux only;
// elsewhere the run degrades to warm and the report says so).
//
// parscanbench sweeps the parallel partitioned executor over worker counts
// {1, 2, 4, 7} on the same workload and writes BENCH_parscan.json
// (-parscan-out picks the path): workers=1 is the single-stream baseline,
// and the report's speedup_at_4_workers is the headline parallel number
// (only meaningful on hosts with ≥4 CPUs; num_cpu is recorded alongside).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale      = fs.Int("scale", 1000, "divide the paper's dataset sizes by this factor")
		sweepN     = fs.Int("sweep-n", 50000, "vertices for the β-sweep graphs (paper: 10M)")
		trials     = fs.Int("trials", 3, "random graphs averaged per β (paper: 10)")
		seed       = fs.Int64("seed", 1, "random seed")
		workdir    = fs.String("workdir", "", "directory for generated graphs (default: temp)")
		scanOut    = fs.String("scan-out", "", "path for the scanbench experiment's BENCH_scan.json (default: workdir)")
		parScanOut = fs.String("parscan-out", "", "path for the parscanbench experiment's BENCH_parscan.json (default: workdir)")
		force      = fs.Bool("force", false, "let parscanbench overwrite an existing BENCH_parscan.json even on a <4-CPU host")
		cold       = fs.Bool("cold", false, "scanbench: evict the page cache and re-open the file before every trial")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := &bench.Config{
		WorkDir:         *workdir,
		DatasetScale:    *scale,
		SweepVertices:   *sweepN,
		SweepTrials:     *trials,
		Seed:            *seed,
		Out:             stdout,
		ScanBenchOut:    *scanOut,
		ParScanBenchOut: *parScanOut,
		Force:           *force,
		ScanBenchCold:   *cold,
	}

	experiments := bench.Experiments()
	var ids []string
	if *runIDs == "all" {
		ids = bench.Order()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments[id]; !ok {
				fmt.Fprintf(stderr, "misbench: unknown experiment %q (known: %s)\n",
					id, strings.Join(bench.Order(), " "))
				return 2
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		fmt.Fprintf(stdout, "━━━ %s ━━━\n", id)
		start := time.Now()
		if err := experiments[id](cfg); err != nil {
			fmt.Fprintf(stderr, "misbench: %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
