// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the library and an in-process misd, checks every
// answer, and prints a report of every metric with its unit and sample
// count, followed by one JSON result line:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the result format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// The metrics of the JSON result line: every workload measures each of
// them, so every run reports all of them (BENCHMARK.json lists the same
// names). op_p50_ms and ops_per_s are the median latency and the rate of
// the workload's primary operation: a solve job (solve-batch), a daemon
// request (serve-read); serve-write takes the journal update's median
// latency and the reader's request rate (servewrite.go says why). The
// report above the line has the workload-specific rest.
var (
	endToEndJSON = []string{"setup_s", "op_p50_ms", "ops_per_s", "is_size", "mem_mb"}
	perLayerJSON = []string{
		"gio.scan_s", "exec.scan_s", "gio.blocks_per_scan", "gio.blocks_model",
		"extsort.sort_s", "server.digest_s",
		"pipeline.physical_scans.greedy", "pipeline.physical_scans.one_k_swap", "pipeline.physical_scans.two_k_swap",
		"pipeline.logical_scans.greedy", "pipeline.logical_scans.one_k_swap", "pipeline.logical_scans.two_k_swap",
		"pipeline.carried_scans.one_k_swap", "pipeline.carried_scans.two_k_swap",
		"core.rounds.one_k_swap", "core.rounds.two_k_swap",
		"core.memory_bytes.greedy", "core.memory_bytes.one_k_swap", "core.memory_bytes.two_k_swap",
		"trace.overhead_ms", "trace.spans",
	}
)

var workloads = map[string]func(context.Context, config, *report) error{
	"solve-batch": runSolveBatch,
	"serve-read":  runServeRead,
	"serve-write": runServeWrite,
}

var workloadOrder = []string{"solve-batch", "serve-read", "serve-write"}

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string  // this run's input directory
	tracer   *tracer // nil unless trace
}

func (c config) sock() string { return filepath.Join(c.work, "misd.sock") }

// scale multiplies every graph size; the tests shrink it to run the
// workloads in seconds.
var scale = 1.0

// workdir holds generated inputs and span dumps, relative to the checkout
// root the benchmark runs from; the tests move it to a temporary directory.
var workdir = ".bench_work"

// n scales a full-size vertex count.
func (c config) n(full int) int { return max(int(float64(full)*scale), 500) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the flags, runs the workloads and writes their reports and
// result lines to stdout; it returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "solve-batch, serve-read, serve-write, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, name := range names {
		if workloads[name] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", name, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1}
		if c := runOne(ctx, cfg, stdout); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload in a fresh input directory, prints its report
// and result line, and removes the inputs.
func runOne(ctx context.Context, cfg config, stdout io.Writer) int {
	cfg.work = filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer removeAll(cfg.work)
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	r := &report{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace}
	r.record("host: num_cpu=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.record("run: seconds=%g scale=%g", cfg.seconds, scale)
	start := time.Now()
	if err := workloads[cfg.workload](ctx, cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		r.layer("trace.spans", float64(cfg.tracer.count()), "count", 0, "")
		names, self, n := cfg.tracer.selfTimes()
		for _, name := range names {
			r.layer("trace.self_s."+name, self[name], "s", n[name], "summed self time from spans")
		}
		path := filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		r.record("spans: %s", path)
	}
	r.record("wall: %.1fs", time.Since(start).Seconds())
	fmt.Fprint(stdout, r.text())
	line, err := resultLine(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(r.Problems) > 0 {
		return 1
	}
	return 0
}

// resultLine renders the JSON result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(r *report) (string, error) {
	names, list := endToEndJSON, r.EndToEnd
	if r.Trace {
		names, list = perLayerJSON, r.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		m, ok := r.find(list, name)
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Problems) == 0, r.Attempted, r.Failed, metrics})
	return string(b), err
}
