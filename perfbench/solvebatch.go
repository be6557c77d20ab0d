package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	mis "repro"
	"repro/internal/gio"
)

// solve-batch: one caller, closed loop, calling an in-process mis.Solver.
//
// Why: this is the path of the paper's Tables 5–6 and what a batch user
// waits for. The input is a batch of batchGraphs PLRGs of about 150k
// vertices each with β = 2.0 (about 4.3 average degree, ≈900k vertices and
// ≈23 MB raw in all), generated unsorted from seeds derived from the run's
// seed; set-up pays the degree sort (extsort) and an Open with WithMmap of
// every graph, and the solvers scan with Workers(nproc). The swap rounds
// are mostly core work while Greedy and Verify are mostly one scan, so the
// per-phase times separate core from gio/exec. It is the only workload
// that runs the mmap zero-copy engine and the exec executor; the daemon's
// defaults use neither.
//
// Why a batch and not one large graph: a swap algorithm stops after two
// rounds on some PLRGs and after three on others of the same size and β,
// and the extra round costs about a quarter of a job. On one graph the job
// time therefore jumps with the seed; summed over a batch it moves only
// with the share of three-round graphs. A job takes about 1 s on a 2-vCPU
// VM, so a 30 s run medians about 30 jobs. A phase runs at least
// batchMinJobs jobs, even when a slow host makes it overrun the configured
// seconds.
//
// Each iteration (a "job") runs, on every graph of the batch in turn,
// Greedy, then OneKSwap and TwoKSwap from the Greedy seed, then Verify on
// the two-k set, and checks every set against the benchmark's own copy of
// the graph. The per-layer accounting and probes are those of the batch's
// first graph.

const (
	batchGraphs   = 6
	batchVertices = 150_000 // per graph
	batchBeta     = 2.0
	batchSetups   = 5
	batchMinJobs  = 20
	probePasses   = 5
)

// batchAlgs are the solve phases in job order, named as in the metrics.
var batchAlgs = []string{"greedy", "one_k_swap", "two_k_swap", "verify"}

// batchGraph is one graph of the batch, opened for solving.
type batchGraph struct {
	in     graphInput
	f      *mis.File
	ref    *refGraph
	solver *mis.Solver
	sizes  map[string]int // the first job's set sizes by algorithm
}

// graphRun is one graph's part of a job.
type graphRun struct {
	dur      map[string]time.Duration
	results  map[string]*mis.Result // greedy, one_k_swap, two_k_swap
	verifyIO mis.IOStats
	rounds   map[string]samples // seconds between OnRound callbacks
}

// jobRun is one measured job: every graph of the batch, in order.
type jobRun struct {
	traced bool
	wall   time.Duration // the whole job, span recording included
	graphs []graphRun
}

// phaseTime is the job's time in one phase, summed over the batch.
func (j jobRun) phaseTime(alg string) time.Duration {
	var t time.Duration
	for _, g := range j.graphs {
		t += g.dur[alg]
	}
	return t
}

type batchRun struct {
	graphs []*batchGraph
	r      *report

	// The OnRound hook reads these; they are set before each swap call
	// and the hook runs on the calling goroutine.
	roundAlg    string
	roundLast   time.Time
	roundParent *active
	roundTimes  samples
	tr          *tracer
	mem         *livePeak // set during memJob, sampled at every round and phase end
}

func runSolveBatch(ctx context.Context, cfg config, r *report) error {
	dir := cfg.work
	workers := runtime.GOMAXPROCS(0)
	b := &batchRun{r: r}
	defer func() {
		for _, g := range b.graphs {
			if g.f != nil {
				g.f.Close()
			}
		}
	}()
	var raws []graphInput
	for i := 0; i < batchGraphs; i++ {
		raw, err := generate(dir, fmt.Sprintf("plrg-%d", i), cfg.n(batchVertices), batchBeta, cfg.seed*batchGraphs+int64(i))
		if err != nil {
			return err
		}
		raws = append(raws, raw)
		b.graphs = append(b.graphs, &batchGraph{})
	}

	// Set-up: the degree sort plus Open of every graph, repeated; the last
	// opens are kept.
	var setup, sortS samples
	for rep := 0; rep < batchSetups; rep++ {
		for _, g := range b.graphs {
			if g.f != nil {
				g.f.Close()
			}
		}
		start := time.Now()
		var sorts time.Duration
		for i, raw := range raws {
			g := b.graphs[i]
			sorted, d, err := sortInput(raw, filepath.Join(dir, raw.name+".adj"))
			if err != nil {
				return err
			}
			sorts += d
			if g.f, err = mis.Open(sorted.path, mis.WithMmap()); err != nil {
				return err
			}
			g.in = sorted
		}
		setup.addDur(time.Since(start), time.Second)
		sortS.addDur(sorts, time.Second)
	}
	first := b.graphs[0]
	probe, err := gio.OpenMmap(first.in.path, 0, nil)
	if err != nil {
		return err
	}
	zeroCopy := probe.MmapZeroCopy()
	probe.Close()
	var vertices int
	var edges uint64
	var nbytes int64
	for _, g := range b.graphs {
		vertices, edges, nbytes = vertices+g.in.vertices, edges+g.in.edges, nbytes+g.in.bytes
	}
	r.record("input: %d graphs, %d vertices, %d edges, %d bytes in all; first %s (PLRG β=%.1f, generated unsorted, degree-sorted by extsort in set-up)",
		len(b.graphs), vertices, edges, nbytes, first.in, batchBeta)
	r.record("engine: mmap=%v zero-copy=%v workers=%d block_size=%d page_cache=warm", first.f.MmapActive(), zeroCopy, workers, gio.DefaultBlockSize)

	for _, g := range b.graphs {
		if g.ref, err = loadRef(g.in.path); err != nil {
			return err
		}
		g.solver = mis.NewSolver(g.f, mis.Workers(workers), mis.OnRound(b.onRound))
		// Warm-up: fault the mapping in and let the executor plan partitions.
		if set, err := g.solver.Greedy(ctx); err != nil {
			return err
		} else if err := g.solver.Verify(ctx, set); err != nil {
			return fmt.Errorf("warm-up verify: %w", err)
		}
	}

	jobs, err := b.loop(ctx, cfg.seconds, nil)
	if err != nil {
		return err
	}
	memMB, err := b.memJob(ctx)
	if err != nil {
		return err
	}

	med := func(alg string) (float64, int) {
		var s samples
		for _, j := range jobs {
			s.addDur(j.phaseTime(alg), time.Second)
		}
		return s.median(), len(s)
	}
	jobMS := jobTimes(jobs)
	r.e2e("setup_s", setup.median(), "s", len(setup), "degree sort + Open(WithMmap) of every graph")
	for _, alg := range batchAlgs {
		v, n := med(alg)
		r.e2e(alg+"_s", v, "s", n, "summed over the batch")
	}
	isSize := 0
	for _, g := range jobs[0].graphs {
		isSize += g.results["two_k_swap"].Size
	}
	r.e2e("is_size", float64(isSize), "vertices", 0, "two-k-swap set sizes summed over the batch")
	r.e2e("mem_mb", memMB, "MiB", 0, "peak live-heap growth over one more job, at every swap round and phase end")
	r.e2e("op_p50_ms", jobMS.median(), "ms", len(jobMS), "job = greedy + one-k + two-k + verify on every graph")
	r.e2e("ops_per_s", float64(len(jobMS))/(jobMS.sum()/1000), "1/s", len(jobMS), "jobs per second of job time")
	r.Attempted, r.Failed = 4*len(b.graphs)*len(jobs), 0

	// The accounting of the first graph in the last job; counts repeat
	// exactly on every job. Blocks per physical scan stand beside the
	// paper's cost model.
	last := jobs[len(jobs)-1].graphs[0]
	model := blocksModel(first.in.vertices, first.in.edges, gio.DefaultBlockSize)
	r.layer("gio.blocks_model", float64(model), "blocks", 0, "⌈8(|V|+|E|)/B⌉ of the first graph")
	r.layer("extsort.sort_s", sortS.median(), "s", len(sortS), "SortFileByDegree of every graph in set-up")
	for _, alg := range batchAlgs {
		io := last.verifyIO
		if res := last.results[alg]; res != nil {
			io = res.IO
		}
		r.layer("pipeline.physical_scans."+alg, float64(io.PhysicalScans), "count", 0, "first graph")
		r.layer("pipeline.logical_scans."+alg, float64(io.Scans), "count", 0, "first graph")
		r.layer("pipeline.carried_scans."+alg, float64(io.CarriedScans), "count", 0, "first graph")
		bps := float64(io.BlocksRead) / float64(max(io.PhysicalScans, 1))
		r.layer("gio.blocks_per_scan."+alg, bps, "blocks", 0,
			fmt.Sprintf("first graph: model %d, gap %+.2f%%", model, 100*(bps-float64(model))/float64(model)))
	}
	for _, alg := range []string{"one_k_swap", "two_k_swap"} {
		var rounds samples
		for _, j := range jobs {
			for _, g := range j.graphs {
				rounds = append(rounds, g.rounds[alg]...)
			}
		}
		r.layer("core.rounds."+alg, float64(last.results[alg].Rounds), "count", 0, "first graph")
		r.layer("core.round_s."+alg, rounds.median(), "s", len(rounds), "between OnRound callbacks, every graph; first from the call's start")
	}
	for _, alg := range []string{"greedy", "one_k_swap", "two_k_swap"} {
		r.layer("core.memory_bytes."+alg, float64(last.results[alg].MemoryBytes), "bytes", 0, "first graph")
	}
	r.layer("core.sc_high_water", float64(last.results["two_k_swap"].SCHighWater), "vertices", 0, "first graph")

	if !cfg.trace {
		return nil
	}

	// The traced run: the same loop with spans on every other job, then
	// the layer probes.
	tr := cfg.tracer
	mixed, err := b.loop(ctx, cfg.seconds, tr)
	if err != nil {
		return err
	}
	scan, st, err := probeScan(ctx, tr, "probe.gio.scan", first.in.path, true, probePasses)
	if err != nil {
		return err
	}
	ex, err := probeExec(ctx, tr, first.in.path, true, workers, probePasses)
	if err != nil {
		return err
	}
	dig, _, err := probeDigest(ctx, tr, first.in.path, 3)
	if err != nil {
		return err
	}
	r.layer("gio.scan_s", scan.median(), "s", len(scan), "bare single-stream pass over the first graph, mmap zero-copy")
	r.layer("exec.scan_s", ex.median(), "s", len(ex), fmt.Sprintf("the same through exec.New(view, %d)", workers))
	r.layer("gio.blocks_per_scan", float64(st.BlocksRead)/float64(max(st.PhysicalScans, 1)), "blocks", 0, "probe pass")
	r.layer("server.digest_s", dig.median(), "s", len(dig), "ContentDigest of the first graph on a fresh open (no daemon in this workload)")
	for _, alg := range []string{"one_k_swap", "two_k_swap"} {
		var s samples
		for _, j := range jobs {
			s.addDur(j.graphs[0].dur[alg], time.Second)
		}
		r.layer("core.self_s."+alg, s.median()-float64(last.results[alg].IO.PhysicalScans)*ex.median(), "s", 0,
			"derived, first graph: time − physical scans × exec.scan_s")
	}
	over := pairedOverhead(mixed)
	r.layer("trace.overhead_ms", over.median(), "ms", len(over), "median of traced − preceding untraced job, same phase")
	return nil
}

// pairedOverhead returns, for each traced job, its wall time minus that of
// the untraced job just before it, in milliseconds: neighbours share the
// host's state, so slow drift cancels.
func pairedOverhead(jobs []jobRun) samples {
	var out samples
	for i := 1; i < len(jobs); i++ {
		if jobs[i].traced && !jobs[i-1].traced {
			out.addDur(jobs[i].wall-jobs[i-1].wall, time.Millisecond)
		}
	}
	return out
}

// memJob runs one more job after the timed ones, checks it, and returns
// the peak live-heap growth over it in MiB, taken exactly at every swap
// round (where the algorithm's state is live) and at the end of every
// phase: on graphs this small too few collections end inside a phase for
// a sampled peak to repeat from run to run.
func (b *batchRun) memJob(ctx context.Context) (float64, error) {
	b.mem = newLivePeak()
	j, err := b.job(ctx, nil)
	mem := b.mem
	b.mem = nil
	if err != nil {
		return 0, err
	}
	for i, g := range b.graphs {
		b.check(g, j.graphs[i])
	}
	return mem.mib(), nil
}

// jobTimes returns each job's total time in milliseconds.
func jobTimes(jobs []jobRun) samples {
	var out samples
	for _, j := range jobs {
		var t time.Duration
		for _, alg := range batchAlgs {
			t += j.phaseTime(alg)
		}
		out.addDur(t, time.Millisecond)
	}
	return out
}

// loop runs jobs until seconds have passed and at least batchMinJobs are
// done, and returns them. With a tracer, every other job is traced.
func (b *batchRun) loop(ctx context.Context, seconds float64, tr *tracer) ([]jobRun, error) {
	var jobs []jobRun
	start := time.Now()
	for len(jobs) < batchMinJobs || time.Since(start).Seconds() < seconds {
		jt := tr
		if len(jobs)%2 == 0 {
			jt = nil
		}
		t := time.Now()
		j, err := b.job(ctx, jt)
		j.wall = time.Since(t)
		if err != nil {
			return nil, err
		}
		for i, g := range b.graphs {
			b.check(g, j.graphs[i])
			// Keep the accounting, not the sets: retained sets would make
			// the heap grow with the number of jobs.
			for _, res := range j.graphs[i].results {
				res.InSet = nil
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func (b *batchRun) job(ctx context.Context, tr *tracer) (jobRun, error) {
	j := jobRun{traced: tr != nil}
	b.tr = tr
	root := tr.begin("solve-batch.job", nil)
	defer root.end()
	for i, g := range b.graphs {
		gr, err := b.solveGraph(ctx, g, tr, root, i)
		j.graphs = append(j.graphs, gr)
		if err != nil {
			return j, err
		}
	}
	return j, nil
}

// solveGraph runs the four phases of a job on one graph of the batch.
func (b *batchRun) solveGraph(ctx context.Context, g *batchGraph, tr *tracer, root *active, index int) (graphRun, error) {
	gr := graphRun{
		dur:     map[string]time.Duration{},
		results: map[string]*mis.Result{},
		rounds:  map[string]samples{},
	}
	phase := func(alg string, fn func() (*mis.Result, error)) (*mis.Result, error) {
		sp := tr.begin("solver."+alg, root)
		sp.set("graph", index)
		b.roundAlg, b.roundParent, b.roundTimes = alg, sp, nil
		start := time.Now()
		b.roundLast = start
		res, err := fn()
		gr.dur[alg] = time.Since(start)
		sp.end()
		b.mem.sample()
		if err != nil {
			return nil, fmt.Errorf("graph %d %s: %w", index, alg, err)
		}
		if res != nil {
			gr.results[alg] = res
			sp.set("size", res.Size)
			sp.set("physical_scans", res.IO.PhysicalScans)
		}
		gr.rounds[alg] = b.roundTimes
		return res, nil
	}
	greedy, err := phase("greedy", func() (*mis.Result, error) { return g.solver.Greedy(ctx) })
	if err != nil {
		return gr, err
	}
	if _, err := phase("one_k_swap", func() (*mis.Result, error) { return g.solver.OneKSwap(ctx, greedy) }); err != nil {
		return gr, err
	}
	two, err := phase("two_k_swap", func() (*mis.Result, error) { return g.solver.TwoKSwap(ctx, greedy) })
	if err != nil {
		return gr, err
	}
	before := g.f.Stats()
	_, err = phase("verify", func() (*mis.Result, error) { return nil, g.solver.Verify(ctx, two) })
	gr.verifyIO = mis.IOStats(gio.Stats(g.f.Stats()).Sub(gio.Stats(before)))
	return gr, err
}

// onRound closes one swap-round span at each OnRound callback.
func (b *batchRun) onRound(ev mis.RoundEvent) {
	now := time.Now()
	b.roundTimes.addDur(now.Sub(b.roundLast), time.Second)
	b.mem.sample()
	b.tr.interval("core.round", b.roundParent, b.roundLast, now, map[string]any{
		"alg": b.roundAlg, "round": ev.Round, "gain": ev.Gain, "physical_scans": ev.IO.PhysicalScans,
	})
	b.roundLast = now
}

// check checks every set of one graph's run against the benchmark's own
// copy of the graph and against the first job: the algorithms are
// deterministic, so every iteration, traced or not, must return the same
// sizes.
func (b *batchRun) check(g *batchGraph, gr graphRun) {
	if g.sizes == nil {
		g.sizes = map[string]int{}
		for alg, res := range gr.results {
			g.sizes[alg] = res.Size
		}
	}
	for _, alg := range []string{"greedy", "one_k_swap", "two_k_swap"} {
		res := gr.results[alg]
		if err := g.ref.check(res.InSet); err != nil {
			b.r.problem("solve-batch %s %s: %v", g.in.name, alg, err)
		}
		n := 0
		for _, in := range res.InSet {
			if in {
				n++
			}
		}
		if n != res.Size {
			b.r.problem("solve-batch %s %s: Size %d but %d members", g.in.name, alg, res.Size, n)
		}
		if res.Size != g.sizes[alg] {
			b.r.problem("solve-batch %s %s: size %d differs from the first job's %d", g.in.name, alg, res.Size, g.sizes[alg])
		}
	}
	if two, greedy := gr.results["two_k_swap"].Size, gr.results["greedy"].Size; two < greedy {
		b.r.problem("solve-batch %s: two-k-swap set (%d) smaller than its greedy seed (%d)", g.in.name, two, greedy)
	}
}
