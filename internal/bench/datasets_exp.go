package bench

import (
	"context"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/plrg"
)

// Table4 reproduces Table 4: the characteristics of the dataset stand-ins
// (name, |V|, |E|, average degree, disk size), next to the paper's real
// averages for comparison.
func Table4(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Table 4: Dataset stand-ins (scale 1/%d)\n", cfg.DatasetScale)
	cfg.printf("%-12s %10s %12s %9s %10s %12s\n", "Data Set", "|V|", "|E|", "Avg.Deg", "Disk", "Paper Avg")
	for _, d := range PaperDatasets() {
		sorted, _, err := cfg.standIn(d)
		if err != nil {
			return err
		}
		f, _, err := openSorted(sorted)
		if err != nil {
			return err
		}
		size, err := f.SizeBytes()
		if err != nil {
			f.Close()
			return err
		}
		n := f.NumVertices()
		avg := 2 * float64(f.NumEdges()) / float64(n)
		cfg.printf("%-12s %10d %12d %9.2f %10s %12.2f\n",
			d.Name, n, f.NumEdges(), avg, gio.FormatBytes(uint64(size)), d.PaperAvg)
		f.Close()
	}
	return nil
}

// datasetRun holds every measurement Table 5–8 and Figure 9 need, so the
// expensive runs happen once per dataset.
type datasetRun struct {
	name                 string
	vertices             int
	bound                uint64
	dynamicUpdate        int
	external             int
	baseline             int
	oneAfterBase         int
	twoAfterBase         int
	greedy               int
	oneAfterGreedy       int
	twoAfterGreedy       int
	tGreedy, tOne, tTwo  time.Duration
	tDyn, tExt           time.Duration
	memGreedy            uint64
	memOne, memTwo       uint64
	memDyn, memExt       uint64
	roundsOne, roundsTwo int
	gainsOne             []int
	scPeakTwo            int
}

func (cfg *Config) runDataset(d Dataset) (*datasetRun, error) {
	sorted, unsorted, err := cfg.standIn(d)
	if err != nil {
		return nil, err
	}
	run := &datasetRun{name: d.Name}

	// Unsorted file: Baseline, swaps after Baseline, ExternalMaximal.
	fu, _, err := openSorted(unsorted)
	if err != nil {
		return nil, err
	}
	base, err := core.GreedyCtx(context.TODO(), fu, core.Hooks{})
	if err != nil {
		fu.Close()
		return nil, err
	}
	run.baseline = base.Size
	oneB, err := core.OneKSwapCtx(context.TODO(), fu, base.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		fu.Close()
		return nil, err
	}
	run.oneAfterBase = oneB.Size
	twoB, err := core.TwoKSwapCtx(context.TODO(), fu, base.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		fu.Close()
		return nil, err
	}
	run.twoAfterBase = twoB.Size

	start := time.Now()
	ext, err := core.ExternalMaximalCtx(context.TODO(), fu, core.ExternalMaximalOptions{TempDir: cfg.WorkDir}, core.Hooks{})
	if err != nil {
		fu.Close()
		return nil, err
	}
	run.tExt = time.Since(start)
	run.external = ext.Size
	run.memExt = ext.MemoryBytes
	fu.Close()

	// Sorted file: Greedy, swaps after Greedy, bound.
	fs, _, err := openSorted(sorted)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	run.vertices = fs.NumVertices()

	start = time.Now()
	greedy, err := core.GreedyCtx(context.TODO(), fs, core.Hooks{})
	if err != nil {
		return nil, err
	}
	run.tGreedy = time.Since(start)
	run.greedy = greedy.Size
	run.memGreedy = greedy.MemoryBytes

	start = time.Now()
	one, err := core.OneKSwapCtx(context.TODO(), fs, greedy.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		return nil, err
	}
	run.tOne = time.Since(start)
	run.oneAfterGreedy = one.Size
	run.memOne = one.MemoryBytes
	run.roundsOne = one.Rounds
	run.gainsOne = one.RoundGains

	start = time.Now()
	two, err := core.TwoKSwapCtx(context.TODO(), fs, greedy.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		return nil, err
	}
	run.tTwo = time.Since(start)
	run.twoAfterGreedy = two.Size
	run.memTwo = two.MemoryBytes
	run.roundsTwo = two.Rounds
	run.scPeakTwo = two.SCHighWater

	bound, err := core.UpperBoundCtx(context.TODO(), fs, core.Hooks{})
	if err != nil {
		return nil, err
	}
	run.bound = bound

	// DynamicUpdate: in-memory.
	g, err := gio.LoadGraph(sorted, nil)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	dyn := core.DynamicUpdate(g)
	run.tDyn = time.Since(start)
	run.dynamicUpdate = dyn.Size
	run.memDyn = dyn.MemoryBytes
	return run, nil
}

// allRuns executes (and caches) the per-dataset measurements.
func (cfg *Config) allRuns() ([]*datasetRun, error) {
	cfg.mu.Lock()
	if cfg.runsCache != nil {
		defer cfg.mu.Unlock()
		return cfg.runsCache, nil
	}
	cfg.mu.Unlock()
	var runs []*datasetRun
	for _, d := range PaperDatasets() {
		r, err := cfg.runDataset(d)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	cfg.mu.Lock()
	cfg.runsCache = runs
	cfg.mu.Unlock()
	return runs, nil
}

// Table5 reproduces Table 5: independent-set sizes of the six algorithms
// (swaps applied after both Baseline and Greedy). The paper's shape:
// Two-k ≥ One-k ≥ Greedy ≥ Baseline, with swaps rescuing Baseline's poor
// start, and the external maximal-IS algorithm trailing on large graphs.
func Table5(cfg *Config) error {
	cfg = cfg.withDefaults()
	runs, err := cfg.allRuns()
	if err != nil {
		return err
	}
	cfg.printf("Table 5: Independent-set sizes\n")
	cfg.printf("%-12s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"Data Set", "DynUpd", "STXXL", "Baseline", "1k(Base)", "2k(Base)", "Greedy", "1k(Grdy)", "2k(Grdy)")
	for _, r := range runs {
		cfg.printf("%-12s %10d %10d %10d %10d %10d %10d %10d %10d\n",
			r.name, r.dynamicUpdate, r.external, r.baseline,
			r.oneAfterBase, r.twoAfterBase, r.greedy, r.oneAfterGreedy, r.twoAfterGreedy)
	}
	return nil
}

// Table6 reproduces Table 6: running time and memory cost per algorithm.
// The paper's shape: Greedy is fastest and smallest; swap memory is a few
// words per vertex (independent of |E|); DynamicUpdate's memory scales with
// the whole graph.
func Table6(cfg *Config) error {
	cfg = cfg.withDefaults()
	runs, err := cfg.allRuns()
	if err != nil {
		return err
	}
	cfg.printf("Table 6: Time and memory cost\n")
	cfg.printf("%-12s | %10s %10s %10s %10s %10s | %10s %10s %10s %10s %10s\n",
		"Data Set", "DU time", "STXXL t", "Greedy t", "One-k t", "Two-k t",
		"DU mem", "STXXL m", "Greedy m", "One-k m", "Two-k m")
	for _, r := range runs {
		cfg.printf("%-12s | %10s %10s %10s %10s %10s | %10s %10s %10s %10s %10s\n",
			r.name,
			fmtDur(r.tDyn), fmtDur(r.tExt), fmtDur(r.tGreedy), fmtDur(r.tOne), fmtDur(r.tTwo),
			gio.FormatBytes(r.memDyn), gio.FormatBytes(r.memExt), gio.FormatBytes(r.memGreedy),
			gio.FormatBytes(r.memOne), gio.FormatBytes(r.memTwo))
	}
	return nil
}

func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// Table7 reproduces Table 7: rounds until convergence for both swap
// algorithms. The paper's shape: small constants (2–9), not proportional to
// graph size, with Two-k often converging in no more rounds than One-k.
func Table7(cfg *Config) error {
	cfg = cfg.withDefaults()
	runs, err := cfg.allRuns()
	if err != nil {
		return err
	}
	cfg.printf("Table 7: Number of rounds\n")
	cfg.printf("%-12s %12s %12s\n", "Data Set", "One-k swap", "Two-k swap")
	for _, r := range runs {
		cfg.printf("%-12s %12d %12d\n", r.name, r.roundsOne, r.roundsTwo)
	}
	return nil
}

// Table8 reproduces Table 8: new IS vertices per round for One-k-swap and
// the cumulative swap ratio after one, two and three rounds. The paper's
// shape: ≥ 97% of the total gain lands within three rounds.
func Table8(cfg *Config) error {
	cfg = cfg.withDefaults()
	runs, err := cfg.allRuns()
	if err != nil {
		return err
	}
	cfg.printf("Table 8: One-k-swap early-stop profile (cumulative gain and ratio per round)\n")
	cfg.printf("%-12s %10s %8s %10s %8s %10s %8s %10s\n",
		"Data Set", "1 round", "ratio", "2 rounds", "ratio", "3 rounds", "ratio", "total")
	for _, r := range runs {
		total := 0
		for _, g := range r.gainsOne {
			total += g
		}
		cum := func(k int) int {
			s := 0
			for i := 0; i < k && i < len(r.gainsOne); i++ {
				s += r.gainsOne[i]
			}
			return s
		}
		ratio := func(k int) float64 {
			if total == 0 {
				return 1
			}
			return float64(cum(k)) / float64(total)
		}
		cfg.printf("%-12s %10d %7.2f%% %10d %7.2f%% %10d %7.2f%% %10d\n",
			r.name, cum(1), 100*ratio(1), cum(2), 100*ratio(2), cum(3), 100*ratio(3), total)
	}
	return nil
}

// Fig9 reproduces Figure 9: Two-k-swap size against the Algorithm 5 optimal
// bound per dataset. The paper's shape: the sparse datasets sit within ~99%
// of the bound.
func Fig9(cfg *Config) error {
	cfg = cfg.withDefaults()
	runs, err := cfg.allRuns()
	if err != nil {
		return err
	}
	cfg.printf("Figure 9: Two-k-swap vs. optimal bound\n")
	cfg.printf("%-12s %12s %14s %8s\n", "Data Set", "Two-k-swap", "Optimal bound", "ratio")
	for _, r := range runs {
		cfg.printf("%-12s %12d %14d %8.4f\n",
			r.name, r.twoAfterGreedy, r.bound, float64(r.twoAfterGreedy)/float64(r.bound))
	}
	return nil
}

// Fig5 validates the cascade-swap worst case of Figure 5: a k-group cascade
// needs a full k rounds of one-k-swap, so rounds grow linearly in |V| = 3k.
func Fig5(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 5: Cascade-swap worst case (rounds must be ≈ |V|/3)\n")
	cfg.printf("%8s %8s %8s %8s\n", "k", "|V|", "rounds", "|IS|")
	for _, k := range []int{10, 30, 100, 300} {
		key := "cascade-" + strconv.Itoa(k)
		path, err := cfg.cachedFile(key, func(p string) error {
			return gio.WriteGraphSorted(p, plrg.Cascade(k), nil)
		})
		if err != nil {
			return err
		}
		f, _, err := openSorted(path)
		if err != nil {
			return err
		}
		init := make([]bool, 3*k)
		for _, c := range plrg.CascadeCenters(k) {
			init[c] = true
		}
		r, err := core.OneKSwapCtx(context.TODO(), f, init, core.SwapOptions{}, core.Hooks{})
		f.Close()
		if err != nil {
			return err
		}
		cfg.printf("%8d %8d %8d %8d\n", k, 3*k, r.Rounds, r.Size)
	}
	return nil
}
