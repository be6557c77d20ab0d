package bench

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/gio"
)

// AblationIO measures how the block size B drives Greedy's I/O, isolating
// the (|V|+|E|)/B term of the paper's cost model: halving B should roughly
// double the buffered block count while the result stays identical.
func AblationIO(cfg *Config) error {
	cfg = cfg.withDefaults()
	path, err := cfg.sweepFile(2.0, 0)
	if err != nil {
		return err
	}
	cfg.printf("Ablation: block size B vs Greedy I/O (graph %s)\n", path)
	cfg.printf("%10s %10s %12s %12s %8s\n", "B", "|IS|", "blocks", "bytes", "time")
	var baseline int
	for _, blockSize := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		stats := &gio.Counters{}
		f, err := gio.Open(path, blockSize, stats)
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
		elapsed := time.Since(start)
		f.Close()
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline = r.Size
		}
		if r.Size != baseline {
			cfg.printf("WARNING: block size changed the result (%d vs %d)\n", r.Size, baseline)
		}
		sn := stats.Snapshot()
		cfg.printf("%10d %10d %12d %12d %8s\n",
			blockSize, r.Size, sn.BlocksRead, sn.BytesRead, fmtDur(elapsed))
	}
	return nil
}

// AblationEarlyStop quantifies the early-stop design choice beyond Table 8:
// final set sizes when the swap loop is cut at 1, 2, 3 rounds versus run to
// convergence.
func AblationEarlyStop(cfg *Config) error {
	cfg = cfg.withDefaults()
	path, err := cfg.sweepFile(2.0, 0)
	if err != nil {
		return err
	}
	f, _, err := openSorted(path)
	if err != nil {
		return err
	}
	defer f.Close()
	greedy, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
	if err != nil {
		return err
	}
	cfg.printf("Ablation: early stop — two-k-swap size by round budget (greedy seed %d)\n", greedy.Size)
	cfg.printf("%12s %10s %12s %10s\n", "budget", "|IS|", "gain kept", "rounds")
	full, err := core.TwoKSwapCtx(context.TODO(), f, greedy.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		return err
	}
	fullGain := full.Size - greedy.Size
	for _, budget := range []int{1, 2, 3} {
		r, err := core.TwoKSwapCtx(context.TODO(), f, greedy.InSet, core.SwapOptions{EarlyStopRounds: budget}, core.Hooks{})
		if err != nil {
			return err
		}
		kept := 1.0
		if fullGain > 0 {
			kept = float64(r.Size-greedy.Size) / float64(fullGain)
		}
		cfg.printf("%12d %10d %11.1f%% %10d\n", budget, r.Size, 100*kept, r.Rounds)
	}
	cfg.printf("%12s %10d %11.1f%% %10d\n", "∞", full.Size, 100.0, full.Rounds)
	return nil
}

// AblationSort isolates the degree-sort preprocessing: the same scan
// algorithm on the same graph, in vertex-ID versus ascending-degree order,
// plus what the swap algorithms recover from the bad start — the Section 7
// "performance advantage of swap operations is more pronounced from the
// Baseline" observation.
func AblationSort(cfg *Config) error {
	cfg = cfg.withDefaults()
	d := PaperDatasets()[7] // Facebook stand-in
	sorted, unsorted, err := cfg.standIn(d)
	if err != nil {
		return err
	}
	cfg.printf("Ablation: degree-sort preprocessing (%s stand-in)\n", d.Name)
	cfg.printf("%-24s %10s %10s\n", "configuration", "|IS|", "vs sorted")
	fs, _, err := openSorted(sorted)
	if err != nil {
		return err
	}
	defer fs.Close()
	fu, _, err := openSorted(unsorted)
	if err != nil {
		return err
	}
	defer fu.Close()

	g, err := core.GreedyCtx(context.TODO(), fs, core.Hooks{})
	if err != nil {
		return err
	}
	b, err := core.GreedyCtx(context.TODO(), fu, core.Hooks{})
	if err != nil {
		return err
	}
	bSwap, err := core.TwoKSwapCtx(context.TODO(), fu, b.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		return err
	}
	gSwap, err := core.TwoKSwapCtx(context.TODO(), fs, g.InSet, core.SwapOptions{}, core.Hooks{})
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		size int
	}{
		{"greedy (sorted)", g.Size},
		{"baseline (unsorted)", b.Size},
		{"two-k after baseline", bSwap.Size},
		{"two-k after greedy", gSwap.Size},
	}
	for _, row := range rows {
		cfg.printf("%-24s %10d %9.2f%%\n", row.name, row.size, 100*float64(row.size)/float64(g.Size))
	}
	return nil
}

// AblationRandomAccess quantifies the paper's Section 4.1 Remark: the
// classical DynamicUpdate, run against the on-disk graph, issues one random
// read per touched adjacency list, while the lazy Greedy does one
// sequential scan. The two produce comparable set sizes; the access pattern
// is the entire difference.
func AblationRandomAccess(cfg *Config) error {
	cfg = cfg.withDefaults()
	path, err := cfg.sweepFile(2.0, 0)
	if err != nil {
		return err
	}
	f, stats, err := openSorted(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
	if err != nil {
		return err
	}
	// The §4.1 Remark is about passes over the disk, so count physical
	// scans: greedy's marking pass and its fused degree/stat rider share
	// one.
	seqScans := stats.Snapshot().PhysicalScans
	dyn, raStats, err := core.DynamicUpdateSemiExternal(f)
	if err != nil {
		return err
	}
	cfg.printf("Ablation: access pattern — lazy Greedy vs on-disk DynamicUpdate (§4.1 Remark)\n")
	cfg.printf("%-28s %10s %16s %16s\n", "algorithm", "|IS|", "sequential scans", "random reads")
	cfg.printf("%-28s %10d %16d %16d\n", "greedy (lazy, sequential)", g.Size, seqScans, 0)
	cfg.printf("%-28s %10d %16s %16d\n", "dynamic-update (on disk)", dyn.Size, "1 (index build)", raStats.RandomReads)
	return nil
}

// AblationPQ varies the external priority queue's memory buffer for the
// time-forward-processing baseline: smaller buffers force disk spills
// without changing the result — the substrate's correctness/performance
// trade-off.
func AblationPQ(cfg *Config) error {
	cfg = cfg.withDefaults()
	path, err := cfg.sweepFile(2.0, 0)
	if err != nil {
		return err
	}
	cfg.printf("Ablation: external PQ buffer vs spills (graph %s)\n", path)
	cfg.printf("%12s %10s %8s\n", "buffer keys", "|IS|", "time")
	var baseline int
	for _, capacity := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		f, _, err := openSorted(path)
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := core.ExternalMaximalCtx(context.TODO(), f, core.ExternalMaximalOptions{
			PQMemoryCapacity: capacity,
			TempDir:          cfg.WorkDir,
		}, core.Hooks{})
		elapsed := time.Since(start)
		f.Close()
		if err != nil {
			return err
		}
		if baseline == 0 {
			baseline = r.Size
		}
		if r.Size != baseline {
			cfg.printf("WARNING: PQ capacity changed the result (%d vs %d)\n", r.Size, baseline)
		}
		cfg.printf("%12d %10d %8s\n", capacity, r.Size, fmtDur(elapsed))
	}
	return nil
}
