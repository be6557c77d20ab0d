package bench

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/theory"
)

// Table1 reproduces Table 1, the cost summary: for a concrete graph it
// evaluates each method's I/O or CPU cost formula with the measured |V|,
// |E|, block size B and memory M, alongside the measured scan counts, so
// the asymptotic table becomes checkable numbers.
func Table1(cfg *Config) error {
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

	v := float64(f.NumVertices())
	e := float64(f.NumEdges())
	b := float64(gio.DefaultBlockSize / 4) // keys per block (4-byte IDs)
	m := 8.0 * v * 4                       // the semi-external budget: a few words per vertex

	logMB := func(x float64) float64 {
		base := m / b
		if base <= 1 || x <= 1 {
			return 1
		}
		l := math.Log(x) / math.Log(base)
		if l < 1 {
			return 1
		}
		return l
	}
	// One scan of the raw file: ⌈8·(|V|+|E|)/B⌉ blocks of B bytes.
	model := gio.ModelBlocks(f.NumVertices(), f.NumEdges(), gio.DefaultBlockSize)
	scan := float64(model)

	cfg.printf("Table 1: cost formulas evaluated for |V|=%.0f |E|=%.0f B=%.0f keys M=%.0f bytes\n", v, e, b, m)
	cfg.printf("%-22s %-34s %14s\n", "Method", "cost model", "value")
	cfg.printf("%-22s %-34s %14s\n", "Xiao (exact)", "CPU 1.2002^|V|·poly", "astronomical")
	cfg.printf("%-22s %-34s %14.0f\n", "Halldórsson (DU)", "CPU |V|log|V|+|E|", v*math.Log2(v)+e)
	cfg.printf("%-22s %-34s %14.1f\n", "Zeh (ext. maximal)", "I/O sort(|V|+|E|) blocks", scan*logMB((v+e)/b))
	cfg.printf("%-22s %-34s %14.1f\n", "Greedy", "I/O (|V|+|E|)/B·(log_{M/B}|V|/B+2)", scan*(logMB(v/b)+2))
	cfg.printf("%-22s %-34s %14.1f\n", "One-k-swap", "I/O scan(|V|+|E|) per round ×3", 3*scan)
	cfg.printf("%-22s %-34s %14.1f\n", "Two-k-swap", "I/O scan(|V|+|E|) per round ×3", 3*scan)

	// Measured blocks for one greedy scan, for comparison with the model.
	before := stats.Snapshot().BlocksRead
	if _, err := core.GreedyCtx(context.TODO(), f, core.Hooks{}); err != nil {
		return err
	}
	cfg.printf("measured: one sequential greedy scan read %d buffered blocks (model scan = %d blocks of %d bytes)\n",
		stats.Snapshot().BlocksRead-before, model, gio.DefaultBlockSize)
	return nil
}

// Lemma1 calibrates the per-degree expectation GR_i of Lemma 1 against the
// measured per-degree composition of the Greedy set: for each small degree
// it prints how many degree-i vertices the theory expects in the set versus
// how many landed there, averaged over the sweep trials.
func Lemma1(cfg *Config) error {
	cfg = cfg.withDefaults()
	const beta = 2.0
	const maxDeg = 8
	p := theory.ParamsForVertices(cfg.SweepVertices, beta)

	measured := make([]float64, maxDeg+1)
	for trial := 0; trial < cfg.SweepTrials; trial++ {
		path, err := cfg.sweepFile(beta, trial)
		if err != nil {
			return err
		}
		f, _, err := openSorted(path)
		if err != nil {
			return err
		}
		r, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
		if err != nil {
			f.Close()
			return err
		}
		// One more scan tallies the degrees of the selected vertices.
		err = f.ForEachBatchCtx(context.TODO(), func(batch []gio.Record) error {
			for _, rec := range batch {
				if r.InSet[rec.ID] && len(rec.Neighbors) <= maxDeg {
					measured[len(rec.Neighbors)]++
				}
			}
			return nil
		})
		f.Close()
		if err != nil {
			return err
		}
	}
	cfg.printf("Lemma 1 calibration: expected vs measured degree-i members of the Greedy set (β=%.1f, |V|=%d)\n",
		beta, cfg.SweepVertices)
	cfg.printf("%6s %14s %14s %10s\n", "i", "GR_i (theory)", "measured", "ratio")
	for i := 1; i <= maxDeg; i++ {
		est := theory.GreedyByDegree(p, i)
		got := measured[i] / float64(cfg.SweepTrials)
		ratio := math.NaN()
		if got > 0 {
			ratio = est / got
		}
		cfg.printf("%6d %14.0f %14.1f %10.3f\n", i, est, got, ratio)
	}
	return nil
}
