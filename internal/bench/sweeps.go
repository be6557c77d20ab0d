package bench

import (
	"context"
	"repro/internal/core"
	"repro/internal/theory"
)

// avgBound generates cfg.SweepTrials random P(·, β) graphs and averages
// their Algorithm 5 upper bounds — the paper's denominator for every
// theoretical ratio (Section 4.2 Remark).
func avgBound(cfg *Config, beta float64) (float64, error) {
	var bounds []float64
	for trial := 0; trial < cfg.SweepTrials; trial++ {
		path, err := cfg.sweepFile(beta, trial)
		if err != nil {
			return 0, err
		}
		f, _, err := openSorted(path)
		if err != nil {
			return 0, err
		}
		b, err := core.UpperBoundCtx(context.TODO(), f, core.Hooks{})
		f.Close()
		if err != nil {
			return 0, err
		}
		bounds = append(bounds, float64(b))
	}
	return avgOf(bounds), nil
}

// Table2 reproduces Table 2: the expected performance ratio of the Greedy
// algorithm (Proposition 2) against the averaged Algorithm 5 upper bound,
// for β from 1.7 to 2.7. The paper reports 0.983–0.988 at 10M vertices.
func Table2(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Table 2: Greedy performance ratio (Proposition 2 / Algorithm 5 bound), |V|=%d\n", cfg.SweepVertices)
	cfg.printf("%6s %12s %12s %8s\n", "β", "GR(α,β)", "bound", "ratio")
	for _, beta := range sweepBetas() {
		p := theory.ParamsForVertices(cfg.SweepVertices, beta)
		gr := theory.Greedy(p)
		bound, err := avgBound(cfg, beta)
		if err != nil {
			return err
		}
		cfg.printf("%6.1f %12.0f %12.0f %8.3f\n", beta, gr, bound, gr/bound)
	}
	return nil
}

// Fig6 reproduces Figure 6: the expected one-k-swap ratio (Proposition 5 on
// top of Proposition 2) over the same β grid; the paper reports ≥ 0.995.
func Fig6(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 6: One-k-swap expected ratio (Proposition 5), |V|=%d\n", cfg.SweepVertices)
	cfg.printf("%6s %12s %12s %12s %8s\n", "β", "GR", "GR+SG", "bound", "ratio")
	for _, beta := range sweepBetas() {
		p := theory.ParamsForVertices(cfg.SweepVertices, beta)
		gr := theory.Greedy(p)
		onek := theory.OneKSwap(p)
		bound, err := avgBound(cfg, beta)
		if err != nil {
			return err
		}
		cfg.printf("%6.1f %12.0f %12.0f %12.0f %8.3f\n", beta, gr, onek, bound, onek/bound)
	}
	return nil
}

// Table9 reproduces Table 9: the accuracy of the Proposition 2 estimate
// against the measured Greedy result on generated graphs, per β. The paper
// reports accuracies ≥ 98.7% with the estimate a lower bound, and the
// counter-intuitive finding that |IS| shrinks as β grows.
func Table9(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Table 9: Accuracy of the Greedy estimation, |V|=%d, %d trials\n", cfg.SweepVertices, cfg.SweepTrials)
	cfg.printf("%6s %12s %12s %12s %10s\n", "β", "Edges", "Estimation", "Real", "Accuracy")
	for _, beta := range sweepBetas() {
		p := theory.ParamsForVertices(cfg.SweepVertices, beta)
		est := theory.Greedy(p)
		var sizes, edges []float64
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
			edgesN := f.NumEdges()
			f.Close()
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(r.Size))
			edges = append(edges, float64(edgesN))
		}
		real := avgOf(sizes)
		cfg.printf("%6.1f %12.0f %12.0f %12.0f %9.1f%%\n", beta, avgOf(edges), est, real, 100*est/real)
	}
	return nil
}

// Fig8 reproduces Figure 8: measured approximation ratios of Greedy,
// One-k-swap and Two-k-swap on generated P(·, β) graphs against the
// Algorithm 5 bound. The paper reports all three ≥ 0.99, swaps above
// Greedy, and ratios rising with β.
func Fig8(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 8: Measured ratios of three algorithms, |V|=%d, %d trials\n", cfg.SweepVertices, cfg.SweepTrials)
	cfg.printf("%6s %10s %12s %12s\n", "β", "Greedy", "One-k-swap", "Two-k-swap")
	for _, beta := range sweepBetas() {
		var rg, r1, r2 []float64
		for trial := 0; trial < cfg.SweepTrials; trial++ {
			path, err := cfg.sweepFile(beta, trial)
			if err != nil {
				return err
			}
			f, _, err := openSorted(path)
			if err != nil {
				return err
			}
			bound, err := core.UpperBoundCtx(context.TODO(), f, core.Hooks{})
			if err != nil {
				f.Close()
				return err
			}
			g, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
			if err != nil {
				f.Close()
				return err
			}
			one, err := core.OneKSwapCtx(context.TODO(), f, g.InSet, core.SwapOptions{}, core.Hooks{})
			if err != nil {
				f.Close()
				return err
			}
			two, err := core.TwoKSwapCtx(context.TODO(), f, g.InSet, core.SwapOptions{}, core.Hooks{})
			f.Close()
			if err != nil {
				return err
			}
			rg = append(rg, float64(g.Size)/float64(bound))
			r1 = append(r1, float64(one.Size)/float64(bound))
			r2 = append(r2, float64(two.Size)/float64(bound))
		}
		cfg.printf("%6.1f %10.4f %12.4f %12.4f\n", beta, avgOf(rg), avgOf(r1), avgOf(r2))
	}
	return nil
}

// Fig10 reproduces Figure 10: the peak SC-store population of Two-k-swap
// relative to |V| over the β grid. The paper reports a stable |SC| ≈
// 0.12–0.14 |V|.
func Fig10(cfg *Config) error {
	cfg = cfg.withDefaults()
	cfg.printf("Figure 10: |SC|/|V| for Two-k-swap, |V|=%d\n", cfg.SweepVertices)
	cfg.printf("%6s %12s %10s\n", "β", "|SC| peak", "|SC|/|V|")
	for _, beta := range sweepBetas() {
		var ratios, peaks []float64
		for trial := 0; trial < cfg.SweepTrials; trial++ {
			path, err := cfg.sweepFile(beta, trial)
			if err != nil {
				return err
			}
			f, _, err := openSorted(path)
			if err != nil {
				return err
			}
			g, err := core.GreedyCtx(context.TODO(), f, core.Hooks{})
			if err != nil {
				f.Close()
				return err
			}
			two, err := core.TwoKSwapCtx(context.TODO(), f, g.InSet, core.SwapOptions{}, core.Hooks{})
			f.Close()
			if err != nil {
				return err
			}
			peaks = append(peaks, float64(two.SCHighWater))
			ratios = append(ratios, float64(two.SCHighWater)/float64(cfg.SweepVertices))
		}
		cfg.printf("%6.1f %12.0f %10.4f\n", beta, avgOf(peaks), avgOf(ratios))
	}
	return nil
}
