package mis_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each bench drives the same runner as `misbench -run <id>`, at reduced
// workload sizes so the suite completes quickly; `cmd/misbench` regenerates
// the full-size artifacts.

import (
	"io"
	"testing"

	"repro/internal/bench"
)

// benchConfig returns a small, deterministic configuration whose generated
// graphs live under the benchmark's temp dir.
func benchConfig(b *testing.B) *bench.Config {
	b.Helper()
	return &bench.Config{
		WorkDir:       b.TempDir(),
		DatasetScale:  20000, // Facebook stand-in ≈ 4k vertices
		SweepVertices: 8000,
		SweepTrials:   2,
		Seed:          1,
		Out:           io.Discard,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp := bench.Experiments()[id]
	if exp == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Costs regenerates Table 1: each method's cost formula
// evaluated for a concrete graph, next to measured block counts.
func BenchmarkTable1Costs(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Greedy regenerates Table 2: the expected Greedy ratio
// (Proposition 2) against the Algorithm 5 bound across β.
func BenchmarkTable2Greedy(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkLemma1Calibration compares Lemma 1's per-degree expectations
// against the measured degree composition of the Greedy set.
func BenchmarkLemma1Calibration(b *testing.B) { runExperiment(b, "lemma1") }

// BenchmarkAblationRandomAccess quantifies the Section 4.1 Remark: lazy
// sequential Greedy vs DynamicUpdate's random reads on the same file.
func BenchmarkAblationRandomAccess(b *testing.B) { runExperiment(b, "ablation-randomaccess") }

// BenchmarkFig6OneKTheory regenerates Figure 6: the expected one-k-swap
// ratio (Proposition 5) across β.
func BenchmarkFig6OneKTheory(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable4Datasets regenerates Table 4: dataset characteristics.
func BenchmarkTable4Datasets(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5Sizes regenerates Table 5: independent-set sizes of all
// six algorithms on every dataset stand-in.
func BenchmarkTable5Sizes(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6TimeMemory regenerates Table 6: running time and memory.
func BenchmarkTable6TimeMemory(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7Rounds regenerates Table 7: swap rounds to convergence.
func BenchmarkTable7Rounds(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8EarlyStop regenerates Table 8: per-round swap gains and
// the ≥97%-within-three-rounds early-stop profile.
func BenchmarkTable8EarlyStop(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkTable9Estimation regenerates Table 9: Proposition 2 estimates
// vs. measured Greedy sizes across β.
func BenchmarkTable9Estimation(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkFig5Cascade regenerates the Figure 5 worst case: swap rounds
// grow linearly on cascade graphs.
func BenchmarkFig5Cascade(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig8Ratios regenerates Figure 8: measured approximation ratios
// of Greedy, One-k-swap and Two-k-swap across β.
func BenchmarkFig8Ratios(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Bound regenerates Figure 9: Two-k-swap against the optimal
// bound per dataset.
func BenchmarkFig9Bound(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10SCRatio regenerates Figure 10: the SC store's peak
// population relative to |V| across β.
func BenchmarkFig10SCRatio(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkAblationIO sweeps the block size B, isolating the (|V|+|E|)/B
// term of the paper's I/O cost model.
func BenchmarkAblationIO(b *testing.B) { runExperiment(b, "ablation-io") }

// BenchmarkAblationEarlyStop measures the size kept when the swap loop is
// cut at 1–3 rounds versus convergence.
func BenchmarkAblationEarlyStop(b *testing.B) { runExperiment(b, "ablation-earlystop") }

// BenchmarkAblationSort isolates the degree-sort preprocessing (Greedy vs
// Baseline on the same graph, and what swaps recover).
func BenchmarkAblationSort(b *testing.B) { runExperiment(b, "ablation-sort") }

// BenchmarkAblationPQ varies the external priority queue's memory buffer on
// the time-forward-processing baseline.
func BenchmarkAblationPQ(b *testing.B) { runExperiment(b, "ablation-pq") }

// BenchmarkScanEngine compares the block-pipelined scan engine against the
// bytewise reference decoder (this repo's own ablation; BENCH_scan.json is
// the full-size artifact, regenerated by `misbench -run scanbench`).
func BenchmarkScanEngine(b *testing.B) { runExperiment(b, "scanbench") }
