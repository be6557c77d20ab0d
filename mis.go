// Package mis computes large independent sets on massive graphs under the
// semi-external memory model, implementing the algorithms of
//
//	Liu, Lu, Yang, Xiao, Wei. "Towards Maximum Independent Sets on Massive
//	Graphs." PVLDB 8(13), 2015.
//
// The model assumes main memory holds a few bytes per vertex but not the
// edges: graphs live in an on-disk adjacency file that the algorithms read
// only through sequential scans. A Solver over an open File runs:
//
//   - Greedy — Algorithm 1: one scan of a degree-sorted file, a maximal
//     independent set within ~98–99% of the optimum on power-law graphs.
//   - OneKSwap — Algorithm 2: exchanges one IS vertex for k ≥ 2 others,
//     resolving swap conflicts with a six-state machine and scan-order
//     preemption.
//   - TwoKSwap — Algorithms 3–4: additionally exchanges two IS vertices for
//     k ≥ 3 others via the SC swap-candidate store.
//   - Baselines from the paper's evaluation: AlgBaseline (Greedy without the
//     degree sort), DynamicUpdate (classical in-memory greedy),
//     ExternalMaximal (time-forward processing with an external priority
//     queue), and the Algorithm 5 upper bound on the independence number.
//
// # Quick start
//
//	// Build a graph file (or mis.GeneratePowerLawFile / mis.ImportEdgeList).
//	b := mis.NewBuilder(5)
//	b.AddEdge(0, 2)
//	b.AddEdge(0, 3)
//	b.AddEdge(0, 4)
//	if err := b.WriteFile("toy.adj", true); err != nil { ... }
//
//	f, err := mis.Open("toy.adj")
//	if err != nil { ... }
//	defer f.Close()
//
//	solver := mis.NewSolver(f)
//	greedy, _ := solver.Greedy(ctx)
//	better, _ := solver.TwoKSwap(ctx, greedy)
//	fmt.Println(better.Size, better.Vertices())
//
// The Solver is the one entry point to the algorithms: every call takes a
// context.Context that cancels a multi-minute scan within one decoded
// batch, functional options tune the run (MaxRounds, Workers, …) and attach
// observers (OnProgress, OnRound), and concurrent solvers may share one
// File — each run accounts into its own stat scope that merges into the
// file's totals. File itself only opens, describes, digests and closes the
// graph; Maintainer and Journal keep a set valid under edge updates, and
// their scans take a context too.
package mis

import (
	"repro/internal/core"
	"repro/internal/gio"
)

// Algorithm names one of the six algorithms of the paper's evaluation
// (Section 7).
type Algorithm string

// The algorithms of Table 5.
const (
	AlgGreedy          Algorithm = "greedy"
	AlgBaseline        Algorithm = "baseline"
	AlgOneKSwap        Algorithm = "one-k-swap"
	AlgTwoKSwap        Algorithm = "two-k-swap"
	AlgDynamicUpdate   Algorithm = "dynamic-update"
	AlgExternalMaximal Algorithm = "external-maximal" // the paper's "STXXL"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgGreedy, AlgBaseline, AlgOneKSwap, AlgTwoKSwap,
		AlgDynamicUpdate, AlgExternalMaximal,
	}
}

// fromCore converts an internal result.
func fromCore(r *core.Result) *Result {
	return &Result{
		InSet:       r.InSet,
		Size:        r.Size,
		Rounds:      r.Rounds,
		RoundGains:  append([]int(nil), r.RoundGains...),
		RoundIO:     roundIO(r.RoundIO),
		MemoryBytes: r.MemoryBytes,
		SCHighWater: r.SCHighWater,
		Degrees:     DegreeStats(r.Degrees),
		IO:          IOStats(r.IO),
	}
}

// roundIO converts the per-round I/O deltas.
func roundIO(rounds []gio.Stats) []IOStats {
	if len(rounds) == 0 {
		return nil
	}
	out := make([]IOStats, len(rounds))
	for i, r := range rounds {
		out[i] = IOStats(r)
	}
	return out
}
