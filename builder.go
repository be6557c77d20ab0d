package mis

import (
	"repro/internal/extsort"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
	"repro/internal/theory"
)

// Builder accumulates an undirected graph in memory and writes it as an
// adjacency file. Self-loops and duplicate edges are dropped. For graphs too
// large to build in memory, write an unsorted file elsewhere and use
// SortFileByDegree, which runs in bounded memory.
type Builder struct {
	b *graph.Builder
	n int
}

// NewBuilder returns a builder for n vertices (IDs 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{b: graph.NewBuilder(n), n: n}
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v uint32) { b.b.AddEdge(u, v) }

// WriteFile writes the graph to path. With degreeSorted true the records
// are in ascending-degree scan order — the preprocessing the Greedy
// algorithm expects; otherwise they are in vertex-ID order (the Baseline
// configuration).
func (b *Builder) WriteFile(path string, degreeSorted bool) error {
	g := b.b.Build()
	if degreeSorted {
		return gio.WriteGraphSorted(path, g, nil)
	}
	return gio.WriteGraph(path, g, nil, 0, nil)
}

// GeneratePowerLawFile generates a power-law random graph P(α, β) with
// approximately n vertices using the matching model of Section 2.2 and
// writes it to path (degree-sorted when degreeSorted is true). The same
// seed always yields the same graph.
func GeneratePowerLawFile(path string, n int, beta float64, seed int64, degreeSorted bool) error {
	g := plrg.PowerLawN(n, beta, seed)
	if degreeSorted {
		return gio.WriteGraphSorted(path, g, nil)
	}
	return gio.WriteGraph(path, g, nil, 0, nil)
}

// PowerLawParams reports the model parameters (α, Δ, expected |V| and |E|)
// the generator uses for a target vertex count and exponent.
func PowerLawParams(n int, beta float64) (alpha float64, maxDegree int, expVertices, expEdges float64) {
	p := theory.ParamsForVertices(n, beta)
	return p.Alpha, p.MaxDegree(), p.NumVertices(), p.NumEdges()
}

// ImportEdgeList reads a whitespace-separated text edge list ("u v" per
// line, '#' comments) from src and writes a degree-sorted adjacency file to
// dst.
func ImportEdgeList(src, dst string) error {
	return gio.ImportEdgeListFile(src, dst, nil)
}

// SortFileByDegree rewrites the adjacency file at src into dst with records
// in ascending-degree order using external merge sort in bounded memory
// (memoryBudget bytes; 0 selects the 64 MiB default). This is the paper's
// preprocessing phase for the Greedy algorithm.
func SortFileByDegree(src, dst string, memoryBudget int) error {
	return extsort.SortByDegree(src, dst, extsort.Options{MemoryBudget: memoryBudget})
}

// CompressFile rewrites the adjacency file at src into dst with
// varint/delta-encoded neighbor lists (the library's analogue of the
// WebGraph compression the paper's datasets use). Record order and all
// header flags are preserved; neighbor lists are re-ordered ascending by ID
// inside each record, which no algorithm depends on. One sequential read,
// one sequential write.
func CompressFile(src, dst string) error {
	return gio.CompressFile(src, dst, nil)
}
