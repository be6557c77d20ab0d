package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	mis "repro"
	"repro/internal/gio"
)

// graphInput is one generated graph file.
type graphInput struct {
	name     string
	path     string
	vertices int
	edges    uint64
	bytes    int64
}

func (g graphInput) String() string {
	return fmt.Sprintf("%s: %d vertices, %d edges, %d bytes", g.name, g.vertices, g.edges, g.bytes)
}

// generate writes an unsorted PLRG (the paper's Section 2.2 model) with
// about n vertices and exponent beta; the same seed gives the same graph.
func generate(dir, name string, n int, beta float64, seed int64) (graphInput, error) {
	path := filepath.Join(dir, name+".unsorted.adj")
	if err := mis.GeneratePowerLawFile(path, n, beta, seed, false); err != nil {
		return graphInput{}, fmt.Errorf("generate %s: %w", name, err)
	}
	return describe(name, path)
}

// sortInput runs the degree-sort preprocessing (extsort) and returns the
// sorted file and the sort's duration.
func sortInput(g graphInput, dst string) (graphInput, time.Duration, error) {
	start := time.Now()
	if err := mis.SortFileByDegree(g.path, dst, 0); err != nil {
		return graphInput{}, 0, fmt.Errorf("sort %s: %w", g.name, err)
	}
	d := time.Since(start)
	out, err := describe(g.name, dst)
	return out, d, err
}

func describe(name, path string) (graphInput, error) {
	f, err := mis.Open(path)
	if err != nil {
		return graphInput{}, err
	}
	defer f.Close()
	size, err := f.SizeBytes()
	if err != nil {
		return graphInput{}, err
	}
	return graphInput{name: name, path: path, vertices: f.NumVertices(), edges: f.NumEdges(), bytes: size}, nil
}

// refGraph is the benchmark's own in-memory copy of a generated graph, in
// compressed sparse row form, against which it checks every answer.
type refGraph struct {
	n   int
	off []uint32
	adj []uint32
}

// loadRef reads a graph file with two plain scans: degrees, then neighbors.
func loadRef(path string) (*refGraph, error) {
	f, err := gio.Open(path, 0, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n := f.NumVertices()
	g := &refGraph{n: n, off: make([]uint32, n+1)}
	ctx := context.Background()
	err = f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
		for _, r := range batch {
			g.off[r.ID+1] = uint32(len(r.Neighbors))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.adj = make([]uint32, g.off[n])
	err = f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
		for _, r := range batch {
			copy(g.adj[g.off[r.ID]:], r.Neighbors)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func (g *refGraph) neighbors(u int) []uint32 { return g.adj[g.off[u]:g.off[u+1]] }

// check returns an error unless inSet marks an independent and maximal set.
func (g *refGraph) check(inSet []bool) error {
	if len(inSet) != g.n {
		return fmt.Errorf("set covers %d vertices, graph has %d", len(inSet), g.n)
	}
	for u := 0; u < g.n; u++ {
		nbrs := g.neighbors(u)
		if inSet[u] {
			for _, v := range nbrs {
				if inSet[v] {
					return fmt.Errorf("not independent: edge {%d,%d} has both ends in the set", u, v)
				}
			}
			continue
		}
		dominated := false
		for _, v := range nbrs {
			if inSet[v] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("not maximal: vertex %d has no neighbor in the set", u)
		}
	}
	return nil
}

// checkVertices checks a set given as a vertex list and returns its size.
func (g *refGraph) checkVertices(vs []uint32) (int, error) {
	inSet := make([]bool, g.n)
	for _, v := range vs {
		if int(v) >= g.n {
			return 0, fmt.Errorf("vertex %d out of range", v)
		}
		if inSet[v] {
			return 0, fmt.Errorf("vertex %d listed twice", v)
		}
		inSet[v] = true
	}
	return len(vs), g.check(inSet)
}

func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cleanup %s: %v\n", path, err)
	}
}
