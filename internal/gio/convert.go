package gio

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// WriteGraph writes g to path in the given scan order (nil means vertex-ID
// order). Within each record, neighbors are ordered by ascending degree with
// ID as a tiebreak, as Section 4.1 of the paper prescribes. flags should
// include FlagDegreeSorted when order is an ascending-degree order.
func WriteGraph(path string, g *graph.Graph, order []uint32, flags uint32, stats *Counters) error {
	if order != nil && len(order) != g.NumVertices() {
		return fmt.Errorf("gio: order has %d entries for %d vertices", len(order), g.NumVertices())
	}
	w, err := NewWriter(path, flags, 0, stats)
	if err != nil {
		return err
	}
	rank := DegreeRanks(degrees(g))
	var (
		sorted []uint32
		keys   []uint64
	)
	for i := range g.NumVertices() {
		v := uint32(i)
		if order != nil {
			v = order[i]
		}
		sorted = append(sorted[:0], g.Neighbors(v)...)
		keys = SortByRank(sorted, rank, keys)
		if err := w.Append(v, sorted); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

func degrees(g *graph.Graph) []uint32 {
	deg := make([]uint32, g.NumVertices())
	for v := range deg {
		deg[v] = uint32(g.Degree(uint32(v)))
	}
	return deg
}

// DegreeRanks turns deg, the degree of every vertex indexed by ID, in place
// into each vertex's position in ascending (degree, ID) order — the scan
// order the Greedy algorithm requires — and returns it. It is one counting
// sort: O(|V| + maximum degree) time, with one count per degree beside deg.
// DegreeRanks is the single definition of that order: DegreeOrder,
// WriteGraph's neighbor order and the external sort (internal/extsort) all
// derive from it.
func DegreeRanks(deg []uint32) []uint32 {
	var maxDeg uint32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	// next[d] counts the vertices of degree d, then holds the next unused
	// rank among them; visiting vertices in ID order breaks degree ties by ID.
	next := make([]uint32, int(maxDeg)+1)
	for _, d := range deg {
		next[d]++
	}
	var sum uint32
	for d, c := range next {
		next[d] = sum
		sum += c
	}
	for v, d := range deg {
		deg[v] = next[d]
		next[d]++
	}
	return deg
}

// SortByRank orders the vertex IDs in ns by ascending rank[v], where rank
// comes from DegreeRanks, so ns ends in (degree, ID) order. keys is scratch
// space, returned for reuse. Every value in ns must index rank.
func SortByRank(ns, rank []uint32, keys []uint64) []uint64 {
	if len(ns) < 2 {
		return keys
	}
	keys = keys[:0]
	for _, v := range ns {
		keys = append(keys, uint64(rank[v])<<32|uint64(v))
	}
	slices.Sort(keys)
	for i, k := range keys {
		ns[i] = uint32(k)
	}
	return keys
}

// DegreeOrder returns g's vertex IDs sorted by ascending degree (ID
// tiebreak) — the scan order required by the Greedy algorithm.
func DegreeOrder(g *graph.Graph) []uint32 {
	rank := DegreeRanks(degrees(g))
	order := make([]uint32, len(rank))
	for v, r := range rank {
		order[r] = uint32(v)
	}
	return order
}

// WriteGraphSorted writes g to path in ascending-degree scan order and sets
// FlagDegreeSorted.
func WriteGraphSorted(path string, g *graph.Graph, stats *Counters) error {
	return WriteGraph(path, g, DegreeOrder(g), FlagDegreeSorted, stats)
}

// LoadGraph reads an entire adjacency file into memory. Intended for small
// graphs and tests; semi-external algorithms scan the file with
// File.ForEachBatchCtx instead.
func LoadGraph(path string, stats *Counters) (*graph.Graph, error) {
	f, err := Open(path, 0, stats)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := graph.NewBuilder(f.NumVertices())
	err = f.ForEachBatchCtx(context.TODO(), func(batch []Record) error {
		for _, r := range batch {
			for _, n := range r.Neighbors {
				b.AddEdge(r.ID, n)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ReadEdgeListText parses a whitespace-separated edge list ("u v" per line;
// '#' or '%' start comments) into a Graph. Vertex IDs must be non-negative
// integers; the graph has max(id)+1 vertices.
func ReadEdgeListText(r io.Reader) (*graph.Graph, error) {
	type e struct{ u, v uint32 }
	var edges []e
	maxID := int64(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: edge list line %d: need two fields, got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: edge list line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: edge list line %d: %v", line, err)
		}
		if u < 0 || v < 0 || u > 1<<31 || v > 1<<31 {
			return nil, fmt.Errorf("gio: edge list line %d: vertex id out of range", line)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, e{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: reading edge list: %w", err)
	}
	b := graph.NewBuilder(int(maxID + 1))
	for _, ed := range edges {
		b.AddEdge(ed.u, ed.v)
	}
	return b.Build(), nil
}

// ImportEdgeListFile reads a text edge list from src and writes a
// degree-sorted adjacency file to dst.
func ImportEdgeListFile(src, dst string, stats *Counters) error {
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("gio: open %s: %w", src, err)
	}
	defer f.Close()
	g, err := ReadEdgeListText(f)
	if err != nil {
		return err
	}
	return WriteGraphSorted(dst, g, stats)
}

// CompressFile rewrites the adjacency file at src into dst with
// varint/delta-encoded neighbor lists, keeping the record order and every
// header flag (see FlagCompressed). One sequential read, one sequential
// write, both counted in stats.
func CompressFile(src, dst string, stats *Counters) error {
	in, err := Open(src, 0, stats)
	if err != nil {
		return err
	}
	defer in.Close()
	w, err := NewWriter(dst, in.Header().Flags|FlagCompressed, 0, stats)
	if err != nil {
		return err
	}
	err = in.ForEachBatchCtx(context.TODO(), func(batch []Record) error {
		for _, r := range batch {
			if err := w.Append(r.ID, r.Neighbors); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// WriteEdgeListText writes g as a text edge list (one "u v" per line, u < v).
func WriteEdgeListText(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	var outer error
	g.Edges(func(u, v uint32) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			outer = err
			return false
		}
		return true
	})
	if outer != nil {
		return outer
	}
	return bw.Flush()
}
