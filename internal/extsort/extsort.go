// Package extsort implements the preprocessing phase of the paper's Greedy
// algorithm (Section 4.1): rewriting an adjacency file so that vertex
// records appear in ascending order of degree, using external merge sort
// with a bounded in-memory buffer.
//
// The sort reads its input once. That read fills the degree array and a
// flat record buffer of at most MemoryBudget bytes. A record's place among
// the buffered ones depends only on its own degree and ID, so run generation
// needs no global state. Neighbor lists, which are ordered by their
// vertices' degrees, are put in order when records are written out, by which
// time every degree is known.
//
// A sort whose records fit the budget makes one read and one write: the
// records go from the buffer straight to the output, each in the slot its
// (degree, ID) rank names. A sort that spills writes each full buffer as a
// sorted run and k-way merges the runs, at most MaxFanIn at a time; that adds
// one write and one read of the records per merge level, the paper's I/O
// cost (|V|+|E|)/B · (log_{M/B}(|V|/B) + 2).
package extsort

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/gio"
)

// DefaultMemoryBudget bounds the bytes of adjacency records buffered in
// memory during run generation when the caller does not specify a budget.
const DefaultMemoryBudget = 64 * 1024 * 1024

// Options configure SortByDegree.
type Options struct {
	// MemoryBudget is the maximum bytes of the record buffer: 12 per record
	// and 4 per neighbor. ≤ 0 selects DefaultMemoryBudget.
	MemoryBudget int
	// BlockSize is the I/O buffer size; ≤ 0 selects gio.DefaultBlockSize.
	BlockSize int
	// TempDir receives intermediate run files; empty selects the destination
	// file's directory. Each sort that spills makes its own subdirectory
	// there and removes it before returning.
	TempDir string
	// Stats receives I/O accounting; may be nil.
	Stats *gio.Counters
	// MaxFanIn bounds the number of runs merged at once (multiple merge
	// passes happen above it). ≤ 0 selects 64; 1 acts as 2, since merging
	// one run at a time would never finish.
	MaxFanIn int
}

// recordBytes is what one buffered record costs besides its neighbors: its
// ID, its arena offset and its entry in the output or run order.
const recordBytes = 12

// unseen marks, in the degree array, a vertex whose record the read has not
// met yet.
const unseen = math.MaxUint32

// SortByDegree reads the adjacency file at src and writes a new file at dst
// whose records are in ascending (degree, id) order and whose neighbor lists
// are ordered by ascending neighbor degree (ID tiebreak). It keeps only
// O(|V|) state (the degree array, turned into ranks) plus the configured
// memory budget. A malformed input (a duplicated or missing vertex, or a
// neighbor ID out of range) yields an error wrapping gio.ErrBadFormat and no
// output file.
func SortByDegree(src, dst string, opts Options) error {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = DefaultMemoryBudget
	}
	if opts.MaxFanIn <= 0 {
		opts.MaxFanIn = 64
	}
	opts.MaxFanIn = max(opts.MaxFanIn, 2)
	if opts.TempDir == "" {
		opts.TempDir = filepath.Dir(dst)
	}
	s := &sorter{opts: opts}
	defer s.removeRuns()
	deg, err := s.read(src)
	if err != nil {
		return err
	}
	s.rank = gio.DegreeRanks(deg)
	if len(s.runs) == 0 {
		return s.write(dst, s.buf.writeTo)
	}
	if err := s.spill(); err != nil {
		return err
	}
	s.buf = nil // the merge reads runs only
	if err := s.mergeLevels(); err != nil {
		return err
	}
	return s.write(dst, func(out *output) error {
		return s.merge(s.runs, out.append)
	})
}

// sorter is the state of one SortByDegree call.
type sorter struct {
	opts Options
	rank []uint32 // each vertex's position in (degree, ID) order
	buf  *buffer
	dir  string   // this call's run directory, made at the first spill
	runs []string // run files, each in (degree, ID) order
	made int      // run files made so far, for unique names
}

// read scans src once, buffering records and returning every vertex's
// degree. It spills the buffer as a run whenever the next record would pass
// the budget, and rejects a duplicated or missing vertex; the decoder has
// already rejected a neighbor ID out of range.
func (s *sorter) read(src string) ([]uint32, error) {
	in, err := gio.Open(src, s.opts.BlockSize, s.opts.Stats)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	n := in.NumVertices()
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %s: %d vertices exceed 32-bit IDs", gio.ErrBadFormat, src, n)
	}
	deg := make([]uint32, n)
	for v := range deg {
		deg[v] = unseen
	}
	s.buf = newBuffer(n, in.NumEdges(), s.opts.MemoryBudget)
	records := 0
	err = in.ForEachBatchCtx(context.TODO(), func(batch []gio.Record) error {
		for _, r := range batch {
			if deg[r.ID] != unseen {
				return fmt.Errorf("%w: %s: vertex %d appears twice", gio.ErrBadFormat, src, r.ID)
			}
			deg[r.ID] = uint32(len(r.Neighbors))
			if !s.buf.fits(len(r.Neighbors)) {
				if err := s.spill(); err != nil {
					return err
				}
			}
			s.buf.add(r.ID, r.Neighbors)
			records++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if records != n {
		// No vertex appears twice, so fewer records than vertices leaves one
		// unseen.
		v := slices.Index(deg, unseen)
		return nil, fmt.Errorf("%w: %s: vertex %d is missing (%d records for %d vertices)", gio.ErrBadFormat, src, v, records, n)
	}
	return deg, nil
}

// spill writes the buffered records as a run in (degree, ID) order and
// empties the buffer.
func (s *sorter) spill() error {
	path, err := s.runPath()
	if err != nil {
		return err
	}
	w, err := newRunWriter(path, s.opts)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, path)
	b := s.buf
	for _, i := range b.runOrder() {
		if err := w.append(b.ids[i], b.neighbors(i)); err != nil {
			w.close()
			return err
		}
	}
	b.reset()
	return w.close()
}

// runPath names a new run file in this call's own directory, making the
// directory on first use, so concurrent sorts never share a run file.
func (s *sorter) runPath() (string, error) {
	if s.dir == "" {
		dir, err := os.MkdirTemp(s.opts.TempDir, "extsort-*")
		if err != nil {
			return "", fmt.Errorf("extsort: %w", err)
		}
		s.dir = dir
	}
	s.made++
	return filepath.Join(s.dir, fmt.Sprintf("run-%d", s.made)), nil
}

// removeRuns deletes the run directory, if the sort made one.
func (s *sorter) removeRuns() {
	if s.dir != "" {
		os.RemoveAll(s.dir) // best effort: the output does not depend on it
	}
}

// mergeLevels merges groups of MaxFanIn runs into longer runs until one
// final merge can take them all.
func (s *sorter) mergeLevels() error {
	fanIn := s.opts.MaxFanIn
	for len(s.runs) > fanIn {
		var next []string
		for i := 0; i < len(s.runs); i += fanIn {
			group := s.runs[i:min(i+fanIn, len(s.runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			path, err := s.runPath()
			if err != nil {
				return err
			}
			w, err := newRunWriter(path, s.opts)
			if err != nil {
				return err
			}
			if err := s.merge(group, w.append); err != nil {
				w.close()
				return err
			}
			if err := w.close(); err != nil {
				return err
			}
			for _, r := range group {
				os.Remove(r) // early, to bound disk use; removeRuns sweeps any left
			}
			next = append(next, path)
		}
		s.runs = next
	}
	return nil
}

// write creates dst and lets fill hand it every record in rank order.
func (s *sorter) write(dst string, fill func(*output) error) error {
	w, err := gio.NewWriter(dst, gio.FlagDegreeSorted, s.opts.BlockSize, s.opts.Stats)
	if err != nil {
		return err
	}
	out := &output{w: w, rank: s.rank}
	if err := fill(out); err != nil {
		w.Close()
		return err
	}
	if int(out.k) != len(s.rank) {
		w.Close()
		return fmt.Errorf("extsort: wrote %d of %d records: a run lost records", out.k, len(s.rank))
	}
	return w.Close()
}

// output writes sorted records to the destination file.
type output struct {
	w    *gio.Writer
	rank []uint32
	keys []uint64
	k    uint32 // records written
}

// append writes one record, putting its neighbors in rank order. The k-th
// record written must be the vertex of rank k; that one check catches a
// record that the buffer or the runs lost, repeated or misplaced.
func (o *output) append(id uint32, ns []uint32) error {
	if r := o.rank[id]; r != o.k {
		return fmt.Errorf("extsort: output record %d is vertex %d, of rank %d", o.k, id, r)
	}
	o.keys = gio.SortByRank(ns, o.rank, o.keys)
	o.k++
	return o.w.Append(id, ns)
}

// buffer holds records in three flat arrays: record i is vertex ids[i], with
// neighbors arena[offs[i]:offs[i+1]]. order is per-record scratch for the
// output or run order.
type buffer struct {
	ids, offs, arena, order []uint32
	budget                  int
}

// newBuffer sizes a buffer for the whole input, as its header counts it, or
// for the share of the input that the budget holds.
func newBuffer(records int, edges uint64, budget int) *buffer {
	nbrs := 2 * float64(edges)
	scale := 1.0
	if need := recordBytes*float64(records) + 4*nbrs; need > float64(budget) {
		scale = float64(budget) / need
	}
	recs := int(scale * float64(records))
	return &buffer{
		budget: budget,
		ids:    make([]uint32, 0, recs),
		offs:   make([]uint32, 1, recs+1),
		arena:  make([]uint32, 0, int(scale*nbrs)),
	}
}

// fits reports whether a record of deg neighbors can join the buffer within
// the budget and the arena's 32-bit offsets. An empty buffer takes any
// record.
func (b *buffer) fits(deg int) bool {
	if len(b.ids) == 0 {
		return true
	}
	used := recordBytes*len(b.ids) + 4*len(b.arena)
	return used+recordBytes+4*deg <= b.budget && uint64(len(b.arena)+deg) <= math.MaxUint32
}

func (b *buffer) add(id uint32, ns []uint32) {
	b.ids = append(b.ids, id)
	b.arena = append(b.arena, ns...)
	b.offs = append(b.offs, uint32(len(b.arena)))
}

func (b *buffer) neighbors(i uint32) []uint32 { return b.arena[b.offs[i]:b.offs[i+1]] }

func (b *buffer) reset() {
	b.ids, b.offs, b.arena = b.ids[:0], b.offs[:1], b.arena[:0]
}

// runOrder returns the buffered records' indexes in (degree, ID) order.
func (b *buffer) runOrder() []uint32 {
	b.order = b.order[:0]
	for i := range b.ids {
		b.order = append(b.order, uint32(i))
	}
	slices.SortFunc(b.order, func(i, j uint32) int {
		if c := cmp.Compare(b.offs[i+1]-b.offs[i], b.offs[j+1]-b.offs[j]); c != 0 {
			return c
		}
		return cmp.Compare(b.ids[i], b.ids[j])
	})
	return b.order
}

// writeTo hands every buffered record to out in rank order. It needs the
// whole graph in the buffer: the read has checked that every vertex appears
// exactly once, so each record's rank is its own output slot.
func (b *buffer) writeTo(out *output) error {
	b.order = slices.Grow(b.order[:0], len(b.ids))[:len(b.ids)]
	for i, id := range b.ids {
		b.order[out.rank[id]] = uint32(i)
	}
	for _, i := range b.order {
		if err := out.append(b.ids[i], b.neighbors(i)); err != nil {
			return err
		}
	}
	return nil
}

// merge k-way merges run files whose records are in rank order, handing
// each record to emit in rank order. The neighbor slice passed to emit is
// valid only during the call.
func (s *sorter) merge(runs []string, emit func(id uint32, ns []uint32) error) error {
	rank := s.rank
	readers := make([]*runReader, len(runs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.close()
			}
		}
	}()
	h := make(mergeHeap, 0, len(runs))
	for i, path := range runs {
		r, err := newRunReader(path, s.opts, uint32(len(rank)))
		if err != nil {
			return err
		}
		readers[i] = r
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, uint64(rank[r.id])<<32|uint64(i))
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		i := uint32(h[0])
		r := readers[i]
		if err := emit(r.id, r.ns); err != nil {
			return err
		}
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			h[0] = uint64(rank[r.id])<<32 | uint64(i)
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// mergeHeap is a min-heap of run heads, each keyed rank<<32 | run index.
type mergeHeap []uint64

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *mergeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
