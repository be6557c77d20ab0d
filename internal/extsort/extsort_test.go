package extsort

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
)

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return b.Build()
}

// checkSorted verifies dst is a degree-sorted permutation of g.
func checkSorted(t *testing.T, dst string, g *graph.Graph) {
	t.Helper()
	f, err := gio.Open(dst, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Header().DegreeSorted() {
		t.Fatal("output missing degree-sorted flag")
	}
	if f.NumVertices() != g.NumVertices() {
		t.Fatalf("output has %d vertices, want %d", f.NumVertices(), g.NumVertices())
	}
	seen := make([]bool, g.NumVertices())
	prevDeg, prevID := -1, -1
	err = f.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
		for _, r := range batch {
			if seen[r.ID] {
				t.Fatalf("vertex %d appears twice", r.ID)
			}
			seen[r.ID] = true
			d := len(r.Neighbors)
			if d < prevDeg || (d == prevDeg && int(r.ID) < prevID) {
				t.Fatalf("order violated at vertex %d (deg %d after deg %d id %d)", r.ID, d, prevDeg, prevID)
			}
			prevDeg, prevID = d, int(r.ID)
			if d != g.Degree(r.ID) {
				t.Fatalf("vertex %d: degree %d, want %d", r.ID, d, g.Degree(r.ID))
			}
			for _, nb := range r.Neighbors {
				if !g.HasEdge(r.ID, nb) {
					t.Fatalf("invented edge {%d,%d}", r.ID, nb)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d missing from output", v)
		}
	}
}

func TestSortByDegreeInMemory(t *testing.T) {
	g := randomGraph(1, 200, 600)
	dir := t.TempDir()
	src := filepath.Join(dir, "in.adj")
	dst := filepath.Join(dir, "out.adj")
	if err := gio.WriteGraph(src, g, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := SortByDegree(src, dst, Options{}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, dst, g)
}

func TestSortByDegreeWithSpills(t *testing.T) {
	// A tiny memory budget forces many runs and at least one merge pass.
	g := randomGraph(2, 300, 900)
	dir := t.TempDir()
	src := filepath.Join(dir, "in.adj")
	dst := filepath.Join(dir, "out.adj")
	if err := gio.WriteGraph(src, g, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := SortByDegree(src, dst, Options{MemoryBudget: 256, MaxFanIn: 3}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, dst, g)
}

func TestSortEmptyGraph(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.adj")
	dst := filepath.Join(dir, "out.adj")
	if err := gio.WriteGraph(src, graph.NewBuilder(0).Build(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := SortByDegree(src, dst, Options{}); err != nil {
		t.Fatal(err)
	}
	f, err := gio.Open(dst, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 0 {
		t.Fatal("empty sort produced vertices")
	}
}

func TestSortCompressedInput(t *testing.T) {
	// The sorter reads through the gio scanner, so a compressed input file
	// sorts like any other; the output is a raw degree-sorted file.
	g := randomGraph(9, 200, 500)
	dir := t.TempDir()
	src := filepath.Join(dir, "in.cadj")
	w, err := gio.NewWriter(src, gio.FlagCompressed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if err := w.Append(uint32(v), g.Neighbors(uint32(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out.adj")
	if err := SortByDegree(src, dst, Options{MemoryBudget: 1024}); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, dst, g)
}

func TestSortMissingInput(t *testing.T) {
	dir := t.TempDir()
	err := SortByDegree(filepath.Join(dir, "nope.adj"), filepath.Join(dir, "out.adj"), Options{})
	if err == nil {
		t.Fatal("expected error for missing input")
	}
}

func TestSortProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8, budget uint16) bool {
		n := int(nRaw%50) + 1
		g := randomGraph(seed, n, int(mRaw))
		dir := t.TempDir()
		src := filepath.Join(dir, "in.adj")
		dst := filepath.Join(dir, "out.adj")
		if err := gio.WriteGraph(src, g, nil, 0, nil); err != nil {
			return false
		}
		if err := SortByDegree(src, dst, Options{MemoryBudget: int(budget%2048) + 64, MaxFanIn: 4}); err != nil {
			return false
		}
		out, err := gio.Open(dst, 0, nil)
		if err != nil {
			return false
		}
		defer out.Close()
		if out.NumVertices() != n {
			return false
		}
		prev := -1
		seen := 0
		ok := true
		_ = out.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
			for _, r := range batch {
				if len(r.Neighbors) < prev || len(r.Neighbors) != g.Degree(r.ID) {
					ok = false
				}
				prev = len(r.Neighbors)
				seen++
			}
			return nil
		})
		return ok && seen == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// writeShuffled writes g with its records and each neighbor list in a
// random order, so the sort has both to put in order.
func writeShuffled(t testing.TB, path string, g *graph.Graph, flags uint32, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w, err := gio.NewWriter(path, flags, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rng.Perm(g.NumVertices()) {
		ns := append([]uint32(nil), g.Neighbors(uint32(v))...)
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		if err := w.Append(uint32(v), ns); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// sortedReference returns the bytes gio.WriteGraphSorted produces for g:
// the in-memory writer is the oracle for the external sort's output.
func sortedReference(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.adj")
	if err := gio.WriteGraphSorted(path, g, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func requireSameBytes(t testing.TB, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from gio.WriteGraphSorted (%d vs %d bytes)", path, len(got), len(want))
	}
}

// TestSortMatchesInMemoryWriter holds the external sort to the in-memory
// writer byte for byte, record order and neighbor order included, for raw
// and compressed input, in memory, spilling, and with several merge levels.
func TestSortMatchesInMemoryWriter(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"plrg", plrg.PowerLawN(3000, 2.0, 7)},
		{"er", plrg.ErdosRenyi(2000, 6000, 3)},
	}
	inputs := []struct {
		name  string
		flags uint32
	}{
		{"raw", 0},
		{"compressed", gio.FlagCompressed},
	}
	for _, gc := range graphs {
		want := sortedReference(t, gc.g)
		// The whole graph needs about 12 bytes per vertex and 8 per edge
		// in the buffer; a quarter of that forces at least four runs.
		spill := (12*gc.g.NumVertices() + 8*gc.g.NumEdges()) / 4
		budgets := []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"spill", Options{MemoryBudget: spill}},
			{"multilevel", Options{MemoryBudget: 512, MaxFanIn: 3}},
		}
		for _, in := range inputs {
			for _, b := range budgets {
				t.Run(gc.name+"/"+in.name+"/"+b.name, func(t *testing.T) {
					dir := t.TempDir()
					src := filepath.Join(dir, "in.adj")
					dst := filepath.Join(dir, "out.adj")
					writeShuffled(t, src, gc.g, in.flags, 11)
					if err := SortByDegree(src, dst, b.opts); err != nil {
						t.Fatal(err)
					}
					requireSameBytes(t, dst, want)
					requireOnly(t, dir, "in.adj", "out.adj")
				})
			}
		}
	}
}

// requireOnly fails unless dir holds exactly the named entries.
func requireOnly(t testing.TB, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Fatalf("%s holds %v, want %v", dir, got, names)
	}
}

// TestSortThatFitsReadsOnce pins the I/O of a sort whose records fit the
// budget: one physical scan of the input, one write of the output, and no
// file besides the output.
func TestSortThatFitsReadsOnce(t *testing.T) {
	g := plrg.PowerLawN(5000, 2.0, 5)
	dir := t.TempDir()
	src := filepath.Join(dir, "in.adj")
	dst := filepath.Join(dir, "out.adj")
	writeShuffled(t, src, g, 0, 1)
	var stats gio.Counters
	// A run file would need the missing temp directory, so success shows
	// the sort made none.
	opts := Options{Stats: &stats, TempDir: filepath.Join(dir, "missing")}
	if err := SortByDegree(src, dst, opts); err != nil {
		t.Fatal(err)
	}
	s := stats.Snapshot()
	if s.Scans != 1 || s.PhysicalScans != 1 {
		t.Fatalf("scans=%d physical=%d, want 1 and 1", s.Scans, s.PhysicalScans)
	}
	info, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	// The writer writes each byte once, and the header a second time when
	// it fills in the final counts.
	if want := uint64(info.Size()) + gio.HeaderSize; s.BytesWritten != want {
		t.Fatalf("wrote %d bytes, want %d for a %d-byte output", s.BytesWritten, want, info.Size())
	}
	requireOnly(t, dir, "in.adj", "out.adj")
}

// TestSpillIOCounted pins the accounting of a spilling sort's run files:
// it reports the bytes of the same sort done in memory plus the run files'
// sizes, in each direction — every record written to a run once and read
// back once by the single merge — and more blocks both ways.
func TestSpillIOCounted(t *testing.T) {
	g := plrg.PowerLawN(5000, 2.0, 5)
	dir := t.TempDir()
	src := filepath.Join(dir, "in.adj")
	writeShuffled(t, src, g, 0, 1)
	sortStats := func(budget int) gio.Stats {
		t.Helper()
		var stats gio.Counters
		if err := SortByDegree(src, filepath.Join(dir, "out.adj"), Options{MemoryBudget: budget, Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		return stats.Snapshot()
	}
	mem, spill := sortStats(0), sortStats(64*1024)
	// Runs hold raw records: an ID, a degree and 4 bytes per neighbor.
	runBytes := uint64(0)
	for v := 0; v < g.NumVertices(); v++ {
		runBytes += 8 + 4*uint64(len(g.Neighbors(uint32(v))))
	}
	if spill.BytesWritten != mem.BytesWritten+runBytes {
		t.Errorf("spilling sort wrote %d bytes, want %d in memory + %d of runs", spill.BytesWritten, mem.BytesWritten, runBytes)
	}
	if spill.BytesRead != mem.BytesRead+runBytes {
		t.Errorf("spilling sort read %d bytes, want %d in memory + %d of runs", spill.BytesRead, mem.BytesRead, runBytes)
	}
	if spill.BlocksWritten <= mem.BlocksWritten || spill.BlocksRead <= mem.BlocksRead {
		t.Errorf("spilling sort blocks (r/w) %d/%d, not above in memory's %d/%d",
			spill.BlocksRead, spill.BlocksWritten, mem.BlocksRead, mem.BlocksWritten)
	}
}

// TestConcurrentSpillingSorts runs two spilling sorts into one directory at
// once: each must keep its runs to itself and clean them up.
func TestConcurrentSpillingSorts(t *testing.T) {
	graphs := []*graph.Graph{plrg.PowerLawN(1500, 2.0, 1), plrg.ErdosRenyi(1200, 3000, 2)}
	want := make([][]byte, len(graphs))
	dir := t.TempDir()
	names := []string{}
	for i, g := range graphs {
		want[i] = sortedReference(t, g)
		writeShuffled(t, filepath.Join(dir, fmt.Sprintf("in%d.adj", i)), g, 0, int64(i))
		names = append(names, fmt.Sprintf("in%d.adj", i), fmt.Sprintf("out%d.adj", i))
	}
	for trial := 0; trial < 10; trial++ {
		errs := make([]error, len(graphs))
		var wg sync.WaitGroup
		for i := range graphs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := filepath.Join(dir, fmt.Sprintf("in%d.adj", i))
				dst := filepath.Join(dir, fmt.Sprintf("out%d.adj", i))
				errs[i] = SortByDegree(src, dst, Options{MemoryBudget: 4096})
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("trial %d, sort %d: %v", trial, i, err)
			}
			requireSameBytes(t, filepath.Join(dir, fmt.Sprintf("out%d.adj", i)), want[i])
		}
		requireOnly(t, dir, names...)
	}
}

// TestSortRejectsMalformedInput feeds hand-built files that a scan accepts
// but that are no graph: each must fail with gio.ErrBadFormat naming the
// vertex, in memory and when spilling, and leave no output behind.
func TestSortRejectsMalformedInput(t *testing.T) {
	type rec struct {
		id uint32
		ns []uint32
	}
	cases := []struct {
		name string
		recs []rec
		want string
	}{
		{"neighbor out of range", []rec{{0, []uint32{1}}, {1, []uint32{0, 7}}, {2, nil}}, "vertex 1 has out-of-range neighbor 7"},
		{"duplicate vertex", []rec{{0, []uint32{1}}, {1, []uint32{0}}, {1, []uint32{0}}}, "vertex 1 appears twice"},
		{"missing vertex", []rec{{0, []uint32{1}}, {1, []uint32{0}}}, "vertex 2 is missing"},
	}
	for _, c := range cases {
		for _, budget := range []int{0, 16} {
			t.Run(fmt.Sprintf("%s/budget=%d", c.name, budget), func(t *testing.T) {
				dir := t.TempDir()
				src := filepath.Join(dir, "in.adj")
				w, err := gio.NewWriter(src, 0, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				w.SetVertexCount(3)
				for _, r := range c.recs {
					if err := w.Append(r.id, r.ns); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				err = SortByDegree(src, filepath.Join(dir, "out.adj"), Options{MemoryBudget: budget})
				if !errors.Is(err, gio.ErrBadFormat) || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("got %v, want gio.ErrBadFormat with %q", err, c.want)
				}
				requireOnly(t, dir, "in.adj")
			})
		}
	}
}

// BenchmarkSortByDegree sorts unsorted PLRGs (β = 2.0, written in ID order)
// in memory and at two spilling budgets.
func BenchmarkSortByDegree(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		budget int
	}{
		{"150k", 150000, 0},
		{"600k", 600000, 0},
		{"600k-spill-4MiB", 600000, 4 << 20},
		{"600k-spill-256KiB", 600000, 256 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			src := filepath.Join(dir, "in.adj")
			if err := gio.WriteGraph(src, plrg.PowerLawN(bc.n, 2.0, 1), nil, 0, nil); err != nil {
				b.Fatal(err)
			}
			dst := filepath.Join(dir, "out.adj")
			b.ReportAllocs()
			for b.Loop() {
				if err := SortByDegree(src, dst, Options{MemoryBudget: bc.budget}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOutputChecksRankOrder feeds the output writer directly: a record out
// of rank order, or too few records, must fail the sort whatever fed them.
func TestOutputChecksRankOrder(t *testing.T) {
	s := &sorter{rank: []uint32{1, 0, 2}} // vertex 1 goes first
	dst := filepath.Join(t.TempDir(), "out.adj")
	err := s.write(dst, func(out *output) error { return out.append(0, nil) })
	if err == nil || !strings.Contains(err.Error(), "output record 0 is vertex 0, of rank 1") {
		t.Fatalf("out-of-order record: got %v", err)
	}
	err = s.write(dst, func(out *output) error { return out.append(1, nil) })
	if err == nil || !strings.Contains(err.Error(), "wrote 1 of 3 records") {
		t.Fatalf("short output: got %v", err)
	}
}
