package mis_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	mis "repro"
)

// buildToy writes the Figure 1 graph and returns its path.
func buildToy(t *testing.T, sorted bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "toy.adj")
	b := mis.NewBuilder(5)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	if err := b.WriteFile(path, sorted); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenAndMetadata(t *testing.T) {
	path := buildToy(t, true)
	f, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 5 || f.NumEdges() != 3 {
		t.Fatalf("got %d vertices, %d edges", f.NumVertices(), f.NumEdges())
	}
	if !f.DegreeSorted() {
		t.Fatal("expected degree-sorted flag")
	}
	if f.AvgDegree() != 6.0/5.0 {
		t.Fatalf("avg degree = %f", f.AvgDegree())
	}
	if f.Path() != path {
		t.Fatalf("path = %q", f.Path())
	}
	if size, err := f.SizeBytes(); err != nil || size <= 32 {
		t.Fatalf("size = %d, err = %v", size, err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := mis.Open(filepath.Join(t.TempDir(), "nope.adj")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestFullPipeline(t *testing.T) {
	f, err := mis.Open(buildToy(t, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	s := mis.NewSolver(f)

	greedy, err := s.Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Size != 4 {
		t.Fatalf("greedy size = %d, want 4", greedy.Size)
	}
	if got := greedy.Vertices(); len(got) != 4 || got[0] != 1 {
		t.Fatalf("vertices = %v", got)
	}
	if greedy.Contains(0) || !greedy.Contains(1) {
		t.Fatal("Contains wrong")
	}

	one, err := s.OneKSwap(ctx, greedy)
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.TwoKSwap(ctx, greedy)
	if err != nil {
		t.Fatal(err)
	}
	if one.Size < greedy.Size || two.Size < greedy.Size {
		t.Fatal("swaps shrank the set")
	}

	bound, err := s.UpperBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bound < uint64(two.Size) {
		t.Fatalf("bound %d below achieved size %d", bound, two.Size)
	}
	if two.Ratio(bound) <= 0 || two.Ratio(bound) > 1 {
		t.Fatalf("ratio = %f", two.Ratio(bound))
	}
	if err := s.VerifyIndependent(ctx, two); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyMaximal(ctx, two); err != nil {
		t.Fatal(err)
	}
}

func TestSolveAllAlgorithms(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plrg.adj")
	if err := mis.GeneratePowerLawFile(path, 3000, 2.0, 9, true); err != nil {
		t.Fatal(err)
	}
	f, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()
	s := mis.NewSolver(f)
	for _, alg := range mis.Algorithms() {
		r, err := s.Solve(ctx, alg)
		if alg == mis.AlgBaseline {
			// On a degree-sorted file the baseline is refused unless the
			// caller opts in explicitly.
			if !errors.Is(err, mis.ErrBaselineOnSorted) {
				t.Fatalf("baseline on sorted file: err = %v, want ErrBaselineOnSorted", err)
			}
			r, err = mis.NewSolver(f, mis.BaselineOnSorted()).Solve(ctx, alg)
		}
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if r.Size == 0 {
			t.Fatalf("%s: empty result", alg)
		}
		if err := s.VerifyIndependent(ctx, r); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := s.VerifyMaximal(ctx, r); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if _, err := s.Solve(ctx, "nonsense"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestSwapNilInitial(t *testing.T) {
	f, err := mis.Open(buildToy(t, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := mis.NewSolver(f)
	if _, err := s.OneKSwap(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil initial")
	}
	if _, err := s.TwoKSwap(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil initial")
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	f, err := mis.Open(buildToy(t, true))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := mis.NewSolver(f).Greedy(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Greedy reads the file once; its two logical passes (marking + fused
	// degree stats) shared that physical scan.
	if f.Stats().PhysicalScans != 1 {
		t.Fatalf("physical scans = %d, want 1", f.Stats().PhysicalScans)
	}
	if f.Stats().Scans != 2 {
		t.Fatalf("logical scans = %d, want 2", f.Stats().Scans)
	}
	f.ResetStats()
	if f.Stats().Scans != 0 || f.Stats().PhysicalScans != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestGeneratePowerLawFileDeterministic(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.adj")
	p2 := filepath.Join(dir, "b.adj")
	if err := mis.GeneratePowerLawFile(p1, 2000, 2.0, 5, true); err != nil {
		t.Fatal(err)
	}
	if err := mis.GeneratePowerLawFile(p2, 2000, 2.0, 5, true); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("same seed produced different files")
	}
}

func TestPowerLawParams(t *testing.T) {
	alpha, maxDeg, v, e := mis.PowerLawParams(100000, 2.0)
	if alpha <= 0 || maxDeg < 1 || v < 90000 || v > 110000 || e <= 0 {
		t.Fatalf("params: alpha=%f maxDeg=%d v=%f e=%f", alpha, maxDeg, v, e)
	}
}

func TestImportAndSort(t *testing.T) {
	dir := t.TempDir()
	edges := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(edges, []byte("0 1\n1 2\n2 3\n3 0\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sorted := filepath.Join(dir, "sorted.adj")
	if err := mis.ImportEdgeList(edges, sorted); err != nil {
		t.Fatal(err)
	}
	f, err := mis.Open(sorted)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 4 || f.NumEdges() != 5 {
		t.Fatalf("import: %d vertices %d edges", f.NumVertices(), f.NumEdges())
	}

	// Round-trip through the external sorter.
	unsorted := filepath.Join(dir, "unsorted.adj")
	b := mis.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	if err := b.WriteFile(unsorted, false); err != nil {
		t.Fatal(err)
	}
	resorted := filepath.Join(dir, "resorted.adj")
	if err := mis.SortFileByDegree(unsorted, resorted, 1024); err != nil {
		t.Fatal(err)
	}
	f2, err := mis.Open(resorted)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if !f2.DegreeSorted() {
		t.Fatal("sort did not mark output degree-sorted")
	}
}

func TestWithBlockSize(t *testing.T) {
	f, err := mis.Open(buildToy(t, true), mis.WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 4 {
		t.Fatalf("tiny block size changed the result: %d", r.Size)
	}
}

func TestResultString(t *testing.T) {
	r := &mis.Result{Size: 3, Rounds: 2, MemoryBytes: 100}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
	if r.Ratio(0) != 0 {
		t.Fatal("Ratio(0) must be 0")
	}
}
