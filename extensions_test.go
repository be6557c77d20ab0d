package mis_test

import (
	"context"
	"path/filepath"
	"testing"

	mis "repro"
)

func plrgFile(t *testing.T, n int, beta float64, seed int64) *mis.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.adj")
	if err := mis.GeneratePowerLawFile(path, n, beta, seed, true); err != nil {
		t.Fatal(err)
	}
	f, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRandomizedMaximalFacade(t *testing.T) {
	f := plrgFile(t, 2000, 2.0, 4)
	ctx := context.Background()
	s := mis.NewSolver(f)
	r, err := s.RandomizedMaximal(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyIndependent(ctx, r); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyMaximal(ctx, r); err != nil {
		t.Fatal(err)
	}
	if r.Rounds == 0 {
		t.Fatal("rounds not reported")
	}
}

func TestWeiBoundFacade(t *testing.T) {
	f := plrgFile(t, 2000, 2.0, 4)
	ctx := context.Background()
	s := mis.NewSolver(f)
	wb, err := s.WeiBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := s.Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if float64(greedy.Size) < wb {
		t.Fatalf("greedy %d below Wei bound %f", greedy.Size, wb)
	}
	bound, err := s.UpperBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wb > float64(bound) {
		t.Fatalf("Wei lower bound %f above Algorithm 5 upper bound %d", wb, bound)
	}
}

func TestVertexCoverFacade(t *testing.T) {
	f := plrgFile(t, 1500, 2.2, 5)
	ctx := context.Background()
	s := mis.NewSolver(f)
	greedy, err := s.Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cover := greedy.VertexCover()
	if err := s.VerifyVertexCover(ctx, cover); err != nil {
		t.Fatal(err)
	}
	inCover := 0
	for _, c := range cover {
		if c {
			inCover++
		}
	}
	if inCover+greedy.Size != f.NumVertices() {
		t.Fatal("cover and set must partition the vertices")
	}
}

func TestColoringFacade(t *testing.T) {
	f := plrgFile(t, 1500, 2.0, 6)
	ctx := context.Background()
	s := mis.NewSolver(f)
	col, err := s.ColorByIS(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyColoring(ctx, col); err != nil {
		t.Fatal(err)
	}
	if col.NumColors < 2 {
		t.Fatalf("power-law graph colored with %d colors", col.NumColors)
	}
	if len(col.ClassSizes) != col.NumColors {
		t.Fatal("class size bookkeeping wrong")
	}
	// Classes shrink (weakly) because each is a maximal IS of the residual.
	for i := 1; i < len(col.ClassSizes); i++ {
		if col.ClassSizes[i] > col.ClassSizes[0] {
			t.Fatalf("class %d larger than the first greedy class", i)
		}
	}
}

func TestMaintainerFacade(t *testing.T) {
	f := plrgFile(t, 1000, 2.0, 7)
	ctx := context.Background()
	greedy, err := mis.NewSolver(f).Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mis.NewMaintainer(f, greedy)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != greedy.Size {
		t.Fatal("maintainer did not adopt the seed size")
	}
	// Insert an edge between two members: one must be evicted.
	members := greedy.Vertices()
	if err := m.InsertEdge(members[0], members[1]); err != nil {
		t.Fatal(err)
	}
	if m.Size() != greedy.Size-1 || m.Evictions() != 1 {
		t.Fatalf("eviction bookkeeping wrong: size=%d evictions=%d", m.Size(), m.Evictions())
	}
	if _, err := m.Repair(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	snap := m.Result()
	if snap.Size != m.Size() {
		t.Fatal("snapshot size mismatch")
	}
	// Materialize and re-open.
	path := filepath.Join(t.TempDir(), "mat.adj")
	if err := m.Materialize(ctx, path); err != nil {
		t.Fatal(err)
	}
	mf, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if err := mis.NewSolver(mf).VerifyIndependent(ctx, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := mis.NewMaintainer(f, nil); err == nil {
		t.Fatal("nil seed accepted")
	}
}
