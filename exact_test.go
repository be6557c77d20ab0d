package mis_test

import (
	"context"
	"path/filepath"
	"testing"

	mis "repro"
)

func TestExactFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c5.adj")
	b := mis.NewBuilder(5)
	for i := uint32(0); i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
	}
	if err := b.WriteFile(path, true); err != nil {
		t.Fatal(err)
	}
	f, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	exact, err := mis.Exact(f)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Size != 2 {
		t.Fatalf("C5 independence number = %d, want 2", exact.Size)
	}
	ctx := context.Background()
	s := mis.NewSolver(f)
	if err := s.VerifyIndependent(ctx, exact); err != nil {
		t.Fatal(err)
	}

	// Greedy can't beat exact, and the bound can't be below it.
	greedy, err := s.Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Size > exact.Size {
		t.Fatalf("greedy %d beats exact %d", greedy.Size, exact.Size)
	}
	bound, err := s.UpperBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(exact.Size) > bound {
		t.Fatalf("exact %d above bound %d", exact.Size, bound)
	}
}

func TestExactFacadeRejectsLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.adj")
	if err := mis.GeneratePowerLawFile(path, 1000, 2.0, 1, true); err != nil {
		t.Fatal(err)
	}
	f, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := mis.Exact(f); err == nil {
		t.Fatal("exact accepted a 1000-vertex graph")
	}
}
