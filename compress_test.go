package mis_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	mis "repro"
)

// TestCompressedPipeline checks that every algorithm produces identical
// results on the compressed and uncompressed encodings of the same graph,
// and that compression actually shrinks the file.
func TestCompressedPipeline(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.adj")
	comp := filepath.Join(dir, "comp.adj")
	if err := mis.GeneratePowerLawFile(raw, 5000, 2.0, 21, true); err != nil {
		t.Fatal(err)
	}
	if err := mis.CompressFile(raw, comp); err != nil {
		t.Fatal(err)
	}

	ri, err := os.Stat(raw)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.Stat(comp)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Size() >= ri.Size() {
		t.Fatalf("compressed %d ≥ raw %d", ci.Size(), ri.Size())
	}

	fr, err := mis.Open(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	fc, err := mis.Open(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if fc.NumEdges() != fr.NumEdges() || fc.NumVertices() != fr.NumVertices() {
		t.Fatal("compression changed the graph")
	}
	if !fc.DegreeSorted() {
		t.Fatal("degree-sorted flag lost in compression")
	}

	ctx := context.Background()
	sr, sc := mis.NewSolver(fr), mis.NewSolver(fc)
	for _, alg := range []mis.Algorithm{mis.AlgGreedy, mis.AlgTwoKSwap, mis.AlgExternalMaximal} {
		a, err := sr.Solve(ctx, alg)
		if err != nil {
			t.Fatalf("%s raw: %v", alg, err)
		}
		b, err := sc.Solve(ctx, alg)
		if err != nil {
			t.Fatalf("%s compressed: %v", alg, err)
		}
		if a.Size != b.Size {
			t.Fatalf("%s: raw %d vs compressed %d", alg, a.Size, b.Size)
		}
		if err := sc.VerifyIndependent(ctx, b); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}

	br, err := sr.UpperBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := sc.UpperBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if br != bc {
		t.Fatalf("bound differs: %d vs %d", br, bc)
	}
}
