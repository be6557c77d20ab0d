package mis_test

import (
	"context"
	"path/filepath"
	"testing"

	mis "repro"
)

// TestWithMmapEndToEnd runs the full algorithm suite on a WithMmap file and
// checks the results and I/O accounting against the default engine: the
// mmap path is purely an I/O-engine swap, invisible to the algorithms.
func TestWithMmapEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mmap.adj")
	if err := mis.GeneratePowerLawFile(path, 3000, 2.0, 11, true); err != nil {
		t.Fatal(err)
	}

	run := func(opts ...mis.OpenOption) (greedySize int, stats mis.IOStats) {
		f, err := mis.Open(path, opts...)
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
		improved, err := s.TwoKSwap(ctx, greedy)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(ctx, improved); err != nil {
			t.Fatal(err)
		}
		return greedy.Size, f.Stats()
	}

	plainSize, plainStats := run()
	mmapSize, mmapStats := run(mis.WithMmap())
	if mmapSize != plainSize {
		t.Fatalf("greedy size %d with mmap, %d without", mmapSize, plainSize)
	}
	if mmapStats != plainStats {
		t.Fatalf("stats differ:\n mmap    %+v\n default %+v", mmapStats, plainStats)
	}
}

// TestWithMmapParallelWorkers: the mapped engine under the parallel
// executor, end to end through the public API.
func TestWithMmapParallelWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mmap-par.adj")
	if err := mis.GeneratePowerLawFile(path, 4000, 2.0, 13, true); err != nil {
		t.Fatal(err)
	}
	ref, err := mis.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := mis.NewSolver(ref).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	f, err := mis.Open(path, mis.WithMmap(), mis.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size {
		t.Fatalf("greedy size %d with mmap+workers, %d sequential", got.Size, want.Size)
	}
	if err := mis.NewSolver(f).Verify(context.Background(), got); err != nil {
		t.Fatal(err)
	}
}
