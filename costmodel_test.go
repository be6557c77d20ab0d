package mis_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	mis "repro"
	"repro/internal/gio"
	"repro/internal/shard"
)

// TestCostModelEveryEngine checks the paper's I/O cost model on every scan
// engine: a run reads exactly its physical scans times one full scan's
// blocks, where a full scan reads ⌈(PayloadEnd − HeaderSize)/B⌉ blocks of
// each file it covers. On the single raw file that per-scan figure is the
// model's ⌈8·(|V|+|E|)/B⌉ itself; a shard set pays one ceiling per shard.
// Engines: the pipelined and the mapped single file and a 3-shard set, each
// at 1 and 4 workers, for Greedy, one-k-swap and two-k-swap.
func TestCostModelEveryEngine(t *testing.T) {
	const blockSize = 4096
	dir := t.TempDir()
	single := filepath.Join(dir, "graph.adj")
	if err := mis.GeneratePowerLawFile(single, 20000, 2.0, 5, true); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "sharded")
	man, err := shard.SplitFile(context.Background(), single, shardDir, shard.SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// scanBlocks is one full scan's block count over the given files.
	scanBlocks := func(paths ...string) uint64 {
		var sum uint64
		for _, p := range paths {
			f, err := gio.Open(p, blockSize, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum += uint64((f.PayloadEnd() - gio.HeaderSize + blockSize - 1) / blockSize)
			f.Close()
		}
		return sum
	}
	fileScan := scanBlocks(single)
	ref, err := mis.Open(single)
	if err != nil {
		t.Fatal(err)
	}
	model := gio.ModelBlocks(ref.NumVertices(), ref.NumEdges(), blockSize)
	ref.Close()
	if fileScan != model {
		t.Fatalf("single raw file: a full scan covers %d blocks, the model says %d", fileScan, model)
	}
	var shardPaths []string
	for _, e := range man.Shards {
		shardPaths = append(shardPaths, filepath.Join(shardDir, filepath.FromSlash(e.Path)))
	}
	setScan := scanBlocks(shardPaths...)
	t.Logf("a full scan reads %d blocks of the single file (model %d), %d of the shard set", fileScan, model, setScan)

	engines := []struct {
		name string
		scan uint64
		open func(opts ...mis.OpenOption) (*mis.File, error)
	}{
		{"open", fileScan, func(o ...mis.OpenOption) (*mis.File, error) { return mis.Open(single, o...) }},
		{"mmap", fileScan, func(o ...mis.OpenOption) (*mis.File, error) { return mis.Open(single, append(o, mis.WithMmap())...) }},
		{"shards", setScan, func(o ...mis.OpenOption) (*mis.File, error) { return mis.OpenSharded(shardDir, o...) }},
	}
	ctx := context.Background()
	for _, eng := range engines {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", eng.name, workers), func(t *testing.T) {
				f, err := eng.open(mis.WithBlockSize(blockSize), mis.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				s := mis.NewSolver(f)
				greedy, err := s.Greedy(ctx)
				if err != nil {
					t.Fatal(err)
				}
				one, err := s.OneKSwap(ctx, greedy)
				if err != nil {
					t.Fatal(err)
				}
				two, err := s.TwoKSwap(ctx, greedy)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []struct {
					alg string
					io  mis.IOStats
				}{{"greedy", greedy.IO}, {"one-k-swap", one.IO}, {"two-k-swap", two.IO}} {
					if r.io.PhysicalScans == 0 {
						t.Fatalf("%s: no physical scan", r.alg)
					}
					if want := uint64(r.io.PhysicalScans) * eng.scan; r.io.BlocksRead != want {
						t.Errorf("%s: read %d blocks in %d physical scans, want %d × %d = %d",
							r.alg, r.io.BlocksRead, r.io.PhysicalScans, r.io.PhysicalScans, eng.scan, want)
					}
				}
			})
		}
	}
}
