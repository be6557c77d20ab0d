package mis_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	mis "repro"
	"repro/internal/shard"
)

// buildShardedGraph generates a power-law graph, splits it into shards, and
// returns the single-file path and the shard directory.
func buildShardedGraph(t *testing.T, n, shards int, sorted bool) (string, string) {
	t.Helper()
	dir := t.TempDir()
	single := filepath.Join(dir, "graph.adj")
	if err := mis.GeneratePowerLawFile(single, n, 2.0, 7, sorted); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "sharded")
	if _, err := shard.SplitFile(context.Background(), single, shardDir, shard.SplitOptions{Shards: shards}); err != nil {
		t.Fatal(err)
	}
	return single, shardDir
}

// scrubIO zeroes the byte- and block-level counters, which legitimately
// differ between a single file and a shard set (each shard pays its own
// header, footer, and final partial block). Scan counts and record counts
// must match exactly.
func scrubIO(s mis.IOStats) mis.IOStats {
	s.BytesRead, s.BytesWritten, s.BlocksRead, s.BlocksWritten = 0, 0, 0, 0
	return s
}

// scrubResult returns a copy of r with byte-level I/O zeroed, leaving every
// other field — the set itself, sizes, rounds, gains, degree stats, memory
// and all scan counts — for exact comparison.
func scrubResult(r *mis.Result) *mis.Result {
	cp := *r
	cp.IO = scrubIO(cp.IO)
	cp.RoundIO = append([]mis.IOStats(nil), r.RoundIO...)
	for i := range cp.RoundIO {
		cp.RoundIO[i] = scrubIO(cp.RoundIO[i])
	}
	return &cp
}

// TestShardedParityAllAlgorithms is the tentpole acceptance test: every
// algorithm run through a ≥3-shard manifest returns results byte-identical
// to the merged single file, with equal scan counts (the fused-pass physical
// scan counts included), at every worker count. RandomizedMaximal, which
// takes a seed and so is not a registry Algorithm, rides along.
func TestShardedParityAllAlgorithms(t *testing.T) {
	single, shardDir := buildShardedGraph(t, 600, 3, true)

	type solve func(*mis.Solver) (*mis.Result, error)
	algs := map[string]solve{
		"randomized": func(s *mis.Solver) (*mis.Result, error) {
			return s.RandomizedMaximal(context.Background(), 7)
		},
	}
	for _, alg := range mis.Algorithms() {
		algs[string(alg)] = func(s *mis.Solver) (*mis.Result, error) {
			return s.Solve(context.Background(), alg)
		}
	}

	ref, err := mis.Open(single)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := map[string]*mis.Result{}
	for alg, run := range algs {
		r, err := run(mis.NewSolver(ref, mis.BaselineOnSorted()))
		if err != nil {
			t.Fatalf("%s on single file: %v", alg, err)
		}
		want[alg] = r
	}

	for _, workers := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f, err := mis.OpenSharded(shardDir, mis.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if !f.Sharded() || f.NumShards() != 3 {
				t.Fatalf("Sharded=%v NumShards=%d, want true/3", f.Sharded(), f.NumShards())
			}
			for alg, run := range algs {
				got, err := run(mis.NewSolver(f, mis.BaselineOnSorted()))
				if err != nil {
					t.Fatalf("%s sharded: %v", alg, err)
				}
				w := want[alg]
				if got.Size != w.Size || !reflect.DeepEqual(got.InSet, w.InSet) {
					t.Errorf("%s: sharded set (size %d) differs from single-file set (size %d)", alg, got.Size, w.Size)
				}
				if !reflect.DeepEqual(scrubResult(got), scrubResult(w)) {
					t.Errorf("%s: sharded result differs from single file\n got %+v\nwant %+v", alg, scrubResult(got), scrubResult(w))
				}
				if got.IO.PhysicalScans != w.IO.PhysicalScans {
					t.Errorf("%s: sharded run paid %d physical scans, single fused path pays %d", alg, got.IO.PhysicalScans, w.IO.PhysicalScans)
				}
				if err := mis.NewSolver(f).Verify(context.Background(), got); err != nil {
					t.Errorf("%s: sharded result fails verification: %v", alg, err)
				}
			}
		})
	}
}

// TestShardedStatsWorkerInvariance: a sharded run's full I/O statistics —
// bytes and blocks included — are identical at every worker count.
func TestShardedStatsWorkerInvariance(t *testing.T) {
	_, shardDir := buildShardedGraph(t, 500, 3, true)
	var want mis.IOStats
	for i, workers := range []int{1, 2, 4, 7} {
		f, err := mis.OpenSharded(shardDir, mis.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		r, err := mis.NewSolver(f).Greedy(context.Background())
		if err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		if i == 0 {
			want = r.IO
			continue
		}
		if !reflect.DeepEqual(r.IO, want) {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", workers, r.IO, want)
		}
	}
}

func TestShardedMetadata(t *testing.T) {
	single, shardDir := buildShardedGraph(t, 300, 3, true)
	ref, err := mis.Open(single)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	f, err := mis.OpenSharded(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != ref.NumVertices() || f.NumEdges() != ref.NumEdges() {
		t.Errorf("sharded metadata %d/%d, single %d/%d",
			f.NumVertices(), f.NumEdges(), ref.NumVertices(), ref.NumEdges())
	}
	if !f.DegreeSorted() {
		t.Error("degree-sorted flag lost")
	}
	if f.Path() != filepath.Join(shardDir, mis.ShardManifestName) {
		t.Errorf("path = %q", f.Path())
	}
	size, err := f.SizeBytes()
	if err != nil || size <= 0 {
		t.Errorf("size = %d, err = %v", size, err)
	}
	digests, err := f.ShardDigests(context.Background())
	if err != nil || len(digests) != 3 {
		t.Fatalf("shard digests = %v, err = %v", digests, err)
	}
	d1, err := f.ContentDigest(context.Background())
	if err != nil || d1 == "" {
		t.Fatalf("combined digest = %q, err = %v", d1, err)
	}
	// Reopen: the combined digest is a stable identity for the shard set.
	f2, err := mis.OpenSharded(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if d2, err := f2.ContentDigest(context.Background()); err != nil || d2 != d1 {
		t.Errorf("combined digest changed across opens: %q vs %q (err %v)", d1, d2, err)
	}
	// Single files report no shards.
	if ref.Sharded() || ref.NumShards() != 0 {
		t.Error("single file claims to be sharded")
	}
	if ds, err := ref.ShardDigests(context.Background()); err != nil || ds != nil {
		t.Errorf("single-file shard digests = %v, err = %v", ds, err)
	}
}

func TestOpenGraphDispatch(t *testing.T) {
	single, shardDir := buildShardedGraph(t, 100, 3, true)
	for _, path := range []string{shardDir, filepath.Join(shardDir, mis.ShardManifestName)} {
		f, err := mis.OpenGraph(path)
		if err != nil {
			t.Fatalf("OpenGraph(%q): %v", path, err)
		}
		if !f.Sharded() {
			t.Errorf("OpenGraph(%q) did not open sharded", path)
		}
		f.Close()
	}
	f, err := mis.OpenGraph(single)
	if err != nil {
		t.Fatal(err)
	}
	if f.Sharded() {
		t.Error("OpenGraph on .adj opened sharded")
	}
	f.Close()
	if mis.IsShardManifest(single) {
		t.Error("IsShardManifest true for plain .adj")
	}
}

func TestShardedMaintainerRefused(t *testing.T) {
	_, shardDir := buildShardedGraph(t, 100, 3, true)
	f, err := mis.OpenSharded(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mis.NewMaintainer(f, r); !errors.Is(err, mis.ErrSharded) {
		t.Fatalf("maintainer on sharded graph: err = %v, want ErrSharded", err)
	}
}

func TestShardedExact(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "small.adj")
	b := mis.NewBuilder(12)
	for i := 0; i < 11; i++ {
		b.AddEdge(uint32(i), uint32(i+1))
	}
	if err := b.WriteFile(single, true); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "sharded")
	if _, err := shard.SplitFile(context.Background(), single, shardDir, shard.SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	ref, err := mis.Open(single)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	f, err := mis.OpenSharded(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := mis.Exact(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mis.Exact(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != want.Size {
		t.Errorf("sharded exact size %d, single %d", got.Size, want.Size)
	}
}

func TestShardedMmapParity(t *testing.T) {
	single, shardDir := buildShardedGraph(t, 400, 3, true)
	ref, err := mis.Open(single)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := mis.NewSolver(ref).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f, err := mis.OpenSharded(shardDir, mis.WithMmap(), mis.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.InSet, want.InSet) {
		t.Error("mmap sharded greedy differs from single file")
	}
}

func TestShardedRegistry(t *testing.T) {
	single, shardDir := buildShardedGraph(t, 200, 3, true)
	// Lay out a data dir: one plain file, one shard directory.
	dir := filepath.Dir(single)
	graphs, err := mis.DiscoverGraphs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if graphs["graph"] != single {
		t.Errorf("discovery missed plain file: %v", graphs)
	}
	if graphs["sharded"] != shardDir {
		t.Fatalf("discovery missed shard directory: %v", graphs)
	}
	reg, err := mis.OpenRegistry(context.Background(), graphs, mis.RegistryWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	e, ok := reg.Get("sharded")
	if !ok {
		t.Fatal("sharded graph not registered")
	}
	f, release := e.Acquire()
	defer release()
	if !f.Sharded() {
		t.Fatal("registry entry is not sharded")
	}
	s := mis.NewSolver(f)
	r, err := s.Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}
