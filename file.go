package mis

import (
	"context"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/shard"
)

// File is an open adjacency file: the on-disk graph the semi-external
// algorithms scan. It accumulates I/O statistics across every operation run
// against it.
//
// File runs no algorithm itself: a Solver over it does. File is safe for
// concurrent use: every algorithm run scans through its own view of the file
// (reads are positional) and accounts into its own stat scope, which merges
// atomically into the file's lifetime totals. Any number of solvers may run
// against one File from different goroutines.
type File struct {
	inner   *gio.File  // single adjacency file; nil when sharded
	shards  *shard.Set // shard set (see OpenSharded); nil for single files
	stats   gio.Counters
	workers int // the default scan parallelism (WithWorkers)
}

// OpenOption customizes Open.
type OpenOption func(*openConfig)

type openConfig struct {
	blockSize int
	workers   int
	mmap      bool
}

// WithBlockSize sets the buffered I/O block size (the B of the paper's I/O
// cost formulas). The default is 256 KiB.
func WithBlockSize(b int) OpenOption {
	return func(c *openConfig) { c.blockSize = b }
}

// WithWorkers sets the file's default scan parallelism: the number of
// goroutines that decode partitions of the file concurrently during the
// scan-bound passes (Greedy, the swap algorithms' scans, verification,
// bounds). Results are bit-identical to sequential scans — partitions are
// merged back into scan order — so this is purely a throughput knob. 1 (the
// default) keeps every pass on the single-stream engine; ≤ 0 selects
// GOMAXPROCS. The Workers solver option overrides it per solver.
func WithWorkers(n int) OpenOption {
	return func(c *openConfig) { c.workers = n }
}

// WithMmap backs every scan of the file with a read-only memory mapping
// instead of the prefetching block pipeline: the decoder consumes file bytes
// straight out of the OS page cache, and on little-endian hosts raw
// (uncompressed) files decode with zero copies — neighbor lists alias the
// mapping itself. Records, errors, statistics and cancellation behave
// identically to the default engine; mapped scans still count as physical
// scans, since the paper's I/O cost model charges each pass for reading the
// file regardless of which kernel interface delivers the bytes. On platforms
// without mmap (or under the nommap build tag) the option silently falls
// back to the default engine — MmapActive reports which path is live.
func WithMmap() OpenOption {
	return func(c *openConfig) { c.mmap = true }
}

// Open opens an adjacency file produced by Builder.WriteFile,
// GeneratePowerLawFile, ImportEdgeList or SortFileByDegree.
func Open(path string, opts ...OpenOption) (*File, error) {
	cfg := openConfig{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	f := &File{workers: cfg.workers}
	open := gio.Open
	if cfg.mmap {
		open = gio.OpenMmap
	}
	inner, err := open(path, cfg.blockSize, &f.stats)
	if err != nil {
		return nil, err
	}
	f.inner = inner
	return f, nil
}

// MmapActive reports whether scans of this file run off a live memory
// mapping (see WithMmap): false when the file was opened without the option,
// after the mmap fallback, or once the file is closed. A sharded graph
// reports true only when every shard is mapped.
func (f *File) MmapActive() bool {
	if f.shards != nil {
		return f.shards.MmapActive()
	}
	return f.inner.MmapActive()
}

// Workers returns the file's default scan parallelism.
func (f *File) Workers() int { return f.workers }

// runSource returns the scan engine for one algorithm run: a view of the
// file accounting into a fresh per-run stat scope (whose every addition also
// lands in the file's lifetime totals), wrapped in the parallel partitioned
// executor when the effective worker count exceeds 1. Each run owning its
// scope and view is what makes concurrent runs on one File race-free.
// workers == 0 selects the file's default; 1 is sequential; ≤ -1 selects
// GOMAXPROCS.
func (f *File) runSource(workers int) core.Source {
	if workers == 0 {
		workers = f.Workers()
	}
	if f.shards != nil {
		return f.shards.Source(f.stats.Scope(), workers)
	}
	view := f.inner.WithCounters(f.stats.Scope())
	if workers == 1 {
		return view
	}
	return exec.New(view, workers)
}

// Close closes the file.
func (f *File) Close() error {
	if f.shards != nil {
		return f.shards.Close()
	}
	return f.inner.Close()
}

// Path returns the file's path — the manifest file's path for a sharded
// graph.
func (f *File) Path() string {
	if f.shards != nil {
		return f.shards.Path()
	}
	return f.inner.Path()
}

// NumVertices returns the number of vertices.
func (f *File) NumVertices() int {
	if f.shards != nil {
		return f.shards.NumVertices()
	}
	return f.inner.NumVertices()
}

// NumEdges returns the number of undirected edges.
func (f *File) NumEdges() uint64 {
	if f.shards != nil {
		return f.shards.NumEdges()
	}
	return f.inner.NumEdges()
}

// AvgDegree returns the average degree.
func (f *File) AvgDegree() float64 {
	n := f.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(f.NumEdges()) / float64(n)
}

// DegreeSorted reports whether the file's records are in ascending-degree
// scan order (the Greedy preprocessing).
func (f *File) DegreeSorted() bool {
	if f.shards != nil {
		return f.shards.DegreeSorted()
	}
	return f.inner.Header().DegreeSorted()
}

// SizeBytes returns the on-disk size — for a sharded graph, the summed size
// of the shard files.
func (f *File) SizeBytes() (int64, error) {
	if f.shards != nil {
		return f.shards.TotalBytes(), nil
	}
	return f.inner.SizeBytes()
}

// ContentDigest returns the SHA-256 of the file's on-disk contents as
// lowercase hex — the cache key component that names exactly this graph.
// It is computed lazily on the first call (one positional read pass that
// leaves in-flight scans undisturbed) and cached for the lifetime of the
// open file; reopening the path — or a journal compaction flipping to a new
// base generation, which opens a fresh file — starts from an empty cache,
// so a digest never outlives the bytes it names. ctx cancels the
// computation between blocks; failures are not cached. For a sharded graph
// this is the combined digest over the ordered per-shard content digests —
// the same cache-key role, derived from every shard's exact bytes.
func (f *File) ContentDigest(ctx context.Context) (string, error) {
	if f.shards != nil {
		return f.shards.CombinedDigest(ctx)
	}
	return f.inner.ContentDigest(ctx)
}

// Stats returns the accumulated I/O statistics for all operations on f.
func (f *File) Stats() IOStats { return IOStats(f.stats.Snapshot()) }

// ResetStats zeroes the accumulated I/O statistics.
func (f *File) ResetStats() { f.stats.Reset() }
