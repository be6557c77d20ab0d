package mis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/shard"
)

// ShardManifestName is the file name that marks a directory as a sharded
// graph (see OpenSharded). It is exported so tools and tests can build paths
// without importing internal packages.
const ShardManifestName = shard.ManifestName

// ErrSharded is the sentinel wrapped by every "this needs a single mutable
// adjacency file" failure on a sharded graph: maintainers and journals
// rewrite the file in place, which a read-only shard set cannot support.
var ErrSharded = errors.New("mis: graph is sharded")

// IsShardManifest reports whether path names a sharded graph: the manifest
// file itself, or a directory containing one.
func IsShardManifest(path string) bool { return shard.IsManifestPath(path) }

// OpenSharded opens a sharded graph — a MANIFEST.shards plus its shard files,
// typically produced by missplit or misconvert -shards — as a File. path may
// be the manifest file or its directory. The returned File behaves like a
// single-file open of the merged graph: every algorithm, worker count and
// statistic matches, scans stream the shards in manifest order (in parallel
// across shards when workers > 1), and ContentDigest returns a combined
// digest so result caching keys on the shard set's exact contents. Only the
// mutation surface differs: NewMaintainer and journals refuse sharded graphs
// (see ErrSharded).
//
// WithBlockSize and WithWorkers apply as for Open; WithMmap maps every shard.
func OpenSharded(path string, opts ...OpenOption) (*File, error) {
	cfg := openConfig{workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	set, err := shard.Open(path, shard.Options{BlockSize: cfg.blockSize, Mmap: cfg.mmap})
	if err != nil {
		return nil, err
	}
	return &File{shards: set, workers: cfg.workers}, nil
}

// OpenGraph opens path as whatever kind of graph it is: a sharded graph when
// IsShardManifest(path) (manifest file or directory), a plain adjacency file
// otherwise. Journal directories are not handled here — use OpenJournal or a
// Registry for those.
func OpenGraph(path string, opts ...OpenOption) (*File, error) {
	if IsShardManifest(path) {
		return OpenSharded(path, opts...)
	}
	return Open(path, opts...)
}

// Sharded reports whether f is backed by a shard set rather than a single
// adjacency file.
func (f *File) Sharded() bool { return f.shards != nil }

// NumShards returns the number of shard files backing f, or 0 for a
// single-file graph.
func (f *File) NumShards() int {
	if f.shards == nil {
		return 0
	}
	return f.shards.NumShards()
}

// ShardDigests returns each shard file's SHA-256 content digest in manifest
// order, verifying them against the digests recorded at split time. On a
// single-file graph it returns nil, nil.
func (f *File) ShardDigests(ctx context.Context) ([]string, error) {
	if f.shards == nil {
		return nil, nil
	}
	return f.shards.ShardDigests(ctx)
}

// shardedErr builds the typed refusal for an operation that needs a single
// mutable adjacency file.
func shardedErr(op string) error {
	return fmt.Errorf("%w: %s needs a single adjacency file, not a shard set", ErrSharded, op)
}
