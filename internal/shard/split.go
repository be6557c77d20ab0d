package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gio"
)

// SplitOptions configures SplitFile. Exactly one of Shards and TargetBytes
// must be positive.
type SplitOptions struct {
	// Shards splits into exactly this many shards with near-equal record
	// counts (shard i holds records [i·n/N, (i+1)·n/N)).
	Shards int
	// TargetBytes starts a new shard whenever the current one's payload has
	// reached this many bytes. Every shard holds at least one record; the
	// final shard takes the remainder.
	TargetBytes int64
	// BlockSize is the write-side buffer size (≤ 0 selects the default).
	BlockSize int
	// Prefix names the shard files "<prefix>-00000.adj"; default "shard".
	Prefix string
}

// SplitFile splits the adjacency file at src into vertex-range shards in
// dir, writing shard files plus an atomically committed MANIFEST.shards, and
// returns the manifest. Each shard is a valid adjacency file in its own
// right: its header keeps the global vertex count (so global IDs validate on
// a bare open) and its footer records the shard's actual record count and
// partition cut table. Each finished shard is re-opened for verification
// — header, footer, plan — and digested; digests, sizes, ranges and cut
// tables all land in the manifest, which is written last, fsynced, so a
// crash mid-split leaves no manifest rather than a wrong one.
func SplitFile(ctx context.Context, src, dir string, o SplitOptions) (*Manifest, error) {
	if (o.Shards > 0) == (o.TargetBytes > 0) {
		return nil, fmt.Errorf("shard: exactly one of Shards and TargetBytes must be set")
	}
	f, err := gio.Open(src, o.BlockSize, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	n := f.NumRecords()
	if n == 0 {
		return nil, fmt.Errorf("shard: %s is empty, nothing to split", src)
	}
	if o.Shards > 0 && uint64(o.Shards) > n {
		return nil, fmt.Errorf("shard: cannot split %d records into %d shards", n, o.Shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	prefix := o.Prefix
	if prefix == "" {
		prefix = "shard"
	}
	h := f.Header()
	man := &Manifest{
		Version:  ManifestVersion,
		Vertices: h.Vertices,
		Edges:    h.Edges,
		Flags:    h.Flags,
	}

	sw := &splitWriter{
		ctx:       ctx,
		dir:       dir,
		prefix:    prefix,
		flags:     h.Flags,
		vertices:  h.Vertices,
		blockSize: o.BlockSize,
		man:       man,
		total:     n,
		shards:    o.Shards,
		target:    o.TargetBytes,
	}
	err = f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
		for _, r := range batch {
			if err := sw.append(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		sw.abort()
		return nil, err
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if err := WriteManifest(filepath.Join(dir, ManifestName), man); err != nil {
		return nil, err
	}
	return man, nil
}

// splitWriter streams records into rolling shard files.
type splitWriter struct {
	ctx       context.Context
	dir       string
	prefix    string
	flags     uint32
	vertices  uint64
	blockSize int
	man       *Manifest
	total     uint64
	shards    int   // records mode: split into this many shards
	target    int64 // bytes mode: roll at this payload size

	w       *gio.Writer
	path    string
	written uint64 // records written into finished shards
	cur     uint64 // records written into the current shard
}

// boundary returns the global record index at which the current shard ends
// (records mode only).
func (sw *splitWriter) boundary() uint64 {
	i := len(sw.man.Shards) + 1
	return sw.total * uint64(i) / uint64(sw.shards)
}

func (sw *splitWriter) append(r gio.Record) error {
	if sw.w != nil && sw.rollDue() {
		if err := sw.closeShard(); err != nil {
			return err
		}
	}
	if sw.w == nil {
		sw.path = filepath.Join(sw.dir, fmt.Sprintf("%s-%05d.adj", sw.prefix, len(sw.man.Shards)))
		w, err := gio.NewWriter(sw.path, sw.flags, sw.blockSize, nil)
		if err != nil {
			return err
		}
		w.SetVertexCount(sw.vertices)
		sw.w = w
		sw.cur = 0
	}
	if err := sw.w.Append(r.ID, r.Neighbors); err != nil {
		return err
	}
	sw.cur++
	return nil
}

// rollDue reports whether the next record belongs to a new shard.
func (sw *splitWriter) rollDue() bool {
	if sw.cur == 0 {
		return false // every shard takes at least one record
	}
	if sw.shards > 0 {
		return sw.written+sw.cur >= sw.boundary() && len(sw.man.Shards)+1 < sw.shards
	}
	return sw.w.PayloadBytes() >= sw.target
}

// closeShard seals the current shard file, fsyncs it, re-opens it for
// verification and records its manifest entry.
func (sw *splitWriter) closeShard() error {
	w, path := sw.w, sw.path
	sw.w = nil
	if err := w.Close(); err != nil {
		return err
	}
	if err := syncFile(path); err != nil {
		return err
	}
	lo := sw.written
	entry, err := shardEntry(sw.ctx, sw.dir, path, lo, sw.cur, sw.flags)
	if err != nil {
		return err
	}
	sw.man.Shards = append(sw.man.Shards, *entry)
	sw.written += sw.cur
	sw.cur = 0
	return nil
}

func (sw *splitWriter) finish() error {
	if sw.w != nil {
		if err := sw.closeShard(); err != nil {
			return err
		}
	}
	return gio.SyncDir(sw.dir)
}

// abort closes and best-effort removes the in-progress shard file; finished
// shards are left behind (harmless without a manifest).
func (sw *splitWriter) abort() {
	if sw.w != nil {
		sw.w.Close()
		os.Remove(sw.path)
		sw.w = nil
	}
}

// shardEntry re-opens a finished shard file, verifies the shape the opener
// will later rely on, and builds its manifest entry — range, size, digest
// and the footer's partition cut table.
func shardEntry(ctx context.Context, dir, path string, lo, records uint64, flags uint32) (*ShardEntry, error) {
	f, err := gio.Open(path, 0, nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !f.HasFooter() || f.NumRecords() != records {
		return nil, fmt.Errorf("shard: %s: wrote %d records, file reports %d (footer=%v)", path, records, f.NumRecords(), f.HasFooter())
	}
	size, err := f.SizeBytes()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	digest, err := f.ContentDigest(ctx)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		rel = filepath.Base(path)
	}
	entry := &ShardEntry{
		Path:    filepath.ToSlash(rel),
		Lo:      lo,
		Hi:      lo + records,
		Records: records,
		Bytes:   size,
		Format:  formatName(flags),
		Digest:  digest,
	}
	if recs, offs, ok := f.PartitionPlan(); ok {
		entry.Cuts = &CutTable{Records: recs, Offsets: offs}
	}
	return entry, nil
}

func formatName(flags uint32) string {
	if flags&gio.FlagCompressed != 0 {
		return FormatCompressed
	}
	return FormatRaw
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// StreamDigest hashes the canonical decoded record stream of one full scan
// of src: for every record in scan order, its ID, degree and neighbor IDs as
// little-endian uint32s. Two sources produce equal StreamDigests iff they
// deliver identical record streams, regardless of on-disk layout — the
// missplit -verify check that a shard set re-merges to exactly the original
// file's records.
func StreamDigest(src core.Source) (string, error) {
	h := sha256.New()
	var buf []byte
	err := src.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
		for i := range batch {
			r := &batch[i]
			buf = buf[:0]
			buf = binary.LittleEndian.AppendUint32(buf, r.ID)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Neighbors)))
			for _, nb := range r.Neighbors {
				buf = binary.LittleEndian.AppendUint32(buf, nb)
			}
			h.Write(buf)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
