package gio_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/shard"
)

// writeRawGraph writes a raw (uncompressed, unsorted) file of one record per
// vertex, neighbors stored verbatim — the writer does not range-check them.
func writeRawGraph(t *testing.T, path string, adj [][]uint32) {
	t.Helper()
	w, err := gio.NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, nbrs := range adj {
		if err := w.Append(uint32(v), nbrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRawOutOfRangeNeighbor: a 3-vertex raw file whose vertex 1 lists
// neighbor 7 is rejected by every raw engine with the varint decoder's
// error, naming that value — never delivered to an algorithm, which would
// index its per-vertex arrays with it.
func TestRawOutOfRangeNeighbor(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.adj")
	writeRawGraph(t, bad, [][]uint32{{1}, {0, 7}, {}})

	// A shard set whose middle shard holds vertex 1's record, patched in
	// place (same size, so the manifest still matches) to list neighbor 7.
	good := filepath.Join(dir, "good.adj")
	writeRawGraph(t, good, [][]uint32{{1}, {0, 2}, {1}})
	shardDir := filepath.Join(dir, "shards")
	man, err := shard.SplitFile(context.Background(), good, shardDir, shard.SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	mid := filepath.Join(shardDir, filepath.FromSlash(man.Shards[1].Path))
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[gio.HeaderSize+8+4] = 7 // vertex 1's second neighbor, little-endian
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	open := func(mmap, zeroCopy bool) *gio.File {
		t.Helper()
		var f *gio.File
		var err error
		if mmap {
			f, err = gio.OpenMmap(bad, 0, nil)
		} else {
			f, err = gio.Open(bad, 0, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if mmap {
			f.SetMmapZeroCopy(zeroCopy)
		}
		return f
	}
	discard := func([]gio.Record) error { return nil }
	engines := map[string]func() error{
		"open": func() error { return open(false, false).ForEachBatchCtx(context.Background(), discard) },
		"bytewise": func() error {
			return open(false, false).ForEachBytewise(func(gio.Record) error { return nil })
		},
		"mmap":           func() error { return open(true, false).ForEachBatchCtx(context.Background(), discard) },
		"mmap-zerocopy":  func() error { return open(true, true).ForEachBatchCtx(context.Background(), discard) },
		"exec-workers-2": func() error { return exec.New(open(false, false), 2).ForEachBatchCtx(context.Background(), discard) },
		"exec-mmap-zerocopy-workers-2": func() error {
			return exec.New(open(true, true), 2).ForEachBatchCtx(context.Background(), discard)
		},
		"shard": func() error {
			set, err := shard.Open(shardDir, shard.Options{})
			if err != nil {
				return err
			}
			defer set.Close()
			return set.Source(nil, 2).ForEachBatchCtx(context.Background(), discard)
		},
	}
	for name, scan := range engines {
		err := scan()
		if !errors.Is(err, gio.ErrBadFormat) || !strings.Contains(err.Error(), "vertex 1 has out-of-range neighbor 7") {
			t.Errorf("%s: err = %v, want ErrBadFormat naming vertex 1's neighbor 7", name, err)
		}
	}
}
