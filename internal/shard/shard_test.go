package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/gio"
)

// testNeighbors returns a deterministic ascending neighbor list for vertex i
// of an n-vertex graph.
func testNeighbors(i, n int) []uint32 {
	deg := (i*7)%5 + 1
	seen := make(map[uint32]bool)
	var out []uint32
	for j := 0; len(out) < deg && j < 4*deg; j++ {
		v := uint32((i*13 + j*29 + 3) % n)
		if int(v) == i || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// writeTestGraph writes an n-vertex adjacency file and returns its path.
func writeTestGraph(t *testing.T, dir string, n int, flags uint32) string {
	t.Helper()
	path := filepath.Join(dir, "graph.adj")
	w, err := gio.NewWriter(path, flags, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(uint32(i), testNeighbors(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := gio.Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := StreamDigest(f)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSplitRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags uint32
	}{
		{"raw", 0},
		{"compressed", gio.FlagCompressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := writeTestGraph(t, dir, 100, tc.flags)
			shardDir := filepath.Join(dir, "shards")
			man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Shards) != 3 {
				t.Fatalf("got %d shards, want 3", len(man.Shards))
			}
			if man.Vertices != 100 {
				t.Fatalf("manifest vertices = %d, want 100", man.Vertices)
			}
			for i, e := range man.Shards {
				if e.Digest == "" {
					t.Errorf("shard %d has no digest", i)
				}
				if e.Cuts == nil {
					t.Errorf("shard %d has no persisted cut table", i)
				}
			}
			set, err := Open(shardDir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			if got := set.NumVertices(); got != 100 {
				t.Fatalf("set has %d vertices, want 100", got)
			}
			// The merged record stream must be byte-for-byte the original's.
			want := fileDigest(t, src)
			for _, workers := range []int{1, 2, 4, 7} {
				got, err := StreamDigest(set.Source(nil, workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Errorf("workers=%d: merged stream digest %s != original %s", workers, got, want)
				}
			}
			// The combined digest must be stable across opens and verified
			// against the manifest's recorded per-shard digests.
			d1, err := set.CombinedDigest(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			set2, err := Open(filepath.Join(shardDir, ManifestName), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer set2.Close()
			d2, err := set2.CombinedDigest(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if d1 != d2 {
				t.Errorf("combined digest changed across opens: %s vs %s", d1, d2)
			}
		})
	}
}

func TestSplitTargetBytes(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 200, 0)
	shardDir := filepath.Join(dir, "shards")
	man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{TargetBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) < 2 {
		t.Fatalf("expected multiple shards at a 512-byte budget, got %d", len(man.Shards))
	}
	set, err := Open(shardDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	got, err := StreamDigest(set.Source(nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := fileDigest(t, src); got != want {
		t.Errorf("merged stream digest %s != original %s", got, want)
	}
}

func TestSplitRejectsBadOptions(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 10, 0)
	for _, o := range []SplitOptions{{}, {Shards: 2, TargetBytes: 100}, {Shards: 11}} {
		if _, err := SplitFile(context.Background(), src, filepath.Join(dir, "out"), o); err == nil {
			t.Errorf("SplitFile with %+v: expected error", o)
		}
	}
}

// TestZeroPlanningScans is the acceptance check that a cold open of a shard
// set never pays a planning scan: every shard opens with its partition plan
// already loaded from the footer, and a full parallel scan's stats contain
// exactly the blocks of the data pass — nothing extra.
func TestZeroPlanningScans(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 120, 0)
	shardDir := filepath.Join(dir, "shards")
	if _, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	set, err := Open(shardDir, Options{BlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for i, f := range set.files {
		if !f.HasPartitionPlan() {
			t.Errorf("shard %d opened without a partition plan", i)
		}
	}
	var stats gio.Counters
	if err := set.Source(&stats, 4).ForEachBatchCtx(context.Background(), func([]gio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Scans != 1 || snap.PhysicalScans != 1 {
		t.Errorf("one pass counted scans=%d physical=%d, want 1/1", snap.Scans, snap.PhysicalScans)
	}
	// The byte budget of one sequential pass over the shard payloads is an
	// upper bound; a planning scan would exceed it.
	var maxBytes uint64
	for _, f := range set.files {
		size, err := f.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		maxBytes += uint64(size - gio.HeaderSize)
	}
	if snap.BytesRead > maxBytes {
		t.Errorf("read %d bytes, sequential pass needs at most %d: a planning scan ran", snap.BytesRead, maxBytes)
	}
}

// TestSourceStatsWorkerInvariance checks the accounting contract: one full
// scan's counters are identical at every worker count.
func TestSourceStatsWorkerInvariance(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 150, 0)
	shardDir := filepath.Join(dir, "shards")
	if _, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	set, err := Open(shardDir, Options{BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	var want gio.Stats
	for i, workers := range []int{1, 2, 4, 7} {
		var stats gio.Counters
		if err := set.Source(&stats, workers).ForEachBatchCtx(context.Background(), func([]gio.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		snap := stats.Snapshot()
		if i == 0 {
			want = snap
			if want.RecordsRead != 150 {
				t.Fatalf("read %d records, want 150", want.RecordsRead)
			}
			continue
		}
		if !reflect.DeepEqual(snap, want) {
			t.Errorf("workers=%d stats %+v differ from sequential %+v", workers, snap, want)
		}
	}
}

func TestSourceCancellation(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 100, 0)
	shardDir := filepath.Join(dir, "shards")
	if _, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	set, err := Open(shardDir, Options{BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		err := set.Source(nil, workers).ForEachBatchCtx(ctx, func([]gio.Record) error {
			calls++
			cancel()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		var se *gio.ScanError
		if !errors.As(err, &se) {
			t.Errorf("workers=%d: error %v does not carry scan position", workers, err)
		}
		if calls == 0 {
			t.Errorf("workers=%d: callback never ran", workers)
		}
		cancel()
	}
}

// mutateManifest loads a split manifest, applies f, and writes it back
// without validation.
func mutateManifest(t *testing.T, dir string, f func(*Manifest)) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	f(&m)
	out, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRejection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
		substr string
	}{
		{"overlap", func(m *Manifest) { m.Shards[1].Lo-- }, "contiguous"},
		{"gap", func(m *Manifest) { m.Shards[1].Lo++ }, "contiguous"},
		{"short", func(m *Manifest) { m.Shards[2].Hi--; m.Shards[2].Records-- }, "vertices"},
		{"records", func(m *Manifest) { m.Shards[0].Records++ }, "records"},
		{"version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"empty", func(m *Manifest) { m.Shards = nil }, "no shards"},
		{"format", func(m *Manifest) { m.Shards[1].Format = FormatCompressed }, "format"},
		{"inverted", func(m *Manifest) { m.Shards[0].Hi = m.Shards[0].Lo }, "range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := writeTestGraph(t, dir, 60, 0)
			shardDir := filepath.Join(dir, "shards")
			if _, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3}); err != nil {
				t.Fatal(err)
			}
			mutateManifest(t, shardDir, tc.mutate)
			_, err := Open(shardDir, Options{})
			if err == nil {
				t.Fatal("corrupt manifest opened cleanly")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

func TestTruncatedShardRejected(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 60, 0)
	shardDir := filepath.Join(dir, "shards")
	man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(shardDir, man.Shards[1].Path)
	if err := os.Truncate(p, man.Shards[1].Bytes-10); err != nil {
		t.Fatal(err)
	}
	_, err = Open(shardDir, Options{})
	if err == nil {
		t.Fatal("truncated shard opened cleanly")
	}
	if !errors.Is(err, gio.ErrBadFormat) {
		t.Errorf("got %v, want ErrBadFormat", err)
	}
}

func TestCorruptShardDigestDetected(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 60, 0)
	shardDir := filepath.Join(dir, "shards")
	man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte without changing the size: the open (which only
	// checks structure) succeeds, the digest verification catches it.
	p := filepath.Join(shardDir, man.Shards[2].Path)
	f, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, gio.HeaderSize+5); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, gio.HeaderSize+5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	set, err := Open(shardDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if _, err := set.CombinedDigest(context.Background()); err == nil {
		t.Fatal("combined digest of corrupted shard verified cleanly")
	} else if !errors.Is(err, gio.ErrBadFormat) {
		t.Errorf("got %v, want ErrBadFormat", err)
	}
}

// TestManifestWriteAtomic checks the crash-safety contract: WriteManifest
// leaves no temp file behind, and overwriting an existing manifest either
// fully replaces it or leaves the old one.
func TestManifestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 60, 0)
	shardDir := filepath.Join(dir, "shards")
	man, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", de.Name())
		}
	}
	// Rewriting the manifest in place replaces it atomically.
	if err := WriteManifest(filepath.Join(shardDir, ManifestName), man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(shardDir); err != nil {
		t.Fatal(err)
	}
	// An invalid manifest is refused before anything touches disk.
	bad := *man
	bad.Vertices++
	if err := WriteManifest(filepath.Join(shardDir, ManifestName), &bad); err == nil {
		t.Fatal("invalid manifest written")
	}
	if _, _, err := LoadManifest(shardDir); err != nil {
		t.Errorf("failed write damaged the existing manifest: %v", err)
	}
}

func TestOpenMmap(t *testing.T) {
	dir := t.TempDir()
	src := writeTestGraph(t, dir, 80, 0)
	shardDir := filepath.Join(dir, "shards")
	if _, err := SplitFile(context.Background(), src, shardDir, SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	set, err := Open(shardDir, Options{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	got, err := StreamDigest(set.Source(nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := fileDigest(t, src); got != want {
		t.Errorf("mmap merged stream digest %s != original %s", got, want)
	}
}
