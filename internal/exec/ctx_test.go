package exec

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gio"
	"repro/internal/plrg"
)

// openBig writes and opens a file large enough to split into many
// partitions.
func openBig(t *testing.T) *gio.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "big.adj")
	if err := gio.WriteGraphSorted(path, plrg.PowerLawN(40000, 2.0, 3), nil); err != nil {
		t.Fatal(err)
	}
	f, err := gio.Open(path, 4096, &gio.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCtxCancelDrainsWorkers cancels a parallel scan mid-merge and requires
// the ctx error wrapped with the scan position, plus a fully drained worker
// pool: the goroutine count returns to its pre-scan level.
func TestCtxCancelDrainsWorkers(t *testing.T) {
	f := openBig(t)
	// Warm the partition plan so the canceled scans below take the parallel
	// path rather than the sequential cold-start capture.
	if err := New(f, 4).ForEachBatchCtx(context.Background(), func([]gio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		ex := New(f, 4)
		batches := 0
		err := ex.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
			if batches++; batches == 2 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		var se *gio.ScanError
		if !errors.As(err, &se) {
			t.Fatalf("err %v carries no scan position", err)
		}
		if se.Records == 0 || se.Records >= se.Total {
			t.Fatalf("scan position %d of %d, want mid-scan", se.Records, se.Total)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("worker pool leaked: %d goroutines before, %d after", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// splitFile writes f's records into k files of consecutive record ranges,
// each keeping f's vertex count in its header as a shard does, and opens
// them with nil counters: a merged executor accounts for the whole set.
func splitFile(t *testing.T, f *gio.File, k int) []*gio.File {
	t.Helper()
	dir := t.TempDir()
	n := f.NumRecords()
	writers := make([]*gio.Writer, k)
	for i := range writers {
		w, err := gio.NewWriter(filepath.Join(dir, fmt.Sprintf("shard-%d.adj", i)), f.Header().Flags, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.SetVertexCount(uint64(f.NumVertices()))
		writers[i] = w
	}
	var idx uint64
	if err := f.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
		for _, r := range batch {
			if err := writers[idx*uint64(k)/n].Append(r.ID, r.Neighbors); err != nil {
				return err
			}
			idx++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	files := make([]*gio.File, k)
	for i, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sf, err := gio.Open(filepath.Join(dir, fmt.Sprintf("shard-%d.adj", i)), f.BlockSize(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sf.Close() })
		files[i] = sf
	}
	return files
}

// shardUnits plans a merged run over files the way a shard set does: one
// unit per file on one worker, the file's own partitions otherwise.
func shardUnits(t *testing.T, files []*gio.File) func(workers int) []Unit {
	return func(workers int) []Unit {
		var units []Unit
		for i, f := range files {
			parts := []gio.Partition{{Records: f.NumRecords(), StartOffset: gio.HeaderSize, EndOffset: f.PayloadEnd()}}
			if workers > 1 {
				var err error
				if parts, err = f.Partitions(workers); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range parts {
				units = append(units, Unit{File: i, Part: p})
			}
		}
		return units
	}
}

// prefixBlocks is the lower-bound rule of Executor.account for a run that
// consumed every unit but the last: the blocks that reach the end of each
// file's last consumed unit.
func prefixBlocks(files []*gio.File, units []Unit) uint64 {
	end := make([]int64, len(files))
	for _, u := range units[:len(units)-1] {
		end[u.File] = max(end[u.File], u.Part.EndOffset)
	}
	var blocks uint64
	for i, f := range files {
		if covered := end[i] - gio.HeaderSize; covered > 0 {
			b := int64(f.BlockSize())
			blocks += uint64((covered + b - 1) / b)
		}
	}
	return blocks
}

// TestCancelAfterLastBatch cancels a scan from the callback of its last
// batch. Every engine must then fail as the sequential one does, with the
// ctx error at record |V| of |V| and no scan counted, on a single file and
// on a three-file merged set at every worker count. The executor's blocks
// follow account's lower-bound rule: those of every unit consumed before
// the stop, which is every unit but the last.
func TestCancelAfterLastBatch(t *testing.T) {
	f := openBig(t)
	// Warm the partition plan so the scans below at workers > 1 take the
	// parallel path rather than the sequential cold-start capture.
	if err := New(f, 4).ForEachBatchCtx(context.Background(), func([]gio.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	n := uint64(f.NumVertices())
	shards := splitFile(t, f, 3)
	plan := shardUnits(t, shards)

	cancelAtEnd := func(t *testing.T, ex *Executor) gio.Stats {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := ex.Stats().Snapshot()
		var seen uint64
		err := ex.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
			if seen += uint64(len(batch)); seen == n {
				cancel()
			}
			return nil
		})
		st := ex.Stats().Snapshot().Sub(before)
		var se *gio.ScanError
		if !errors.Is(err, context.Canceled) || !errors.As(err, &se) {
			t.Fatalf("err = %v, want context.Canceled with a scan position", err)
		}
		if se.Records != n || se.Total != n {
			t.Fatalf("stopped at record %d of %d, want %d of %d", se.Records, se.Total, n, n)
		}
		if st.Scans != 0 || st.PhysicalScans != 0 {
			t.Fatalf("a canceled scan counted %d scans (%d physical)", st.Scans, st.PhysicalScans)
		}
		return st
	}

	var seqBlocks uint64
	for _, w := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("file/workers=%d", w), func(t *testing.T) {
			st := cancelAtEnd(t, New(f, w))
			if w == 1 {
				seqBlocks = st.BlocksRead
				return
			}
			parts, err := f.Partitions(w * PartitionsPerWorker)
			if err != nil {
				t.Fatal(err)
			}
			units := make([]Unit, len(parts))
			for i, p := range parts {
				units[i] = Unit{Part: p}
			}
			if want := prefixBlocks([]*gio.File{f}, units); st.BlocksRead != want || want > seqBlocks {
				t.Fatalf("read %d blocks, want %d (the sequential engine read %d)", st.BlocksRead, want, seqBlocks)
			}
		})
	}
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards/workers=%d", w), func(t *testing.T) {
			st := cancelAtEnd(t, NewMerged(shards, int(n), &gio.Counters{}, w, plan))
			if want := prefixBlocks(shards, plan(w)); st.BlocksRead != want {
				t.Fatalf("read %d blocks, want %d", st.BlocksRead, want)
			}
		})
	}
}
