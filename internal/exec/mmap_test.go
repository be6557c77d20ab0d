package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gio"
)

// TestParallelParityMmap re-runs the executor's core parity suite — worker
// counts 2/4/7 against the sequential oracle, raw and compressed formats,
// well-formed, truncated, corrupt and tiny files, cold-start capture — with
// every file opened through the mapped engine, with and without zero-copy
// aliasing. On fallback builds (-tags nommap) OpenMmap degrades to the
// pipelined engine and the suite still passes, trivially.
func TestParallelParityMmap(t *testing.T) {
	for _, engine := range []string{"mmap", "mmap-zerocopy"} {
		t.Run(engine, func(t *testing.T) {
			execEngine = engine
			defer func() { execEngine = "" }()
			t.Run("WellFormed", TestParallelParityWellFormed)
			t.Run("Truncated", TestParallelParityTruncated)
			t.Run("Corrupt", TestParallelParityCorrupt)
			t.Run("Property", TestParallelParityProperty)
			t.Run("ColdStartCapture", TestColdStartCapturePar)
		})
	}
}

// TestParallelMmapCancelMidScan cancels a parallel scan of a mapped file
// mid-merge: the run must stop within one batch, return the ctx error
// wrapped in a gio.ScanError with the merge position, and leave no worker
// goroutine behind (the -race build would flag workers touching the scan
// state after return).
func TestParallelMmapCancelMidScan(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(71, 20000, 120000)
	path := writeFile(t, dir, g, false, "cancel.adj")
	for _, engine := range []string{"mmap", "mmap-zerocopy"} {
		t.Run(engine, func(t *testing.T) {
			f, err := gio.OpenMmap(path, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			f.SetMmapZeroCopy(engine == "mmap-zerocopy")
			_, _ = f.Partitions(8) // warm the plan: exercise the parallel path

			ctx, cancel := context.WithCancel(context.Background())
			batches := 0
			err = New(f, 4).ForEachBatchCtx(ctx, func(batch []gio.Record) error {
				if batches++; batches == 3 {
					cancel()
				}
				return nil
			})
			var se *gio.ScanError
			if !errors.As(err, &se) {
				t.Fatalf("error = %v, want *gio.ScanError", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if se.Records == 0 || se.Records >= uint64(g.NumVertices()) {
				t.Fatalf("ScanError position = %d, want mid-scan", se.Records)
			}
		})
	}
}

// TestParallelMmapCloseDuringScan closes a mapped file while a parallel
// scan is consuming zero-copy batches from the worker channels. The run's
// PinMap reference must keep the already-shipped batches readable (the
// consumer folds every neighbor), the scan must fail (or complete, if it
// won the race) rather than fault, and Close must never unmap under a
// reader — the assertions -race and the MMU enforce.
func TestParallelMmapCloseDuringScan(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(73, 30000, 200000)
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			path := writeFile(t, dir, g, compressed, fmt.Sprintf("close-%v.adj", compressed))
			f, err := gio.OpenMmap(path, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !f.MmapActive() {
				f.Close()
				t.Skip("mmap unavailable on this platform/build")
			}
			_, _ = f.Partitions(8)

			firstBatch := make(chan struct{})
			scanDone := make(chan error, 1)
			go func() {
				var once sync.Once
				scanDone <- New(f, 4).ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
					once.Do(func() { close(firstBatch) })
					var sink uint64
					for _, r := range batch {
						for _, nb := range r.Neighbors {
							sink += uint64(nb)
						}
					}
					_ = sink
					return nil
				})
			}()

			<-firstBatch
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if f.MmapActive() {
				t.Fatal("mapping still active after Close")
			}
			if err := <-scanDone; err != nil && !errors.Is(err, gio.ErrBadFormat) {
				t.Fatalf("scan error = %v, want ErrBadFormat-wrapped stop (or completion)", err)
			}
		})
	}
}
