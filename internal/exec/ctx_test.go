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

// TestCtxParityWithPlainScan: a never-canceled context changes nothing —
// records, stats and completion match ForEachBatch for every worker count.
func TestCtxParityWithPlainScan(t *testing.T) {
	f := openBig(t)
	ctx := context.Background()
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			var plain, withCtx uint64
			if err := New(f, w).ForEachBatchCtx(context.Background(), func(b []gio.Record) error {
				plain += uint64(len(b))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := New(f, w).ForEachBatchCtx(ctx, func(b []gio.Record) error {
				withCtx += uint64(len(b))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if plain != withCtx {
				t.Fatalf("ctx scan delivered %d records, plain %d", withCtx, plain)
			}
		})
	}
}
