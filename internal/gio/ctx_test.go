package gio

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// writeCtxFile writes a file with enough records for several batches.
func writeCtxFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ctx.adj")
	w, err := NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for v := uint32(0); v < n; v++ {
		nb := []uint32{(v + 1) % n, (v + 2) % n}
		if err := w.Append(v, nb); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestForEachBatchCtxCancel: cancellation mid-scan surfaces a ScanError
// wrapping the ctx error with the scan position, and the pipeline shuts
// down (a later plain scan still works).
func TestForEachBatchCtxCancel(t *testing.T) {
	f, err := Open(writeCtxFile(t), 0, &Counters{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	err = f.ForEachBatchCtx(ctx, func(batch []Record) error {
		if batches++; batches == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *ScanError
	if !errors.As(err, &se) {
		t.Fatalf("err %v carries no scan position", err)
	}
	if se.Records == 0 || se.Records >= se.Total {
		t.Fatalf("position %d of %d, want mid-scan", se.Records, se.Total)
	}

	// The file remains fully usable for the next (uncancelled) scan.
	records := uint64(0)
	if err := f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		records += uint64(len(batch))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records != f.Header().Vertices {
		t.Fatalf("follow-up scan delivered %d of %d records", records, f.Header().Vertices)
	}
}

// TestForEachBatchCtxNil: a nil ctx never cancels; the scan completes and
// counts as usual.
func TestForEachBatchCtxNil(t *testing.T) {
	var stats Counters
	f, err := Open(writeCtxFile(t), 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.ForEachBatchCtx(nil, func([]Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if snap := stats.Snapshot(); snap.Scans != 1 || snap.RecordsRead != f.Header().Vertices {
		t.Fatalf("nil-ctx scan accounting off: %+v", snap)
	}
}

// TestCountersScope: a child scope sees only its own additions while the
// parent accumulates everything, including concurrent additions from many
// scopes (run under -race in CI).
func TestCountersScope(t *testing.T) {
	var root Counters
	var wg sync.WaitGroup
	const scopes, adds = 8, 1000
	children := make([]*Counters, scopes)
	for i := range children {
		children[i] = root.Scope()
		wg.Add(1)
		go func(c *Counters) {
			defer wg.Done()
			for j := 0; j < adds; j++ {
				c.AddRecordsRead(1)
				c.AddScans(1)
			}
		}(children[i])
	}
	wg.Wait()
	for i, c := range children {
		if snap := c.Snapshot(); snap.RecordsRead != adds || snap.Scans != adds {
			t.Fatalf("scope %d: %+v, want %d records / %d scans", i, snap, adds, adds)
		}
	}
	if snap := root.Snapshot(); snap.RecordsRead != scopes*adds || snap.Scans != scopes*adds {
		t.Fatalf("root: %+v, want %d records", snap, scopes*adds)
	}
	root.Reset()
	if snap := root.Snapshot(); snap != (Stats{}) {
		t.Fatalf("reset left %+v", snap)
	}
}

// TestWithCountersViews: concurrent sequential scans through separate views
// of one file deliver full record streams and account into their own
// scopes.
func TestWithCountersViews(t *testing.T) {
	var root Counters
	f, err := Open(writeCtxFile(t), 0, &root)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const views = 4
	var wg sync.WaitGroup
	scopes := make([]*Counters, views)
	counts := make([]uint64, views)
	errs := make([]error, views)
	for i := 0; i < views; i++ {
		scopes[i] = root.Scope()
		v := f.WithCounters(scopes[i])
		wg.Add(1)
		go func(i int, v *File) {
			defer wg.Done()
			errs[i] = v.ForEachBatchCtx(context.Background(), func(batch []Record) error {
				counts[i] += uint64(len(batch))
				return nil
			})
		}(i, v)
	}
	wg.Wait()
	total := f.Header().Vertices
	for i := 0; i < views; i++ {
		if errs[i] != nil {
			t.Fatalf("view %d: %v", i, errs[i])
		}
		if counts[i] != total {
			t.Fatalf("view %d delivered %d of %d records", i, counts[i], total)
		}
		if snap := scopes[i].Snapshot(); snap.Scans != 1 || snap.RecordsRead != total {
			t.Fatalf("view %d scope: %+v", i, snap)
		}
	}
	if snap := root.Snapshot(); snap.Scans != views || snap.RecordsRead != views*total {
		t.Fatalf("root totals: %+v", snap)
	}
}

// TestCloseRacesScanStart closes a file 0–78 µs after a scan started on
// another goroutine, on the pipelined and the mapped engine. Close stops
// the view's active scan while the scan's start installs it, so the
// active-scan slot must be guarded: run under -race. Any scan outcome is
// fine (completed, stopped, or a read on the closed descriptor); a data
// race or a hang is not.
func TestCloseRacesScanStart(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 20000, false)
	for _, mapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mapped), func(t *testing.T) {
			for i := range 40 {
				open := Open
				if mapped {
					open = OpenMmap
				}
				f, err := open(path, 4096, &Counters{})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					done <- f.ForEachBatchCtx(context.Background(), func([]Record) error { return nil })
				}()
				time.Sleep(time.Duration(2*i) * time.Microsecond)
				if err := f.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				<-done
			}
		})
	}
}
