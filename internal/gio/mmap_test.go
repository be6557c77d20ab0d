package gio

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// writeMmapTestFile writes a raw or compressed file with n vertices in a
// ring (every record degree 2), big enough for several batches when n is
// large.
func writeMmapTestFile(t testing.TB, dir string, n int, compressed bool) string {
	t.Helper()
	flags := uint32(0)
	if compressed {
		flags = FlagCompressed
	}
	path := fmt.Sprintf("%s/mmap-%d-%v.adj", dir, n, compressed)
	w, err := NewWriter(path, flags, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		nb := []uint32{uint32((v + 1) % n), uint32((v + n - 1) % n)}
		if n < 3 {
			nb = nil
		}
		if err := w.Append(uint32(v), nb); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapZeroCopyAliasesMapping proves both raw engines really are zero
// copy: every raw Record.Neighbors slice points into the pipelined engine's
// decode window or into the mapping, never into the arena, and neither
// engine allocates an arena at all. A compressed file still decodes into
// the arena, and a batch taken through SwapBuffers owns its neighbors.
func TestMmapZeroCopyAliasesMapping(t *testing.T) {
	dir := t.TempDir()
	path := writeMmapTestFile(t, dir, 5000, false)
	t.Run("pipelined", func(t *testing.T) {
		if !canAliasUint32 {
			t.Skip("window views unavailable (big-endian host)")
		}
		f, err := Open(path, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		full, err := f.scanCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for batch := full.NextBatch(); batch != nil; batch = full.NextBatch() {
			for _, r := range batch {
				records++
				if len(r.Neighbors) > 0 && !within(r.Neighbors, full.win) {
					t.Fatalf("record %d: neighbors outside the scanner's window", r.ID)
				}
			}
		}
		if err := full.Err(); err != nil {
			t.Fatal(err)
		}
		if records != 5000 {
			t.Fatalf("scanned %d records, want 5000", records)
		}
		// Copying no neighbor, the engine allocates no arena: neither a full
		// scan nor the partition scanners of a parallel one.
		parts, err := f.Partitions(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Scanner{full, f.ScanPartition(parts[0]), f.ScanPartition(parts[1])} {
			for s.NextBatch() != nil {
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if cap(s.arena) != 0 {
				t.Fatalf("pipelined raw scanner allocated a %d-value arena", cap(s.arena))
			}
		}

		// A batch handed over by SwapBuffers must survive the window being
		// compacted and refilled under the batches decoded after it.
		sc, err := f.scanCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var want []Record
		for _, r := range sc.NextBatch() {
			want = append(want, Record{ID: r.ID, Neighbors: append([]uint32(nil), r.Neighbors...)})
		}
		got, arena := sc.SwapBuffers(nil, nil)
		for sc.NextBatch() != nil {
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("swapped batch has %d records, want %d", len(got), len(want))
		}
		for i, r := range got {
			if r.ID != want[i].ID || !slices.Equal(r.Neighbors, want[i].Neighbors) {
				t.Fatalf("swapped record %d changed after later batches: %v, want %v", i, r, want[i])
			}
			if len(r.Neighbors) > 0 && !within(r.Neighbors, wordBytes(arena)) {
				t.Fatalf("swapped record %d: neighbors outside the returned arena", r.ID)
			}
		}

		// Compressed records are materialized, so they land in the arena.
		cf, err := Open(writeMmapTestFile(t, dir, 5000, true), 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cf.Close()
		csc, err := cf.scanCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for batch := csc.NextBatch(); batch != nil; batch = csc.NextBatch() {
			for _, r := range batch {
				if len(r.Neighbors) > 0 && !within(r.Neighbors, wordBytes(csc.arena)) {
					t.Fatalf("compressed record %d: neighbors outside the arena", r.ID)
				}
			}
		}
		if err := csc.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("mmap", func(t *testing.T) {
		testMmapZeroCopyAliasesMapping(t, path)
	})
}

// within reports whether vs lies inside mem.
func within(vs []uint32, mem []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(vs)))
	base := uintptr(unsafe.Pointer(unsafe.SliceData(mem)))
	return p >= base && p+4*uintptr(len(vs)) <= base+uintptr(len(mem))
}

func testMmapZeroCopyAliasesMapping(t *testing.T, path string) {
	f, err := OpenMmap(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.MmapActive() {
		t.Skip("mmap unavailable on this platform/build")
	}
	if !f.MmapZeroCopy() {
		t.Skip("zero-copy aliasing unavailable (big-endian host)")
	}
	records := 0
	err = f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		for _, r := range batch {
			records++
			if len(r.Neighbors) > 0 && !within(r.Neighbors, f.mm.data) {
				return fmt.Errorf("record %d: neighbors outside the mapping", r.ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if records != 5000 {
		t.Fatalf("scanned %d records, want 5000", records)
	}

	// Copying no neighbor, the path allocates no arena: neither a full scan
	// nor the partition scanners of a parallel one.
	parts, err := f.Partitions(2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.scanCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append([]*Scanner{full}, f.ScanPartition(parts[0]), f.ScanPartition(parts[1])) {
		for s.NextBatch() != nil {
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if cap(s.arena) != 0 {
			t.Fatalf("zero-copy scanner allocated a %d-value arena", cap(s.arena))
		}
	}
}

// TestMmapCompressedUsesArena pins the documented asymmetry: compressed
// records must decode into the arena even on a mapped file (gaps have to be
// materialized), so their Neighbors never point into the mapping.
func TestMmapCompressedUsesArena(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 500, true)
	f, err := OpenMmap(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.MmapActive() {
		t.Skip("mmap unavailable on this platform/build")
	}
	if f.MmapZeroCopy() {
		t.Fatal("MmapZeroCopy must report false for compressed files")
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(f.mm.data)))
	end := base + uintptr(len(f.mm.data))
	err = f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		for _, r := range batch {
			if len(r.Neighbors) == 0 {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.SliceData(r.Neighbors)))
			if p >= base && p < end {
				return fmt.Errorf("record %d: compressed neighbors alias the mapping", r.ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMmapCloseDuringScan is the lifetime contract under -race: File.Close
// racing a mapped scan must wait for the in-flight callback, fail the scan
// at its next batch, and never unmap under a reader.
// TestMmapCloseMidBatch races Close against zero-copy scans whose callback
// reads every neighbor, closing 0–950 µs after the first batch arrives so
// that Close often lands at a block refill inside a later batch. The scan fails there, but the
// records it decoded before the refill are still handed to the callback,
// and their Neighbors alias the mapping: the scan must keep its reference
// until the callback is done with them, or the read faults.
func TestMmapCloseMidBatch(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 200000, false)
	for i := range 200 {
		f, err := OpenMmap(path, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !f.MmapZeroCopy() {
			f.Close()
			t.Skip("zero-copy mmap unavailable on this platform/build")
		}
		// sink lives outside the callback so the reads cannot be
		// optimized away.
		var sink uint64
		started := make(chan struct{})
		scanDone := make(chan error, 1)
		go func() {
			var once sync.Once
			scanDone <- f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
				once.Do(func() { close(started) })
				for _, r := range batch {
					for _, nb := range r.Neighbors {
						sink += uint64(nb)
					}
				}
				return nil
			})
		}()
		<-started
		time.Sleep(time.Duration(i%20) * 50 * time.Microsecond)
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-scanDone; err != nil && !strings.Contains(err.Error(), errScanStopped.Error()) {
			t.Fatalf("scan error = %v, want scan-stopped (or completion)", err)
		}
	}
}

func TestMmapCloseDuringScan(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		t.Run(fmt.Sprintf("compressed=%v", compressed), func(t *testing.T) {
			path := writeMmapTestFile(t, t.TempDir(), 200000, compressed)
			f, err := OpenMmap(path, 4096, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !f.MmapActive() {
				f.Close()
				t.Skip("mmap unavailable on this platform/build")
			}

			firstBatch := make(chan struct{})
			scanDone := make(chan error, 1)
			// sink lives outside the callback so the reads below cannot be
			// optimized away.
			var sink uint64
			go func() {
				var once sync.Once
				scanDone <- f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
					once.Do(func() { close(firstBatch) })
					// Touch every neighbor: if Close unmapped under us this
					// faults, and -race flags any unsynchronized teardown.
					for _, r := range batch {
						for _, nb := range r.Neighbors {
							sink += uint64(nb)
						}
					}
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
			err = <-scanDone
			if err != nil && !strings.Contains(err.Error(), errScanStopped.Error()) {
				t.Fatalf("scan error = %v, want scan-stopped (or completion)", err)
			}
			// err == nil is legal: the scan may have finished before Close won
			// the race. Either way the scan released its reference before
			// returning, so by now the deferred munmap has happened.
			if !f.mm.unmapped() {
				t.Fatal("pages still mapped after Close and scan drain")
			}
		})
	}
}

// TestMmapScanAfterClose: a scan started on a closed mapped file fails on
// its first batch instead of touching freed pages.
func TestMmapScanAfterClose(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 100, false)
	f, err := OpenMmap(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = f.ForEachBatchCtx(context.Background(), func([]Record) error { return nil })
	if err == nil {
		t.Fatal("scan on closed mapped file succeeded")
	}
}

// TestMmapCancelMidScan: context cancellation stops a mapped scan between
// windows, surfacing the ctx error in a ScanError with the scan position.
func TestMmapCancelMidScan(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 50000, false)
	f, err := OpenMmap(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	batches := 0
	batchesAfterCancel := 0
	err = f.ForEachBatchCtx(ctx, func(batch []Record) error {
		batches++
		if batches == 3 {
			cancel()
		}
		if ctx.Err() != nil {
			batchesAfterCancel++
		}
		return nil
	})
	var se *ScanError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want *ScanError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if se.Records == 0 || se.Records >= 50000 {
		t.Fatalf("ScanError position = %d, want mid-scan", se.Records)
	}
	if batchesAfterCancel > 1 {
		t.Fatalf("%d batches delivered after cancel, want ≤ 1", batchesAfterCancel)
	}
}

// TestMmapPinMapDefersUnmap: a PinMap reference keeps the pages mapped
// across Close until released — the contract the parallel executor's
// consumer relies on for batches still in flight when the file closes.
func TestMmapPinMapDefersUnmap(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 100, false)
	f, err := OpenMmap(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, ok := f.PinMap()
	if !ok {
		f.Close()
		t.Skip("mmap unavailable on this platform/build")
	}

	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if f.MmapActive() {
		t.Fatal("mapping reported active after Close")
	}
	if f.mm.unmapped() {
		t.Fatal("pages unmapped while pinned")
	}
	release()
	if !f.mm.unmapped() {
		t.Fatal("pages still mapped after the pin was released")
	}
	// A second release is a no-op, and PinMap on the closed file fails.
	release()
	if _, ok := f.PinMap(); ok {
		t.Fatal("PinMap succeeded on a closed file")
	}
}

// TestMmapSupersededScanStops: starting a new Scan invalidates the previous
// mapped scanner at its next batch, mirroring the pipelined engine's
// supersession semantics, and releases its mapping reference so Close does
// not hang.
func TestMmapSupersededScanStops(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 50000, false)
	f, err := OpenMmap(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !f.MmapActive() {
		f.Close()
		t.Skip("mmap unavailable on this platform/build")
	}
	s1, err := f.scanCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s1.NextBatch() == nil {
		t.Fatalf("first batch failed: %v", s1.Err())
	}
	s2, err := f.scanCtx(context.Background()) // supersedes s1
	if err != nil {
		t.Fatal(err)
	}
	for s2.NextBatch() != nil {
	}
	if err := s2.Err(); err != nil {
		t.Fatalf("superseding scan failed: %v", err)
	}
	// s1 must now fail (possibly after draining its current window) rather
	// than scan to completion.
	for s1.NextBatch() != nil {
	}
	if s1.Err() == nil {
		t.Fatal("superseded mapped scan completed without error")
	}
	// The superseded scanner released its reference when driven to failure,
	// the superseding one at completion: Close must unmap immediately.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !f.mm.unmapped() {
		t.Fatal("a mapping reference leaked: pages still mapped after Close")
	}
}

// TestMmapFallbackParity: OpenMmap on a file that cannot map (or a fallback
// build) still scans correctly through the pipelined engine. Exercised
// meaningfully under -tags nommap; on mmap platforms it just re-checks the
// mapped path against LoadGraph-style consumption.
func TestMmapFallbackParity(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 1000, false)
	var counters Counters
	f, err := OpenMmap(path, 0, &counters)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ids uint64
	if err := f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		for _, r := range batch {
			ids += uint64(r.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1000*999) / 2; ids != want {
		t.Fatalf("id sum %d, want %d", ids, want)
	}
	st := counters.Snapshot()
	if st.Scans != 1 || st.PhysicalScans != 1 {
		t.Fatalf("scans=%d physical=%d, want 1/1", st.Scans, st.PhysicalScans)
	}
	if st.RecordsRead != 1000 {
		t.Fatalf("records=%d, want 1000", st.RecordsRead)
	}
}

// TestMmapViewsConcurrent: WithCounters views of one mapped file scan
// concurrently, each accounting into its own scope — the Solver API's
// concurrency model — with batches aliasing one shared mapping.
func TestMmapViewsConcurrent(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 20000, false)
	var root Counters
	f, err := OpenMmap(path, 0, &root)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const views = 4
	var wg sync.WaitGroup
	errs := make([]error, views)
	for i := 0; i < views; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scope := root.Scope()
			v := f.WithCounters(scope)
			defer v.Close()
			errs[i] = v.ForEachBatchCtx(context.Background(), func(batch []Record) error {
				var sink uint64
				for _, r := range batch {
					for _, nb := range r.Neighbors {
						sink += uint64(nb)
					}
				}
				_ = sink
				return nil
			})
			if st := scope.Snapshot(); st.Scans != 1 {
				errs[i] = fmt.Errorf("view %d: scans=%d, want 1", i, st.Scans)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
	}
	if st := root.Snapshot(); st.Scans != views {
		t.Fatalf("root scans=%d, want %d", st.Scans, views)
	}
}
