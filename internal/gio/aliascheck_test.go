package gio

import (
	"context"
	"testing"
)

// The batch-aliasing footgun, demonstrated and made loud: Record.Neighbors
// is a view into per-batch storage (the pipelined engine's decode window
// for raw records, the shared arena for compressed ones, or the file
// mapping on the mmap zero-copy path), so retaining a slice across batches
// silently reads whatever the next batch put into the same storage. With
// SetAliasCheck on, the scanner poisons the outgoing window bytes and arena
// with AliasPoison at every batch boundary, turning that silent corruption
// into an unmistakable sentinel.

// retainAcrossBatches scans path, illegally retains the first batch's first
// non-empty Neighbors slice, and returns that slice's contents as observed
// AFTER the scan finished — i.e. what a buggy caller would actually read.
func retainAcrossBatches(t *testing.T, path string) []uint32 {
	t.Helper()
	f, err := Open(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var retained []uint32
	batches := 0
	err = f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		batches++
		if retained == nil {
			for _, r := range batch {
				if len(r.Neighbors) > 0 {
					retained = r.Neighbors // BUG under test: no copy
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 2 {
		t.Fatalf("file too small to cross a batch boundary: %d batches", batches)
	}
	if retained == nil {
		t.Fatal("no non-empty record found")
	}
	return append([]uint32(nil), retained...)
}

func TestRetainAcrossBatchesMisuse(t *testing.T) {
	// Enough records to span several batches (batchMaxRecords = 1024).
	path := writeMmapTestFile(t, t.TempDir(), 5000, false)

	// Without the check the retained slice holds plausible-looking stale
	// garbage — later batches' neighbor data — which is exactly why the bug
	// is dangerous: nothing fails.
	SetAliasCheck(false)
	stale := retainAcrossBatches(t, path)
	for _, v := range stale {
		if v == AliasPoison {
			t.Fatalf("arena poisoned with the check off: %#x", v)
		}
	}

	// With the check on, the same misuse reads the sentinel instead.
	SetAliasCheck(true)
	defer SetAliasCheck(false)
	poisoned := retainAcrossBatches(t, path)
	for i, v := range poisoned {
		if v != AliasPoison {
			t.Fatalf("retained[%d] = %#x, want AliasPoison %#x: misuse went undetected", i, v, AliasPoison)
		}
	}
}

// TestAliasCheckCleanUseUnaffected: code honoring the batch contract sees
// identical records with the check on and off — the poisoning happens only
// to storage that is already invalid to read.
func TestAliasCheckCleanUseUnaffected(t *testing.T) {
	path := writeMmapTestFile(t, t.TempDir(), 3000, false)
	collect := func() []Record {
		f, err := Open(path, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var out []Record
		if err := eachRecord(f, func(r Record) error {
			out = append(out, Record{ID: r.ID, Neighbors: append([]uint32(nil), r.Neighbors...)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	SetAliasCheck(false)
	plain := collect()
	SetAliasCheck(true)
	defer SetAliasCheck(false)
	checked := collect()
	if len(plain) != len(checked) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(checked))
	}
	for i := range plain {
		if plain[i].ID != checked[i].ID || len(plain[i].Neighbors) != len(checked[i].Neighbors) {
			t.Fatalf("record %d differs under alias check", i)
		}
		for j := range plain[i].Neighbors {
			if plain[i].Neighbors[j] != checked[i].Neighbors[j] {
				t.Fatalf("record %d neighbor %d differs under alias check", i, j)
			}
		}
	}
}
