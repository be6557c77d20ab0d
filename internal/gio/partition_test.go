package gio

import (
	"context"
	"os"
	"testing"

	"repro/internal/graph"
)

// writePartitionFile writes g in vertex order with the given flags.
func writePartitionFile(t testing.TB, path string, g *graph.Graph, compressed bool) {
	t.Helper()
	flags := uint32(0)
	if compressed {
		flags = FlagCompressed
	}
	w, err := NewWriter(path, flags, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if err := w.Append(uint32(v), g.Neighbors(uint32(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionsTile checks the structural invariants of every plan: the
// partitions are non-empty, contiguous in both record indices and byte
// offsets, start at the payload, end at end of file, and cover every record.
func TestPartitionsTile(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, n := range []int{1, 50, 3000} {
			g := randomGraph(int64(n), n, n*6)
			path := tmpPath(t)
			writePartitionFile(t, path, g, compressed)
			f, err := Open(path, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.SizeBytes()
			if err != nil {
				t.Fatal(err)
			}
			for _, parts := range []int{1, 2, 7, 64} {
				ps, err := f.Partitions(parts)
				if err != nil {
					t.Fatal(err)
				}
				if len(ps) == 0 || len(ps) > parts {
					t.Fatalf("compressed=%v n=%d parts=%d: got %d partitions", compressed, n, parts, len(ps))
				}
				if ps[0].StartRecord != 0 || ps[0].StartOffset != HeaderSize {
					t.Fatalf("first partition starts at (%d, %d)", ps[0].StartRecord, ps[0].StartOffset)
				}
				var recs uint64
				for i, p := range ps {
					if p.Records == 0 {
						t.Fatalf("partition %d is empty", i)
					}
					if p.StartRecord != recs {
						t.Fatalf("partition %d starts at record %d, want %d", i, p.StartRecord, recs)
					}
					if i > 0 && p.StartOffset != ps[i-1].EndOffset {
						t.Fatalf("partition %d byte gap: %d after %d", i, p.StartOffset, ps[i-1].EndOffset)
					}
					recs += p.Records
				}
				if recs != uint64(n) {
					t.Fatalf("partitions cover %d records, want %d", recs, n)
				}
				if end := ps[len(ps)-1].EndOffset; end != f.PayloadEnd() {
					t.Fatalf("partitions end at %d, payload end %d (file size %d)", end, f.PayloadEnd(), size)
				}
			}
			f.Close()
		}
	}
}

// TestPartitionsEmptyFile: a zero-vertex file cannot be partitioned.
func TestPartitionsEmptyFile(t *testing.T) {
	path := tmpPath(t)
	writePartitionFile(t, path, graph.NewBuilder(0).Build(), false)
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ps, err := f.Partitions(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 {
		t.Fatalf("got %d partitions for an empty file", len(ps))
	}
}

// TestPartitionsPlanNotCounted: planning I/O runs through a side handle and
// must not appear in the file's Stats.
func TestPartitionsPlanNotCounted(t *testing.T) {
	g := randomGraph(3, 400, 1500)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	var stats Counters
	f, err := Open(path, 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Partitions(4); err != nil {
		t.Fatal(err)
	}
	if snap := stats.Snapshot(); snap != (Stats{}) {
		t.Fatalf("planning scan leaked into stats: %+v", snap)
	}
}

// TestScanPartitionRecords: each partition scanner yields exactly its range,
// with record IDs matching a full sequential scan, and leaves Stats alone.
func TestScanPartitionRecords(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		g := randomGraph(9, 2500, 15000)
		path := tmpPath(t)
		writePartitionFile(t, path, g, compressed)
		var stats Counters
		f, err := Open(path, 0, &stats)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := f.Partitions(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) < 2 {
			t.Fatalf("compressed=%v: want ≥2 partitions, got %d", compressed, len(ps))
		}
		var seen uint64
		for _, p := range ps {
			sc := f.ScanPartition(p)
			for {
				batch := sc.NextBatch()
				if batch == nil {
					break
				}
				for _, r := range batch {
					if uint64(r.ID) != seen {
						t.Fatalf("compressed=%v: record %d out of order (want %d)", compressed, r.ID, seen)
					}
					if want := g.Neighbors(r.ID); len(want) != len(r.Neighbors) {
						t.Fatalf("compressed=%v: record %d has %d neighbors, want %d",
							compressed, r.ID, len(r.Neighbors), len(want))
					}
					seen++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if seen != uint64(g.NumVertices()) {
			t.Fatalf("compressed=%v: partition scans yielded %d records, want %d", compressed, seen, g.NumVertices())
		}
		if snap := stats.Snapshot(); snap != (Stats{}) {
			t.Fatalf("compressed=%v: detached scans leaked into stats: %+v", compressed, snap)
		}
		f.Close()
	}
}

// TestPartitionsCached: the cut table is built once; subsequent calls with
// any partition count reuse it.
func TestPartitionsCached(t *testing.T) {
	g := randomGraph(11, 2000, 9000)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Partitions(3); err != nil {
		t.Fatal(err)
	}
	ct := f.plan.cuts
	if ct == nil {
		t.Fatal("cut table not cached")
	}
	for _, parts := range []int{1, 5, 9} {
		if _, err := f.Partitions(parts); err != nil {
			t.Fatal(err)
		}
		if f.plan.cuts != ct {
			t.Fatalf("cut table rebuilt for parts=%d", parts)
		}
	}
}

// TestPartitionsMalformed: planning a malformed file reports the same error
// string a sequential scan would, so the executor's fallback is seamless.
func TestPartitionsMalformed(t *testing.T) {
	g := randomGraph(13, 200, 700)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	data := stripFooter(t, mustRead(t, path))
	trunc := tmpPath(t)
	mustWrite(t, trunc, data[:len(data)-7])

	f, err := Open(trunc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, planErr := f.Partitions(4)
	if planErr == nil {
		t.Fatal("planning a truncated file succeeded")
	}
	scanErr := f.ForEachBatchCtx(context.Background(), func([]Record) error { return nil })
	if scanErr == nil || planErr.Error() != scanErr.Error() {
		t.Fatalf("plan error %q differs from scan error %q", planErr, scanErr)
	}
	// And the failure is cached, not replanned.
	if _, err := f.Partitions(2); err == nil || err.Error() != planErr.Error() {
		t.Fatalf("cached plan error mismatch: %v", err)
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustWrite(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
