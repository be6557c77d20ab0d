package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/gio"
	"repro/internal/graph"
)

// The parallel partitioned executor must be observationally identical to the
// sequential engine it wraps: the same records in the same order, the same
// first error (as a string, including record/vertex indices), and the same
// Stats accounting on completed scans — for every worker count, file format,
// block size, and for malformed inputs, which take the sequential fallback.

var parityWorkers = []int{2, 4, 7}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return b.Build()
}

// hubGraph produces a heavily skewed graph: one vertex adjacent to all
// others, so a single record dominates the payload and stresses partition
// balancing and the arena-overflow (pending record) machinery.
func hubGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, uint32(v))
	}
	return b.Build()
}

func writeFile(t testing.TB, dir string, g *graph.Graph, compressed bool, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	flags := uint32(0)
	if compressed {
		flags = gio.FlagCompressed
	}
	w, err := gio.NewWriter(path, flags, 0, nil)
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
	return path
}

// scanOutcome captures everything observable from one full scan attempt.
type scanOutcome struct {
	recs  []gio.Record // deep copies
	err   error
	stats gio.Stats
}

func (o scanOutcome) errString() string {
	if o.err == nil {
		return "<nil>"
	}
	return o.err.Error()
}

// execEngine selects how runScan opens files: "" is the block-pipelined
// engine, "mmap" and "mmap-zerocopy" the mapped one (TestParallelParityMmap
// flips it to re-run the core parity tests against those engines, workers
// and malformed inputs included).
var execEngine string

func openTestFile(path string, blockSize int, c *gio.Counters) (*gio.File, error) {
	if execEngine == "" {
		return gio.Open(path, blockSize, c)
	}
	f, err := gio.OpenMmap(path, blockSize, c)
	if err == nil {
		f.SetMmapZeroCopy(execEngine == "mmap-zerocopy")
	}
	return f, err
}

// runScan scans path with the given worker count (1 = the sequential
// engine), collecting records, final error and stats.
func runScan(t testing.TB, path string, workers, blockSize int) (out scanOutcome) {
	t.Helper()
	var counters gio.Counters
	defer func() { out.stats = counters.Snapshot() }()
	f, err := openTestFile(path, blockSize, &counters)
	if err != nil {
		out.err = err
		return out
	}
	defer f.Close()
	collect := func(batch []gio.Record) error {
		for _, r := range batch {
			out.recs = append(out.recs, gio.Record{
				ID:        r.ID,
				Neighbors: append([]uint32(nil), r.Neighbors...),
			})
		}
		return nil
	}
	if workers == 1 {
		out.err = f.ForEachBatchCtx(context.Background(), collect)
	} else {
		// Warm the partition plan so this scan exercises the parallel merge
		// path rather than the cold-start sequential capture scan (which has
		// its own parity tests below). Planning failure is the executor's
		// fallback signal and is deliberately ignored here.
		_, _ = f.Partitions(workers * 2)
		out.err = New(f, workers).ForEachBatchCtx(context.Background(), collect)
	}
	return out
}

func assertSameOutcome(t testing.TB, label string, got, want scanOutcome, checkStats bool) {
	t.Helper()
	if got.errString() != want.errString() {
		t.Fatalf("%s: error mismatch:\n got  %s\n want %s", label, got.errString(), want.errString())
	}
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d records, reference %d", label, len(got.recs), len(want.recs))
	}
	for i := range got.recs {
		if got.recs[i].ID != want.recs[i].ID {
			t.Fatalf("%s: record %d id %d, reference %d", label, i, got.recs[i].ID, want.recs[i].ID)
		}
		a, b := got.recs[i].Neighbors, want.recs[i].Neighbors
		if len(a) != len(b) {
			t.Fatalf("%s: record %d has %d neighbors, reference %d", label, i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: record %d neighbor %d = %d, reference %d", label, i, j, a[j], b[j])
			}
		}
	}
	if checkStats && got.stats != want.stats {
		t.Fatalf("%s: stats mismatch:\n got  %+v\n want %+v", label, got.stats, want.stats)
	}
}

// assertParity scans path sequentially and with every parity worker count,
// requiring identical outcomes. Stats are compared in full on every path:
// completed parallel scans account exactly what the sequential engine
// counts, and failed ones take the sequential fallback wholesale.
func assertParity(t testing.TB, path string, blockSize int) {
	t.Helper()
	ref := runScan(t, path, 1, blockSize)
	for _, w := range parityWorkers {
		got := runScan(t, path, w, blockSize)
		assertSameOutcome(t, fmt.Sprintf("workers=%d block=%d", w, blockSize), got, ref, true)
	}
}

var parityBlockSizes = []int{4096, 64 * 1024, gio.DefaultBlockSize}

func TestParallelParityWellFormed(t *testing.T) {
	dir := t.TempDir()
	graphs := map[string]*graph.Graph{
		"empty":  graph.NewBuilder(0).Build(),
		"single": graph.NewBuilder(1).Build(),
		"small":  randomGraph(21, 40, 120),
		"medium": randomGraph(22, 700, 5000),
		"hub":    hubGraph(2000),
	}
	for name, g := range graphs {
		for _, compressed := range []bool{false, true} {
			path := writeFile(t, dir, g, compressed, fmt.Sprintf("%s-%v.adj", name, compressed))
			for _, bs := range parityBlockSizes {
				assertParity(t, path, bs)
			}
		}
	}
}

// TestParallelParityProperty quick-checks parity over random graphs, formats,
// block sizes and worker counts.
func TestParallelParityProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	prop := func(seed int64, nRaw uint16, mRaw uint8, compressed bool, bsRaw uint8) bool {
		i++
		n := int(nRaw%900) + 1
		g := randomGraph(seed, n, int(mRaw)*8)
		path := writeFile(t, dir, g, compressed, fmt.Sprintf("q%d.adj", i))
		bs := parityBlockSizes[int(bsRaw)%len(parityBlockSizes)]
		assertParity(t, path, bs)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelParityTruncated cuts a valid file at sampled lengths and
// requires the executor to agree with the sequential engine on the record
// prefix, error and stats (malformed files take the sequential fallback).
func TestParallelParityTruncated(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(24, 60, 200)
	for _, compressed := range []bool{false, true} {
		full := writeFile(t, dir, g, compressed, fmt.Sprintf("full-%v.adj", compressed))
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		trunc := filepath.Join(dir, fmt.Sprintf("trunc-%v.adj", compressed))
		for cut := 0; cut <= len(data); cut += 1 + cut/16 {
			if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			assertParity(t, trunc, 4096)
		}
	}
}

// TestParallelParityCorrupt flips sampled bytes across the body of a valid
// file and requires identical outcomes.
func TestParallelParityCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(25, 60, 200)
	rng := rand.New(rand.NewSource(99))
	for _, compressed := range []bool{false, true} {
		full := writeFile(t, dir, g, compressed, fmt.Sprintf("base-%v.adj", compressed))
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := filepath.Join(dir, fmt.Sprintf("corrupt-%v.adj", compressed))
		for off := gio.HeaderSize; off < len(data); off += 1 + rng.Intn(7) {
			mut := append([]byte(nil), data...)
			mut[off] ^= byte(1 + rng.Intn(255))
			if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			assertParity(t, corrupt, 4096)
		}
	}
}

// TestCallbackErrorPropagation verifies that an error returned by the
// consumer callback stops the scan and surfaces verbatim, after exactly the
// same record prefix as on the sequential engine.
func TestCallbackErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(31, 500, 2500)
	path := writeFile(t, dir, g, false, "cberr.adj")
	sentinel := errors.New("stop here")

	run := func(workers, stopAfter int) (int, error) {
		f, err := gio.Open(path, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		seen := 0
		err = New(f, workers).ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
			for range batch {
				seen++
				if seen >= stopAfter {
					return sentinel
				}
			}
			return nil
		})
		return seen, err
	}

	for _, stopAfter := range []int{1, 57, 499} {
		wantSeen, wantErr := run(1, stopAfter)
		if !errors.Is(wantErr, sentinel) {
			t.Fatalf("sequential: got error %v", wantErr)
		}
		for _, w := range parityWorkers {
			seen, err := run(w, stopAfter)
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d stop=%d: got error %v", w, stopAfter, err)
			}
			if seen != wantSeen {
				t.Fatalf("workers=%d stop=%d: saw %d records, sequential saw %d", w, stopAfter, seen, wantSeen)
			}
		}
	}
}

// TestPostPlanCorruption corrupts a byte mid-file after the partition plan
// has been built, so the failure surfaces inside a worker's partition scan
// rather than during planning. The merged outcome must be deterministic: the
// earliest failing partition in scan order decides the error, repeatably.
func TestPostPlanCorruption(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(47, 3000, 20000)
	path := writeFile(t, dir, g, false, "postplan.adj")

	f, err := gio.Open(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parts, err := f.Partitions(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 3 {
		t.Fatalf("want ≥3 partitions, got %d", len(parts))
	}

	// Corrupt the first record header of a middle partition: out-of-range id.
	mid := parts[len(parts)/2]
	raw, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, mid.StartOffset); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	outcome := func() (int, error) {
		seen := 0
		err := New(f, 4).ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
			seen += len(batch)
			return nil
		})
		return seen, err
	}
	seen1, err1 := outcome()
	if err1 == nil {
		t.Fatal("corrupted partition did not surface an error")
	}
	if !errors.Is(err1, gio.ErrBadFormat) {
		t.Fatalf("error does not wrap ErrBadFormat: %v", err1)
	}
	if uint64(seen1) != mid.StartRecord {
		t.Fatalf("saw %d records before the error, want the %d of earlier partitions", seen1, mid.StartRecord)
	}
	for i := 0; i < 3; i++ {
		seen2, err2 := outcome()
		if seen2 != seen1 || err2.Error() != err1.Error() {
			t.Fatalf("nondeterministic outcome: (%d, %v) then (%d, %v)", seen1, err1, seen2, err2)
		}
	}
}

// TestColdStartCapturePar checks the executor's cold start: with no cached
// plan, the first ForEachBatchCtx runs the sequential engine while capturing
// the partition plan (one physical pass, no planning side scan), and the second
// scan goes parallel off the captured plan — both observationally identical
// to the sequential engine.
func TestColdStartCapturePar(t *testing.T) {
	dir := t.TempDir()
	for _, compressed := range []bool{false, true} {
		g := randomGraph(53, 800, 6000)
		path := writeFile(t, dir, g, compressed, fmt.Sprintf("cold-%v.adj", compressed))
		ref := runScan(t, path, 1, 4096)
		for _, w := range parityWorkers {
			var stats gio.Counters
			f, err := openTestFile(path, 4096, &stats)
			if err != nil {
				t.Fatal(err)
			}
			ex := New(f, w)
			for scan := 0; scan < 2; scan++ {
				label := fmt.Sprintf("compressed=%v workers=%d scan=%d", compressed, w, scan)
				got := scanOutcome{}
				statsBefore := stats.Snapshot()
				got.err = ex.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
					for _, r := range batch {
						got.recs = append(got.recs, gio.Record{
							ID:        r.ID,
							Neighbors: append([]uint32(nil), r.Neighbors...),
						})
					}
					return nil
				})
				got.stats = stats.Snapshot().Sub(statsBefore)
				assertSameOutcome(t, label, got, ref, true)
				if !f.HasPartitionPlan() {
					t.Fatalf("%s: no partition plan captured by the cold-start scan", label)
				}
			}
			f.Close()
		}
	}
}

// TestColdStartCaptureTrailingBytes appends junk after the last record: the
// capture must refuse to install a plan (its offsets cannot validate), scans
// must stay correct, and later scans must still reach the parallel path via
// the self-checking planning side scan.
func TestColdStartCaptureTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(54, 400, 2400)
	path := writeFile(t, dir, g, false, "trailing.adj")
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write([]byte("junk-past-the-last-record")); err != nil {
		t.Fatal(err)
	}
	fh.Close()

	ref := runScan(t, path, 1, 4096)
	f, err := gio.Open(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ex := New(f, 4)
	for scan := 0; scan < 2; scan++ {
		got := scanOutcome{stats: ref.stats}
		got.err = ex.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
			for _, r := range batch {
				got.recs = append(got.recs, gio.Record{
					ID:        r.ID,
					Neighbors: append([]uint32(nil), r.Neighbors...),
				})
			}
			return nil
		})
		assertSameOutcome(t, fmt.Sprintf("trailing scan=%d", scan), got, ref, false)
	}
	if !f.HasPartitionPlan() {
		t.Fatal("side-scan planning should have installed a plan after the failed capture")
	}
	if f.PlanCaptureViable() {
		t.Fatal("capture should be marked non-viable after offset validation failed")
	}
}
