package gio_test

// Scan-throughput micro-benchmarks for the block-pipelined engine, next to
// the bytewise reference decoder so old-vs-new is one `go test -bench` (or
// benchstat) away. cmd/misbench's scanbench experiment runs the same
// comparison at larger scale and emits BENCH_scan.json.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/plrg"
)

// TestMain cleans up the shared benchmark files, which outlive any single
// benchmark (b.TempDir is torn down per benchmark).
func TestMain(m *testing.M) {
	code := m.Run()
	if benchFiles.dir != "" {
		os.RemoveAll(benchFiles.dir)
	}
	os.Exit(code)
}

const (
	benchVertices = 120_000
	benchBeta     = 2.0
)

var benchFiles struct {
	once      sync.Once
	dir       string
	raw, comp string
	sorted    string
	err       error
}

// benchFilePaths writes the benchmark graphs once per process.
func benchFilePaths(b *testing.B) (raw, comp, sorted string) {
	b.Helper()
	benchFiles.once.Do(func() {
		dir, err := os.MkdirTemp("", "gio-scanbench")
		if err != nil {
			benchFiles.err = err
			return
		}
		benchFiles.dir = dir
		g := plrg.PowerLawN(benchVertices, benchBeta, 42)
		benchFiles.raw = filepath.Join(dir, "bench.adj")
		if err := gio.WriteGraph(benchFiles.raw, g, nil, 0, nil); err != nil {
			benchFiles.err = err
			return
		}
		benchFiles.sorted = filepath.Join(dir, "bench-sorted.adj")
		if err := gio.WriteGraphSorted(benchFiles.sorted, g, nil); err != nil {
			benchFiles.err = err
			return
		}
		benchFiles.comp = filepath.Join(dir, "bench.cadj")
		benchFiles.err = gio.WriteGraph(benchFiles.comp, g, nil, gio.FlagCompressed, nil)
	})
	if benchFiles.err != nil {
		b.Fatal(benchFiles.err)
	}
	return benchFiles.raw, benchFiles.comp, benchFiles.sorted
}

func benchScan(b *testing.B, path string, engine string) {
	open := gio.Open
	if engine == "mmap" || engine == "mmap-zerocopy" {
		open = gio.OpenMmap
	}
	f, err := open(path, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if engine == "mmap" {
		f.SetMmapZeroCopy(false)
	}
	size, err := f.SizeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size - gio.HeaderSize)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		switch engine {
		case "pipelined":
			// A per-record callback, invoked from inside the batch scan.
			each := func(r gio.Record) error {
				sink += uint64(r.ID) + uint64(len(r.Neighbors))
				return nil
			}
			err = f.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
				for i := range batch {
					if err := each(batch[i]); err != nil {
						return err
					}
				}
				return nil
			})
		case "batch", "mmap", "mmap-zerocopy":
			err = f.ForEachBatchCtx(context.Background(), func(batch []gio.Record) error {
				for _, r := range batch {
					sink += uint64(r.ID) + uint64(len(r.Neighbors))
				}
				return nil
			})
		case "bytewise":
			err = f.ForEachBytewise(func(r gio.Record) error {
				sink += uint64(r.ID) + uint64(len(r.Neighbors))
				return nil
			})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if sink == 0 && b.N > 0 {
		b.Fatal("benchmark scanned nothing")
	}
}

func BenchmarkScanRaw(b *testing.B) {
	raw, _, _ := benchFilePaths(b)
	benchScan(b, raw, "pipelined")
}

func BenchmarkScanRawBatch(b *testing.B) {
	raw, _, _ := benchFilePaths(b)
	benchScan(b, raw, "batch")
}

func BenchmarkScanRawMmap(b *testing.B) {
	raw, _, _ := benchFilePaths(b)
	benchScan(b, raw, "mmap")
}

func BenchmarkScanRawMmapZeroCopy(b *testing.B) {
	raw, _, _ := benchFilePaths(b)
	benchScan(b, raw, "mmap-zerocopy")
}

func BenchmarkScanRawBytewise(b *testing.B) {
	raw, _, _ := benchFilePaths(b)
	benchScan(b, raw, "bytewise")
}

func BenchmarkScanCompressed(b *testing.B) {
	_, comp, _ := benchFilePaths(b)
	benchScan(b, comp, "pipelined")
}

func BenchmarkScanCompressedBatch(b *testing.B) {
	_, comp, _ := benchFilePaths(b)
	benchScan(b, comp, "batch")
}

func BenchmarkScanCompressedBytewise(b *testing.B) {
	_, comp, _ := benchFilePaths(b)
	benchScan(b, comp, "bytewise")
}

// BenchmarkGreedyScan runs the whole Greedy algorithm — one scan plus the
// per-vertex state machine — so the scan engine is measured under its most
// important consumer.
func BenchmarkGreedyScan(b *testing.B) {
	_, _, sorted := benchFilePaths(b)
	f, err := gio.Open(sorted, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	size, err := f.SizeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size - gio.HeaderSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GreedyCtx(context.Background(), f, core.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Size == 0 {
			b.Fatal("greedy found nothing")
		}
	}
}
