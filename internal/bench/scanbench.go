// Scanbench measures raw sequential-scan throughput of the gio engines —
// the block-pipelined decoder, the memory-mapped decoder (with and without
// zero-copy aliasing), and the bytewise reference decoder — and emits a
// machine-readable BENCH_scan.json so the perf trajectory of the scan path
// is tracked across PRs (the ROADMAP's "as fast as the hardware allows"
// north star is, for this library, exactly this number).
//
// Methodology: every measurement is a full pass folding the record ID and
// every neighbor VALUE into a sink — not just the degree — so engines that
// skip materializing neighbors (mmap-zerocopy) are charged for actually
// delivering them, the access pattern of every real algorithm pass. Warm
// runs keep the file open across trials and report best-of (steady-state
// page-cache throughput); -cold runs re-open the file and ask the kernel to
// evict its pages (posix_fadvise DONTNEED) before every trial, reporting the
// first-read profile instead. The report records which mode produced it and
// whether eviction was actually available.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gio"
	"repro/internal/plrg"
)

// scanBenchEngines is the ablation, in presentation order. "mmap" maps the
// file but decodes into the arena (isolates removing the prefetch copy);
// "mmap-zerocopy" additionally aliases raw neighbor lists straight into the
// mapping (isolates removing the arena copy; compressed files always decode
// into the arena, so there its rows measure the same path as "mmap").
var scanBenchEngines = []string{"bytewise", "pipelined", "batch", "mmap", "mmap-zerocopy"}

// ScanBenchResult is one (file format, engine) measurement.
type ScanBenchResult struct {
	Format  string  `json:"format"` // "raw" or "compressed"
	Engine  string  `json:"engine"` // see scanBenchEngines
	Bytes   int64   `json:"bytes"`  // payload scanned per pass
	NsPerOp int64   `json:"ns_per_op"`
	MBPerS  float64 `json:"mb_per_s"`
}

// ScanBenchReport is the BENCH_scan.json document.
type ScanBenchReport struct {
	Go        string `json:"go"`
	NumCPU    int    `json:"num_cpu"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	BlockSize int    `json:"block_size"`
	Trials    int    `json:"trials"`
	// CacheMode is the page-cache state the trials ran under: "warm" (file
	// resident from the preceding trials; best-of measures steady state) or
	// "cold" (pages evicted and the file re-opened before every trial).
	CacheMode string `json:"cache_mode"`
	// ColdSupported reports whether page-cache eviction was available; a
	// cold run without it degrades to warm and says so here.
	ColdSupported bool `json:"cold_supported"`
	// MmapActive is false when the mmap engines fell back to the pipelined
	// engine (platform without mmap or nommap build): their rows then
	// measure the fallback, not a mapping.
	MmapActive bool `json:"mmap_active"`
	// MmapZeroCopy reports whether zero-copy aliasing was live for the raw
	// mmap-zerocopy rows (requires a little-endian host and an active map).
	MmapZeroCopy bool `json:"mmap_zerocopy"`
	// Consumer documents the per-record fold the timings charge every
	// engine for.
	Consumer string            `json:"consumer"`
	Results  []ScanBenchResult `json:"results"`
	// Speedup is pipelined-over-bytewise throughput per format, the
	// old-vs-new headline number.
	Speedup map[string]float64 `json:"speedup"`
	// SpeedupVsPipelined normalizes every engine to the pipelined engine on
	// the same format ("format/engine" → ×), the mmap ablation headline.
	SpeedupVsPipelined map[string]float64 `json:"speedup_vs_pipelined"`
}

// ScanBench runs the scan-throughput comparison and writes BENCH_scan.json
// (to cfg.ScanBenchOut, or the work directory when unset).
func ScanBench(cfg *Config) error {
	cfg = cfg.withDefaults()
	n := cfg.SweepVertices * 4
	g := plrg.PowerLawN(n, 2.0, cfg.Seed)

	rawPath, err := cfg.cachedFile(fmt.Sprintf("scanbench-raw-n%d", n), func(path string) error {
		return gio.WriteGraph(path, g, nil, 0, nil)
	})
	if err != nil {
		return err
	}
	compPath, err := cfg.cachedFile(fmt.Sprintf("scanbench-comp-n%d", n), func(path string) error {
		return gio.WriteGraph(path, g, nil, gio.FlagCompressed, nil)
	})
	if err != nil {
		return err
	}

	cold := cfg.ScanBenchCold
	coldOK := false
	if cold {
		if err := gio.DropPageCache(rawPath); err != nil {
			cfg.printf("cold mode unavailable (%v): falling back to warm trials\n", err)
			cold = false
		} else {
			coldOK = true
		}
	}

	const trials = 5
	report := ScanBenchReport{
		Go:                 runtime.Version(),
		NumCPU:             runtime.NumCPU(),
		Vertices:           g.NumVertices(),
		Edges:              g.NumEdges(),
		BlockSize:          gio.DefaultBlockSize,
		Trials:             trials,
		CacheMode:          map[bool]string{false: "warm", true: "cold"}[cold],
		ColdSupported:      coldOK,
		Consumer:           "sum of record ID and every neighbor value",
		Speedup:            map[string]float64{},
		SpeedupVsPipelined: map[string]float64{},
	}
	{
		// Probe what the mmap engines actually run on this platform/build.
		probe, err := gio.OpenMmap(rawPath, 0, nil)
		if err != nil {
			return err
		}
		report.MmapActive = probe.MmapActive()
		report.MmapZeroCopy = probe.MmapZeroCopy()
		probe.Close()
	}

	files := []struct{ format, path string }{
		{"raw", rawPath},
		{"compressed", compPath},
	}
	best := map[string]float64{} // format/engine → MB/s
	for _, fl := range files {
		fi, err := os.Stat(fl.path)
		if err != nil {
			return err
		}
		payload := fi.Size() - gio.HeaderSize
		for _, engine := range scanBenchEngines {
			var bestNs int64
			run := func(f *gio.File) error {
				ns, err := timeScan(f, engine)
				if err != nil {
					return err
				}
				if bestNs == 0 || ns < bestNs {
					bestNs = ns
				}
				return nil
			}
			if cold {
				// Cold profile: evict the file's pages and re-open per trial,
				// so every trial pays the first-read I/O and the per-scan
				// setup (open, mmap) instead of amortizing them.
				for t := 0; t < trials; t++ {
					if err := gio.DropPageCache(fl.path); err != nil {
						return err
					}
					f, err := openScanBenchFile(fl.path, engine)
					if err != nil {
						return err
					}
					err = run(f)
					f.Close()
					if err != nil {
						return err
					}
				}
			} else {
				f, err := openScanBenchFile(fl.path, engine)
				if err != nil {
					return err
				}
				for t := 0; t < trials; t++ {
					if err := run(f); err != nil {
						f.Close()
						return err
					}
				}
				f.Close()
			}
			mbps := float64(payload) / (float64(bestNs) / 1e9) / 1e6
			best[fl.format+"/"+engine] = mbps
			report.Results = append(report.Results, ScanBenchResult{
				Format:  fl.format,
				Engine:  engine,
				Bytes:   payload,
				NsPerOp: bestNs,
				MBPerS:  mbps,
			})
			cfg.printf("%-11s %-13s %8.1f MB/s\n", fl.format, engine, mbps)
		}
	}
	for _, fl := range files {
		report.Speedup[fl.format] = best[fl.format+"/pipelined"] / best[fl.format+"/bytewise"]
		for _, engine := range scanBenchEngines {
			if engine == "pipelined" {
				continue
			}
			key := fl.format + "/" + engine
			report.SpeedupVsPipelined[key] = best[key] / best[fl.format+"/pipelined"]
		}
	}
	cfg.printf("speedup (pipelined vs bytewise): raw %.2fx, compressed %.2fx\n",
		report.Speedup["raw"], report.Speedup["compressed"])
	cfg.printf("speedup vs pipelined: raw mmap %.2fx, raw mmap-zerocopy %.2fx, compressed mmap %.2fx\n",
		report.SpeedupVsPipelined["raw/mmap"],
		report.SpeedupVsPipelined["raw/mmap-zerocopy"],
		report.SpeedupVsPipelined["compressed/mmap"])

	out := cfg.ScanBenchOut
	if out == "" {
		out = filepath.Join(cfg.WorkDir, "BENCH_scan.json")
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	cfg.printf("wrote %s\n", out)
	return nil
}

// openScanBenchFile opens path with the engine's I/O path: OpenMmap for the
// mmap engines (zero-copy aliasing toggled per engine), Open otherwise.
func openScanBenchFile(path, engine string) (*gio.File, error) {
	if engine == "mmap" || engine == "mmap-zerocopy" {
		f, err := gio.OpenMmap(path, 0, nil)
		if err != nil {
			return nil, err
		}
		f.SetMmapZeroCopy(engine == "mmap-zerocopy")
		return f, nil
	}
	return gio.Open(path, 0, nil)
}

// timeScan measures one full scan of f with the given engine, folding every
// record's ID and every neighbor value into a sink.
func timeScan(f *gio.File, engine string) (int64, error) {
	var sink uint64
	fold := func(r gio.Record) {
		sink += uint64(r.ID)
		for _, nb := range r.Neighbors {
			sink += uint64(nb)
		}
	}
	start := time.Now()
	var err error
	switch engine {
	case "pipelined":
		// The per-record row: a callback invoked once per record from
		// inside the batch scan, as a record-at-a-time consumer pays.
		each := func(r gio.Record) error {
			fold(r)
			return nil
		}
		err = f.ForEachBatchCtx(context.TODO(), func(batch []gio.Record) error {
			for i := range batch {
				if err := each(batch[i]); err != nil {
					return err
				}
			}
			return nil
		})
	case "batch", "mmap", "mmap-zerocopy":
		err = f.ForEachBatchCtx(context.TODO(), func(batch []gio.Record) error {
			for _, r := range batch {
				fold(r)
			}
			return nil
		})
	case "bytewise":
		err = f.ForEachBytewise(func(r gio.Record) error {
			fold(r)
			return nil
		})
	default:
		err = fmt.Errorf("bench: unknown scan engine %q", engine)
	}
	elapsed := time.Since(start).Nanoseconds()
	if err != nil {
		return 0, err
	}
	if sink == 0 && f.NumVertices() > 1 {
		return 0, fmt.Errorf("bench: scan of %s decoded nothing", f.Path())
	}
	return elapsed, nil
}
