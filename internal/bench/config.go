// Package bench contains one runner per table and figure of the paper's
// evaluation (Section 7). Each runner generates its workload, executes the
// algorithms, and prints rows shaped like the paper's artifact so the two
// can be compared side by side.
//
// Real datasets are replaced by synthetic power-law stand-ins with the same
// name, power-law shape and average degree, scaled to laptop size: shape,
// not scale, is what the algorithms respond to.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Config controls workload sizes for all experiments.
type Config struct {
	// WorkDir holds generated graph files (reused across experiments).
	// Empty selects a temp directory.
	WorkDir string
	// DatasetScale divides the paper's dataset vertex counts, e.g. 1000
	// turns the 59M-vertex Facebook graph into a 59k-vertex stand-in.
	// ≤ 0 selects 1000.
	DatasetScale int
	// SweepVertices is the graph size for the β sweeps (Tables 2 and 9,
	// Figures 6, 8 and 10; the paper uses 10M). ≤ 0 selects 50000.
	SweepVertices int
	// SweepTrials is how many random graphs are averaged per β (the paper
	// uses 10). ≤ 0 selects 3.
	SweepTrials int
	// Seed drives all generation.
	Seed int64
	// Out receives the formatted tables; nil selects os.Stdout.
	Out io.Writer
	// ScanBenchOut is where the scanbench experiment writes its
	// machine-readable BENCH_scan.json; empty selects the work directory.
	ScanBenchOut string
	// ParScanBenchOut is where the parscanbench experiment writes its
	// machine-readable BENCH_parscan.json; empty selects the work directory.
	ParScanBenchOut string
	// ScanBenchCold makes scanbench evict the benchmark file's pages from
	// the OS page cache and re-open the file before every trial, measuring
	// the cold first-read profile instead of steady-state warm-cache
	// throughput. On platforms without page-cache control the run degrades
	// to warm trials and the report records that.
	ScanBenchCold bool
	// Force lets parscanbench overwrite an existing BENCH_parscan.json even
	// on a host with fewer than 4 CPUs, where the sweep can only measure
	// scheduling overhead and would clobber a meaningful multi-core artifact
	// with a meaningless one. Without it, such a run refuses to overwrite.
	Force bool

	mu        sync.Mutex
	files     map[string]string // cached generated graph files by key
	runsCache []*datasetRun     // cached per-dataset measurements
}

func (c *Config) withDefaults() *Config {
	if c.DatasetScale <= 0 {
		c.DatasetScale = 1000
	}
	if c.SweepVertices <= 0 {
		c.SweepVertices = 50000
	}
	if c.SweepTrials <= 0 {
		c.SweepTrials = 3
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.WorkDir == "" {
		dir, err := os.MkdirTemp("", "misbench")
		if err != nil {
			panic(fmt.Sprintf("bench: temp dir: %v", err))
		}
		c.WorkDir = dir
	} else if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		panic(fmt.Sprintf("bench: work dir %s: %v", c.WorkDir, err))
	}
	if c.files == nil {
		c.files = make(map[string]string)
	}
	return c
}

// cachedFile returns the path for key, generating it with gen on first use.
func (c *Config) cachedFile(key string, gen func(path string) error) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.files == nil {
		c.files = make(map[string]string)
	}
	if p, ok := c.files[key]; ok {
		return p, nil
	}
	path := filepath.Join(c.WorkDir, key+".adj")
	if _, err := os.Stat(path); err != nil {
		if err := gen(path); err != nil {
			return "", err
		}
	}
	c.files[key] = path
	return path, nil
}

func (c *Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// Experiments maps experiment IDs to their runners.
func Experiments() map[string]func(*Config) error {
	return map[string]func(*Config) error{
		"table1":                Table1,
		"lemma1":                Lemma1,
		"table2":                Table2,
		"fig6":                  Fig6,
		"table4":                Table4,
		"table5":                Table5,
		"table6":                Table6,
		"table7":                Table7,
		"table8":                Table8,
		"table9":                Table9,
		"fig5":                  Fig5,
		"fig8":                  Fig8,
		"fig9":                  Fig9,
		"fig10":                 Fig10,
		"ablation-io":           AblationIO,
		"ablation-earlystop":    AblationEarlyStop,
		"ablation-sort":         AblationSort,
		"ablation-pq":           AblationPQ,
		"ablation-randomaccess": AblationRandomAccess,
		"scanbench":             ScanBench,
		"parscanbench":          ParScanBench,
	}
}

// Order lists experiment IDs in the paper's presentation order, followed by
// this reproduction's own ablations.
func Order() []string {
	return []string{
		"table1", "table2", "fig6", "table4", "table5", "table6", "table7",
		"table8", "table9", "fig5", "fig8", "fig9", "fig10", "lemma1",
		"ablation-io", "ablation-earlystop", "ablation-sort", "ablation-pq",
		"ablation-randomaccess", "scanbench", "parscanbench",
	}
}
