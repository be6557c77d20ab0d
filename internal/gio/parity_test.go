package gio

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// The block-pipelined engine must be observationally identical to the
// bytewise reference decoder: same records in the same order, the same
// error (as a string, including the record/vertex indices in the message)
// on truncated and corrupt files, and the same Stats accounting. These
// tests compare the two paths record for record and byte for byte.

// scanOutcome captures everything observable from one full scan attempt.
type scanOutcome struct {
	recs  []Record // deep copies
	err   error
	stats Stats
}

func (o scanOutcome) errString() string {
	if o.err == nil {
		return "<nil>"
	}
	return o.err.Error()
}

// runScan scans path with the given engine ("batch" for the pipelined
// engine, "bytewise", "mmap" or "mmap-zerocopy") and block size, collecting
// records, final error and stats. The mmap engines open through OpenMmap;
// on fallback builds they degrade to the pipelined engine, which keeps the
// parity assertions meaningful (if trivial) under -tags nommap.
func runScan(t testing.TB, path string, engine string, blockSize int) (out scanOutcome) {
	t.Helper()
	var counters Counters
	var f *File
	var err error
	if engine == "mmap" || engine == "mmap-zerocopy" {
		f, err = OpenMmap(path, blockSize, &counters)
		if err == nil {
			f.SetMmapZeroCopy(engine == "mmap-zerocopy")
		}
	} else {
		f, err = Open(path, blockSize, &counters)
	}
	defer func() { out.stats = counters.Snapshot() }()
	if err != nil {
		out.err = err
		return out
	}
	defer f.Close()
	collect := func(r Record) error {
		cp := Record{ID: r.ID, Neighbors: append([]uint32(nil), r.Neighbors...)}
		out.recs = append(out.recs, cp)
		return nil
	}
	switch engine {
	case "batch", "mmap", "mmap-zerocopy":
		out.err = eachRecord(f, collect)
	case "bytewise":
		out.err = f.ForEachBytewise(collect)
	default:
		t.Fatalf("unknown engine %q", engine)
	}
	return out
}

// parityEngines are the engines held to bytewise-oracle parity: records,
// errors and Stats identical on every input, malformed ones included.
var parityEngines = []string{"batch", "mmap", "mmap-zerocopy"}

// assertParity scans path with every engine and requires identical
// outcomes.
func assertParity(t testing.TB, path string, blockSize int) {
	t.Helper()
	ref := runScan(t, path, "bytewise", blockSize)
	for _, engine := range parityEngines {
		got := runScan(t, path, engine, blockSize)
		if got.errString() != ref.errString() {
			t.Fatalf("%s (block %d): error mismatch:\n got  %s\n want %s",
				engine, blockSize, got.errString(), ref.errString())
		}
		if len(got.recs) != len(ref.recs) {
			t.Fatalf("%s (block %d): %d records, reference %d",
				engine, blockSize, len(got.recs), len(ref.recs))
		}
		for i := range got.recs {
			if got.recs[i].ID != ref.recs[i].ID {
				t.Fatalf("%s (block %d): record %d id %d, reference %d",
					engine, blockSize, i, got.recs[i].ID, ref.recs[i].ID)
			}
			a, b := got.recs[i].Neighbors, ref.recs[i].Neighbors
			if len(a) != len(b) {
				t.Fatalf("%s (block %d): record %d has %d neighbors, reference %d",
					engine, blockSize, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s (block %d): record %d neighbor %d = %d, reference %d",
						engine, blockSize, i, j, a[j], b[j])
				}
			}
		}
		// Full stats parity holds for block sizes ≥ 4096. Below that, the
		// bytewise path's bufio.Reader bypasses its own buffer for neighbor
		// reads larger than the buffer (reading up to 4096 bytes directly),
		// so its byte/block counts at toy block sizes are artifacts of that
		// bypass rather than the documented ≤-block-size read model. Scan
		// and record accounting must agree everywhere.
		if blockSize >= 4096 {
			if got.stats != ref.stats {
				t.Fatalf("%s (block %d): stats mismatch:\n got  %+v\n want %+v",
					engine, blockSize, got.stats, ref.stats)
			}
		} else if got.stats.Scans != ref.stats.Scans || got.stats.RecordsRead != ref.stats.RecordsRead {
			t.Fatalf("%s (block %d): scan/record accounting mismatch:\n got  %+v\n want %+v",
				engine, blockSize, got.stats, ref.stats)
		}
	}
}

// parityBlockSizes exercises records straddling block boundaries (tiny
// blocks), block-aligned records, and the default size.
var parityBlockSizes = []int{16, 64, 4096, DefaultBlockSize}

func writeParityFile(t testing.TB, dir string, g *graph.Graph, compressed bool, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
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
	return path
}

func TestDecoderParityWellFormed(t *testing.T) {
	dir := t.TempDir()
	graphs := map[string]*graph.Graph{
		"empty":  graph.NewBuilder(0).Build(),
		"single": graph.NewBuilder(1).Build(),
		"small":  randomGraph(21, 40, 120),
		"medium": randomGraph(22, 500, 3000),
		"dense":  randomGraph(23, 64, 1800),
	}
	for name, g := range graphs {
		for _, compressed := range []bool{false, true} {
			path := writeParityFile(t, dir, g, compressed, fmt.Sprintf("%s-%v.adj", name, compressed))
			for _, bs := range parityBlockSizes {
				assertParity(t, path, bs)
			}
		}
	}
}

// TestDecoderParityTruncated cuts a valid file at every possible length and
// requires the engines to agree on the resulting record prefix and error.
func TestDecoderParityTruncated(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(24, 30, 90)
	for _, compressed := range []bool{false, true} {
		full := writeParityFile(t, dir, g, compressed, fmt.Sprintf("full-%v.adj", compressed))
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		trunc := filepath.Join(dir, fmt.Sprintf("trunc-%v.adj", compressed))
		for cut := 0; cut <= len(data); cut++ {
			if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			assertParity(t, trunc, 64)
		}
	}
}

// TestDecoderParityCorrupt flips bytes across the body of a valid file
// (producing bad ids, impossible degrees, out-of-range neighbors and broken
// varints) and requires identical outcomes.
func TestDecoderParityCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(25, 30, 90)
	rng := rand.New(rand.NewSource(99))
	for _, compressed := range []bool{false, true} {
		full := writeParityFile(t, dir, g, compressed, fmt.Sprintf("base-%v.adj", compressed))
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := filepath.Join(dir, fmt.Sprintf("corrupt-%v.adj", compressed))
		for off := HeaderSize; off < len(data); off++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= byte(1 + rng.Intn(255))
			if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			assertParity(t, corrupt, 64)
		}
	}
}

// TestDecoderParityProperty quick-checks parity over random graphs, formats
// and block sizes.
func TestDecoderParityProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	prop := func(seed int64, nRaw, mRaw uint8, compressed bool, bsRaw uint8) bool {
		i++
		n := int(nRaw%60) + 1
		g := randomGraph(seed, n, int(mRaw)*2)
		path := writeParityFile(t, dir, g, compressed, fmt.Sprintf("q%d.adj", i))
		bs := parityBlockSizes[int(bsRaw)%len(parityBlockSizes)]
		assertParity(t, path, bs)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
