package gio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzOpenAndScan feeds arbitrary bytes to the adjacency-file reader: it
// must either reject the file or scan it to completion without panicking,
// unbounded allocation, or out-of-range neighbor IDs — the guarantees the
// semi-external algorithms rely on when handed untrusted files.
func FuzzOpenAndScan(f *testing.F) {
	// Seed corpus: valid raw and compressed files, a truncated one and a
	// raw one with an out-of-range neighbor.
	dir := f.TempDir()
	g := graph.FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	raw := filepath.Join(dir, "raw.adj")
	if err := WriteGraphSorted(raw, g, nil); err != nil {
		f.Fatal(err)
	}
	rawBytes, err := os.ReadFile(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rawBytes)
	f.Add(rawBytes[:len(rawBytes)-5])
	f.Add([]byte(Magic))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	// A raw file whose vertex 1 lists neighbor 7 of 3 vertices: every
	// raw decoder must reject it as the varint decoder does.
	badRaw := filepath.Join(dir, "bad-raw.adj")
	bw, err := NewWriter(badRaw, 0, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for v, nbrs := range [][]uint32{{1}, {0, 7}, {}} {
		if err := bw.Append(uint32(v), nbrs); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		f.Fatal(err)
	}
	badRawBytes, err := os.ReadFile(badRaw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badRawBytes)

	comp := filepath.Join(dir, "comp.adj")
	w, err := NewWriter(comp, FlagCompressed, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if err := w.Append(uint32(v), g.Neighbors(uint32(v))); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	compBytes, err := os.ReadFile(comp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compBytes)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.adj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		file, err := Open(path, 0, nil)
		if err != nil {
			return // rejected cleanly
		}
		defer file.Close()
		n := file.NumVertices()
		records := 0
		_ = eachRecord(file, func(r Record) error {
			records++
			if int(r.ID) >= n {
				t.Fatalf("scanner delivered out-of-range id %d (n=%d)", r.ID, n)
			}
			for _, nb := range r.Neighbors {
				if int(nb) >= n {
					t.Fatalf("scanner delivered out-of-range neighbor %d (n=%d)", nb, n)
				}
			}
			if records > n {
				t.Fatal("scanner delivered more records than the header promised")
			}
			return nil
		})
		// Decoder parity: whatever the input, the block-pipelined engine and
		// the bytewise reference decoder must agree on records and errors.
		assertParity(t, path, 4096)
		assertParity(t, path, DefaultBlockSize)
	})
}

// FuzzEdgeListText feeds arbitrary text to the edge-list parser: it must
// parse or reject without panicking, and anything it parses must be a valid
// simple graph.
func FuzzEdgeListText(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n3 4 extra\n")
	f.Add("a b\n")
	f.Add("-1 7\n")
	f.Add("99999999999999999999 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ReadEdgeListText(bytes.NewReader([]byte(src)))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parser produced an invalid graph: %v", err)
		}
	})
}
