package gio

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// writeCompressed writes g as a compressed, degree-record-ordered file.
func writeCompressed(t *testing.T, g *graph.Graph, path string) {
	t.Helper()
	w, err := NewWriter(path, FlagDegreeSorted|FlagCompressed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range DegreeOrder(g) {
		if err := w.Append(v, g.Neighbors(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	g := randomGraph(11, 300, 900)
	path := filepath.Join(t.TempDir(), "c.adj")
	writeCompressed(t, g, path)
	back, err := LoadGraph(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	ok := true
	g.Edges(func(u, v uint32) bool {
		if !back.HasEdge(u, v) {
			ok = false
			return false
		}
		return true
	})
	if !ok {
		t.Fatal("edges lost in compressed round trip")
	}
}

func TestCompressedSmaller(t *testing.T) {
	// Delta-encoded lists should beat fixed 4-byte neighbors on any graph
	// whose IDs fit well under 2^28.
	g := randomGraph(12, 2000, 8000)
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.adj")
	comp := filepath.Join(dir, "comp.adj")
	if err := WriteGraphSorted(raw, g, nil); err != nil {
		t.Fatal(err)
	}
	writeCompressed(t, g, comp)
	ri, err := os.Stat(raw)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.Stat(comp)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Size() >= ri.Size() {
		t.Fatalf("compressed %d not smaller than raw %d", ci.Size(), ri.Size())
	}
	t.Logf("raw %d bytes, compressed %d bytes (%.1f%%)",
		ri.Size(), ci.Size(), 100*float64(ci.Size())/float64(ri.Size()))
}

func TestCompressedScanOrderPreserved(t *testing.T) {
	g := randomGraph(13, 150, 400)
	path := filepath.Join(t.TempDir(), "c.adj")
	writeCompressed(t, g, path)
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Header().DegreeSorted() {
		t.Fatal("flag lost")
	}
	prev := -1
	err = eachRecord(f, func(r Record) error {
		if len(r.Neighbors) < prev {
			t.Fatal("record degree order lost under compression")
		}
		prev = len(r.Neighbors)
		// Neighbor lists come back ascending by ID.
		for i := 1; i < len(r.Neighbors); i++ {
			if r.Neighbors[i-1] >= r.Neighbors[i] {
				t.Fatalf("vertex %d: neighbors not ascending", r.ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressedTruncation(t *testing.T) {
	g := randomGraph(14, 60, 150)
	path := filepath.Join(t.TempDir(), "c.adj")
	writeCompressed(t, g, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = stripFooter(t, data) // truncate record bytes, not footer bytes
	trunc := filepath.Join(t.TempDir(), "t.adj")
	if err := os.WriteFile(trunc, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(trunc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := eachRecord(f, func(Record) error { return nil }); err == nil {
		t.Fatal("truncated compressed file scanned cleanly")
	}
}

func TestCompressedProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%50) + 1
		g := randomGraph(seed, n, int(mRaw))
		dir, err := os.MkdirTemp("", "gioc")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "c.adj")
		w, err := NewWriter(path, FlagCompressed, 0, nil)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if err := w.Append(uint32(v), g.Neighbors(uint32(v))); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		back, err := LoadGraph(path, nil)
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.Edges(func(u, v uint32) bool {
			if !back.HasEdge(u, v) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
