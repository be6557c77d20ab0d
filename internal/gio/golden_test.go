package gio

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// TestGoldenFormat pins the on-disk encoding byte for byte. If this test
// breaks, the file format changed: either revert the change or bump the
// format version — silently breaking every existing adjacency file is not
// an option for a storage library.
func TestGoldenFormat(t *testing.T) {
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	path := filepath.Join(t.TempDir(), "golden.adj")
	// Fixed scan order 0,1,2 with neighbor lists by (degree, id).
	if err := WriteGraph(path, g, []uint32{0, 1, 2}, FlagDegreeSorted, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4d4953414 44a310a" + // "MISADJ1\n"
		"01000000" + // version 1
		"01000000" + // flags: degree-sorted
		"0300000000000000" + // 3 vertices
		"0200000000000000" + // 2 edges
		"00000000" + "01000000" + "01000000" + // v0: deg 1, nbr 1
		"01000000" + "02000000" + "00000000" + "02000000" + // v1: deg 2, nbrs 0,2
		"02000000" + "01000000" + "01000000" + // v2: deg 1, nbr 1
		// Footer block (see footer.go): cut table persisted at write time.
		"4d4953465442310a" + // "MISFTB1\n"
		"01000000" + // footer version 1 + reserved
		"0300000000000000" + // 3 records
		"02000000" + // 2 cut entries
		"0000000000000000" + "2000000000000000" + // cut (record 0, offset 32)
		"0300000000000000" + "4800000000000000" + // cut (record 3, offset 72)
		// Trailer: block length, CRC-32C, version, "MISFTR1\n".
		"3800000000000000" + "0cb9c8b0" + "01000000" + "4d4953465452310a"
	wantBytes, err := hex.DecodeString(stripSpaces(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("format drifted:\n got %x\nwant %x", data, wantBytes)
	}
}

func stripSpaces(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != ' ' {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// TestGoldenScanRecords pins the decoded view of the golden files: every
// engine (pipelined, batch, bytewise) must recover exactly these records
// from the pinned bytes. Together with the format tests this anchors both
// directions of the codec.
func TestGoldenScanRecords(t *testing.T) {
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	dir := t.TempDir()
	want := []Record{
		{ID: 0, Neighbors: []uint32{1}},
		{ID: 1, Neighbors: []uint32{0, 2}},
		{ID: 2, Neighbors: []uint32{1}},
	}

	raw := filepath.Join(dir, "golden.adj")
	if err := WriteGraph(raw, g, []uint32{0, 1, 2}, FlagDegreeSorted, nil); err != nil {
		t.Fatal(err)
	}
	comp := filepath.Join(dir, "golden.cadj")
	w, err := NewWriter(comp, FlagCompressed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 3; v++ {
		if err := w.Append(v, g.Neighbors(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{raw, comp} {
		for _, engine := range []string{"batch", "bytewise"} {
			got := runScan(t, path, engine, 0)
			if got.err != nil {
				t.Fatalf("%s %s: %v", path, engine, got.err)
			}
			if len(got.recs) != len(want) {
				t.Fatalf("%s %s: %d records, want %d", path, engine, len(got.recs), len(want))
			}
			for i, r := range got.recs {
				if r.ID != want[i].ID || len(r.Neighbors) != len(want[i].Neighbors) {
					t.Fatalf("%s %s: record %d = %+v, want %+v", path, engine, i, r, want[i])
				}
				for j := range r.Neighbors {
					if r.Neighbors[j] != want[i].Neighbors[j] {
						t.Fatalf("%s %s: record %d = %+v, want %+v", path, engine, i, r, want[i])
					}
				}
			}
		}
	}
}

// TestGoldenCompressedFormat pins the compressed encoding.
func TestGoldenCompressedFormat(t *testing.T) {
	g := graph.FromEdges(3, [][2]uint32{{0, 1}, {1, 2}})
	path := filepath.Join(t.TempDir(), "golden.cadj")
	w, err := NewWriter(path, FlagCompressed, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(0); v < 3; v++ {
		if err := w.Append(v, g.Neighbors(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4d4953414 44a310a" + // magic
		"01000000" + // version
		"02000000" + // flags: compressed
		"0300000000000000" + // 3 vertices
		"0200000000000000" + // 2 edges
		"000101" + // v0: id 0, deg 1, first nbr 1
		"01020001" + // v1: id 1, deg 2, nbr 0, gap to 2 = 1
		"020101" + // v2: id 2, deg 1, first nbr 1
		// Footer block (see footer.go): cut table persisted at write time.
		"4d4953465442310a" + // "MISFTB1\n"
		"01000000" + // footer version 1 + reserved
		"0300000000000000" + // 3 records
		"02000000" + // 2 cut entries
		"0000000000000000" + "2000000000000000" + // cut (record 0, offset 32)
		"0300000000000000" + "2a00000000000000" + // cut (record 3, offset 42)
		// Trailer: block length, CRC-32C, version, "MISFTR1\n".
		"3800000000000000" + "e9edb035" + "01000000" + "4d4953465452310a"
	wantBytes, err := hex.DecodeString(stripSpaces(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("compressed format drifted:\n got %x\nwant %x", data, wantBytes)
	}
}
