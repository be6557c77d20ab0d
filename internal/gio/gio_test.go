package gio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "g.adj")
}

// eachRecord runs one full scan of f, invoking fn for every record in scan
// order: the per-record view of ForEachBatchCtx that most tests want.
func eachRecord(f *File, fn func(Record) error) error {
	return f.ForEachBatchCtx(context.Background(), func(batch []Record) error {
		for _, r := range batch {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return b.Build()
}

func TestRoundTrip(t *testing.T) {
	g := randomGraph(1, 50, 120)
	path := tmpPath(t)
	var stats Counters
	if err := WriteGraph(path, g, nil, 0, &stats); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) != back.Degree(uint32(v)) {
			t.Fatalf("vertex %d degree changed", v)
		}
		for _, u := range g.Neighbors(uint32(v)) {
			if !back.HasEdge(uint32(v), u) {
				t.Fatalf("edge {%d,%d} lost", v, u)
			}
		}
	}
	if snap := stats.Snapshot(); snap.BytesWritten == 0 || snap.BytesRead == 0 {
		t.Fatal("stats not accumulated")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 1
		g := randomGraph(seed, n, int(mRaw))
		dir, err := os.MkdirTemp("", "gio")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "g.adj")
		if err := WriteGraphSorted(path, g, nil); err != nil {
			return false
		}
		back, err := LoadGraph(path, nil)
		if err != nil {
			return false
		}
		if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeSortedOrder(t *testing.T) {
	g := randomGraph(2, 80, 200)
	path := tmpPath(t)
	if err := WriteGraphSorted(path, g, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Header().DegreeSorted() {
		t.Fatal("degree-sorted flag missing")
	}
	prev := -1
	err = eachRecord(f, func(r Record) error {
		d := len(r.Neighbors)
		if d < prev {
			t.Fatalf("degree order violated: %d after %d", d, prev)
		}
		prev = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborListsSortedByDegree(t *testing.T) {
	g := randomGraph(3, 60, 150)
	path := tmpPath(t)
	if err := WriteGraphSorted(path, g, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = eachRecord(f, func(r Record) error {
		for i := 1; i < len(r.Neighbors); i++ {
			if g.Degree(r.Neighbors[i-1]) > g.Degree(r.Neighbors[i]) {
				t.Fatalf("vertex %d: neighbor degrees out of order", r.ID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanCounting(t *testing.T) {
	g := randomGraph(4, 30, 60)
	path := tmpPath(t)
	if err := WriteGraph(path, g, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	var stats Counters
	f, err := Open(path, 0, &stats)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 3; i++ {
		if err := eachRecord(f, func(Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if snap := stats.Snapshot(); snap.Scans != 3 {
		t.Fatalf("scans = %d, want 3", snap.Scans)
	}
	if snap := stats.Snapshot(); snap.RecordsRead != uint64(3*g.NumVertices()) {
		t.Fatalf("records = %d, want %d", snap.RecordsRead, 3*g.NumVertices())
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()

	// Missing file.
	if _, err := Open(filepath.Join(dir, "missing.adj"), 0, nil); err == nil {
		t.Fatal("expected error for missing file")
	}

	// Bad magic.
	bad := filepath.Join(dir, "bad.adj")
	if err := os.WriteFile(bad, bytes.Repeat([]byte{0xAB}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 0, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic: got %v, want ErrBadFormat", err)
	}

	// Truncated header.
	short := filepath.Join(dir, "short.adj")
	if err := os.WriteFile(short, []byte(Magic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(short, 0, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short header: got %v, want ErrBadFormat", err)
	}

	// Unsupported version.
	ver := filepath.Join(dir, "ver.adj")
	buf := make([]byte, HeaderSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[8:], 99)
	if err := os.WriteFile(ver, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ver, 0, nil); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad version: got %v, want ErrBadFormat", err)
	}
}

func TestTruncatedRecords(t *testing.T) {
	g := randomGraph(5, 20, 50)
	path := tmpPath(t)
	if err := WriteGraph(path, g, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = stripFooter(t, data) // truncate record bytes, not footer bytes
	trunc := filepath.Join(t.TempDir(), "trunc.adj")
	if err := os.WriteFile(trunc, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(trunc, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = eachRecord(f, func(Record) error { return nil })
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated records: got %v, want ErrBadFormat", err)
	}
}

func TestCorruptDegree(t *testing.T) {
	// A record claiming an impossible degree must fail cleanly, not OOM.
	path := tmpPath(t)
	w, err := NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the first record's degree field with a huge value.
	binary.LittleEndian.PutUint32(data[HeaderSize+4:], 1<<30)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = eachRecord(f, func(Record) error { return nil })
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt degree: got %v, want ErrBadFormat", err)
	}
}

// TestDecodeUint32s checks the shared fixed-width decode loop against
// binary.LittleEndian value by value, and its returned maximum, at every
// length up to 9 — both parities of its two-at-a-time loop.
func TestDecodeUint32s(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 9; n++ {
		src := make([]byte, 4*n+3) // trailing bytes must be ignored
		rng.Read(src)
		dst := make([]uint32, n)
		hi := DecodeUint32s(dst, src)
		want := uint32(0)
		for i := range dst {
			v := binary.LittleEndian.Uint32(src[4*i:])
			if dst[i] != v {
				t.Fatalf("n=%d: dst[%d] = %d, want %d", n, i, dst[i], v)
			}
			want = max(want, v)
		}
		if hi != want {
			t.Fatalf("n=%d: max %d, want %d", n, hi, want)
		}
	}
}

// TestDegreeBeyondPayload: a degree below the header's vertex count but
// larger than the file could hold fails as an impossible degree in every
// engine, before any decoder sizes a buffer by it. The header claims 2^32
// vertices, the most 32-bit IDs allow, and the record 2^31 neighbors.
func TestDegreeBeyondPayload(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		path := writeParityFile(t, t.TempDir(), graph.FromEdges(2, [][2]uint32{{0, 1}}), compressed, "g.adj")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(data[16:], 1<<32)
		if compressed {
			// Record 0: id 0, then a 5-byte varint degree over the first
			// gap and the next record.
			data = append(data[:HeaderSize+1], 0x80, 0x80, 0x80, 0x80, 0x08)
		} else {
			data = data[:HeaderSize+8]
			binary.LittleEndian.PutUint32(data[HeaderSize+4:], 1<<31)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ref := runScan(t, path, "bytewise", DefaultBlockSize)
		if !strings.Contains(ref.errString(), "vertex 0 has impossible degree 2147483648") {
			t.Fatalf("compressed=%v: err = %s, want an impossible degree", compressed, ref.errString())
		}
		assertParity(t, path, DefaultBlockSize)
	}
}

// TestVertexCountBeyondIDSpace: a header claiming more vertices than 32-bit
// IDs can name is rejected at Open.
func TestVertexCountBeyondIDSpace(t *testing.T) {
	path := writeParityFile(t, t.TempDir(), graph.FromEdges(2, [][2]uint32{{0, 1}}), false, "g.adj")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[16:], 1<<32+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err := Open(path, 0, nil); !errors.Is(err, ErrBadFormat) {
		if err == nil {
			f.Close()
		}
		t.Fatalf("Open: err = %v, want ErrBadFormat", err)
	}
}

func TestEdgeListText(t *testing.T) {
	src := `# comment
0 1
1 2
% another comment

2 3
3 0
`
	g, err := ReadEdgeListText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("parsed %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	var buf bytes.Buffer
	if err := WriteEdgeListText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeListText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("text round trip: %d vs %d edges", g2.NumEdges(), g.NumEdges())
	}
}

func TestEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeListText(strings.NewReader("0\n")); err == nil {
		t.Fatal("expected error for one-field line")
	}
	if _, err := ReadEdgeListText(strings.NewReader("a b\n")); err == nil {
		t.Fatal("expected error for non-numeric field")
	}
	if _, err := ReadEdgeListText(strings.NewReader("-1 2\n")); err == nil {
		t.Fatal("expected error for negative id")
	}
}

func TestImportEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(src, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.adj")
	if err := ImportEdgeListFile(src, dst, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(dst, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 3 || f.NumEdges() != 3 {
		t.Fatalf("import: %d vertices, %d edges", f.NumVertices(), f.NumEdges())
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		0:          "0B",
		512:        "512B",
		1024:       "1.0KB",
		1536:       "1.5KB",
		1 << 20:    "1.0MB",
		5 << 30:    "5.0GB",
		3 << 40:    "3.0TB",
		1234567890: "1.1GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestScanAfterClose pins that advancing a Scanner after File.Close (or
// after a new scan supersedes it) reports an error instead of blocking on
// the shut-down prefetch pipeline.
func TestScanAfterClose(t *testing.T) {
	g := randomGraph(7, 400, 4000)
	path := tmpPath(t)
	if err := WriteGraph(path, g, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.scanCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sc.NextBatch() == nil {
		t.Fatalf("first batch: %v", sc.Err())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.NextBatch() != nil { // must terminate, with or without records
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Scanner.NextBatch deadlocked after File.Close")
	}
}

func TestEmptyGraphFile(t *testing.T) {
	path := tmpPath(t)
	if err := WriteGraph(path, graph.NewBuilder(0).Build(), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 0 || f.NumEdges() != 0 {
		t.Fatal("empty graph header wrong")
	}
	count := 0
	if err := eachRecord(f, func(Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("empty file yielded %d records", count)
	}
}
