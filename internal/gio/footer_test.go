package gio

import (
	"bytes"
	"reflect"
	"testing"
)

// stripFooter returns data truncated to its payload: the exact pre-footer
// file bytes. Tests that corrupt or truncate record bytes use it so their
// edits land on records, not on the footer.
func stripFooter(t testing.TB, data []byte) []byte {
	t.Helper()
	h, err := decodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	_, _, end, ok := parseFooter(bytes.NewReader(data), int64(len(data)), h)
	if !ok {
		t.Fatal("stripFooter: no footer present")
	}
	return data[:end]
}

// TestFooterRoundTrip: a written file opens with the footer's record count,
// payload end and a pre-loaded partition plan identical to the one a
// planning side scan would build.
func TestFooterRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		g := randomGraph(7, 900, 4000)
		path := tmpPath(t)
		writePartitionFile(t, path, g, compressed)

		f, err := Open(path, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !f.HasFooter() {
			t.Fatal("written file has no footer")
		}
		if !f.HasPartitionPlan() {
			t.Fatal("footer did not pre-load the partition plan")
		}
		if f.PlanCaptureViable() {
			t.Fatal("plan capture still viable with a footer-loaded plan")
		}
		if f.NumRecords() != uint64(g.NumVertices()) {
			t.Fatalf("records = %d, want %d", f.NumRecords(), g.NumVertices())
		}
		size, err := f.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if f.PayloadEnd() >= size {
			t.Fatalf("payload end %d not before file size %d", f.PayloadEnd(), size)
		}
		footerRecs, footerOffs, ok := f.PartitionPlan()
		if !ok {
			t.Fatal("no partition plan exported")
		}
		f.Close()

		// The footer-loaded plan must equal the side scan's, entry for entry.
		ct, err := func() (*cutTable, error) {
			pf, err := Open(path, 0, nil)
			if err != nil {
				return nil, err
			}
			defer pf.Close()
			return pf.buildCutTable()
		}()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(footerRecs, ct.recs) || !reflect.DeepEqual(footerOffs, ct.offs) {
			t.Fatalf("compressed=%v: footer plan differs from side-scan plan:\nfooter recs %v offs %v\nscan   recs %v offs %v",
				compressed, footerRecs, footerOffs, ct.recs, ct.offs)
		}
	}
}

// TestFooterlessFallback: stripping the footer yields a file that opens and
// scans exactly like the pre-footer format — same records, capture viable.
func TestFooterlessFallback(t *testing.T) {
	g := randomGraph(8, 300, 1200)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	data := stripFooter(t, mustRead(t, path))
	bare := tmpPath(t)
	mustWrite(t, bare, data)

	f, err := Open(bare, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.HasFooter() || f.HasPartitionPlan() {
		t.Fatal("footerless file claims a footer or plan")
	}
	if !f.PlanCaptureViable() {
		t.Fatal("plan capture not viable on a footerless file")
	}
	if f.NumRecords() != uint64(g.NumVertices()) {
		t.Fatalf("records = %d, want %d", f.NumRecords(), g.NumVertices())
	}
	if size, _ := f.SizeBytes(); f.PayloadEnd() != size {
		t.Fatalf("payload end %d != size %d on footerless file", f.PayloadEnd(), size)
	}
	var n int
	if err := eachRecord(f, func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != g.NumVertices() {
		t.Fatalf("scanned %d records, want %d", n, g.NumVertices())
	}
}

// TestFooterDisabled: DisableFooter reproduces the pre-footer bytes.
func TestFooterDisabled(t *testing.T) {
	g := randomGraph(9, 50, 200)
	with, without := tmpPath(t), tmpPath(t)
	writePartitionFile(t, with, g, false)

	w, err := NewWriter(without, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.DisableFooter()
	for v := 0; v < g.NumVertices(); v++ {
		if err := w.Append(uint32(v), g.Neighbors(uint32(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripFooter(t, mustRead(t, with)), mustRead(t, without)) {
		t.Fatal("DisableFooter output differs from footered payload")
	}
}

// TestFooterCorruptFallsBack: flipping footer bytes (CRC mismatch) or the
// trailer magic degrades gracefully to the footerless interpretation — for
// an ordinary file the scan is untouched, since the decoder stops at
// header.Vertices records either way.
func TestFooterCorruptFallsBack(t *testing.T) {
	g := randomGraph(10, 120, 500)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	data := mustRead(t, path)

	corrupt := func(name string, mutate func([]byte)) {
		p := tmpPath(t)
		d := append([]byte(nil), data...)
		mutate(d)
		mustWrite(t, p, d)
		f, err := Open(p, 0, nil)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		defer f.Close()
		if f.HasFooter() {
			t.Fatalf("%s: corrupt footer accepted", name)
		}
		var n int
		if err := eachRecord(f, func(Record) error { n++; return nil }); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		if n != g.NumVertices() {
			t.Fatalf("%s: scanned %d records, want %d", name, n, g.NumVertices())
		}
	}

	payloadEnd := int64(len(stripFooter(t, data)))
	corrupt("footer block bit flip", func(d []byte) { d[payloadEnd+9] ^= 0x40 })
	corrupt("trailer magic", func(d []byte) { d[len(d)-1] ^= 0xFF })
	corrupt("future version", func(d []byte) { d[len(d)-12] = 99 })
}

// TestWriterVertexCountOverride: the shard-file shape — header keeps the
// global vertex count, footer records how many records the file holds, and
// scans deliver exactly those records with global IDs validating.
func TestWriterVertexCountOverride(t *testing.T) {
	path := tmpPath(t)
	w, err := NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.SetVertexCount(1000)
	// Records 500..502 of a 1000-vertex graph, neighbor IDs global.
	for v := uint32(500); v < 503; v++ {
		if err := w.Append(v, []uint32{v - 500, 999}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumVertices() != 1000 {
		t.Fatalf("header vertices = %d, want 1000", f.NumVertices())
	}
	if f.NumRecords() != 3 {
		t.Fatalf("records = %d, want 3", f.NumRecords())
	}
	var ids []uint32
	if err := eachRecord(f, func(r Record) error { ids = append(ids, r.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint32{500, 501, 502}) {
		t.Fatalf("scanned ids %v", ids)
	}
}

// TestInstallPartitionPlan: an externally persisted plan (the shard
// manifest's) installs after validation; malformed plans are rejected.
func TestInstallPartitionPlan(t *testing.T) {
	g := randomGraph(11, 400, 1600)
	path := tmpPath(t)
	writePartitionFile(t, path, g, false)
	bare := tmpPath(t)
	mustWrite(t, bare, stripFooter(t, mustRead(t, path)))

	ref, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, offs, ok := ref.PartitionPlan()
	ref.Close()
	if !ok {
		t.Fatal("no reference plan")
	}

	f, err := Open(bare, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Wrong end offset must be rejected.
	bad := append([]int64(nil), offs...)
	bad[len(bad)-1]++
	if err := f.InstallPartitionPlan(recs, bad); err == nil {
		t.Fatal("installed a plan with a wrong end offset")
	}
	if err := f.InstallPartitionPlan(recs[:1], offs[:1]); err == nil {
		t.Fatal("installed a plan not covering the payload")
	}
	if err := f.InstallPartitionPlan(recs, offs); err != nil {
		t.Fatal(err)
	}
	if !f.HasPartitionPlan() {
		t.Fatal("plan not installed")
	}
	ps, err := f.Partitions(4)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range ps {
		total += p.Records
	}
	if total != uint64(g.NumVertices()) {
		t.Fatalf("installed plan covers %d records, want %d", total, g.NumVertices())
	}
}

// TestFooterEmptyFile: a zero-record file round-trips its footer.
func TestFooterEmptyFile(t *testing.T) {
	path := tmpPath(t)
	w, err := NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.HasFooter() || f.NumRecords() != 0 || f.PayloadEnd() != HeaderSize {
		t.Fatalf("empty file: footer=%v records=%d payloadEnd=%d", f.HasFooter(), f.NumRecords(), f.PayloadEnd())
	}
	if err := eachRecord(f, func(Record) error { t.Fatal("record in empty file"); return nil }); err != nil {
		t.Fatal(err)
	}
}
