package semiext

import (
	"reflect"
	"testing"
)

func TestRecordBufferRoundTrip(t *testing.T) {
	b := NewRecordBuffer(10)
	recs := []struct {
		id   uint32
		nbrs []uint32
	}{
		{4, []uint32{1, 2, 3}},
		{7, nil},
		{9, []uint32{0, 4}},
	}
	for _, r := range recs {
		if !b.Append(r.id, r.nbrs) {
			t.Fatalf("append %d rejected within budget", r.id)
		}
	}
	if b.Len() != len(recs) || b.Overflowed() {
		t.Fatalf("len=%d overflow=%v", b.Len(), b.Overflowed())
	}
	for i, r := range recs {
		if b.ID(i) != r.id {
			t.Fatalf("record %d: id %d, want %d", i, b.ID(i), r.id)
		}
		if got := b.Neighbors(i); len(got) != len(r.nbrs) || (len(got) > 0 && !reflect.DeepEqual(got, r.nbrs)) {
			t.Fatalf("record %d: neighbors %v, want %v", i, got, r.nbrs)
		}
	}
	var order []uint32
	b.ForEach(func(id uint32, nbrs []uint32) { order = append(order, id) })
	if !reflect.DeepEqual(order, []uint32{4, 7, 9}) {
		t.Fatalf("ForEach order %v", order)
	}
	if b.MemoryPeak() == 0 {
		t.Fatal("no memory high-water recorded")
	}
}

func TestRecordBufferOverflowAndReset(t *testing.T) {
	b := NewRecordBuffer(4)
	if !b.Append(1, []uint32{1, 2, 3}) {
		t.Fatal("first append rejected")
	}
	if b.Append(2, []uint32{4, 5}) {
		t.Fatal("append past budget accepted")
	}
	if !b.Overflowed() || b.Len() != 0 {
		t.Fatalf("overflow did not discard: overflowed=%v len=%d", b.Overflowed(), b.Len())
	}
	if b.Append(3, []uint32{6}) {
		t.Fatal("append after overflow accepted")
	}
	b.Reset()
	if b.Overflowed() || b.Len() != 0 {
		t.Fatal("reset did not clear overflow")
	}
	if !b.Append(3, []uint32{6}) {
		t.Fatal("append after reset rejected")
	}
	if b.ID(0) != 3 || len(b.Neighbors(0)) != 1 || b.Neighbors(0)[0] != 6 {
		t.Fatalf("post-reset contents wrong: id=%d nbrs=%v", b.ID(0), b.Neighbors(0))
	}
}
