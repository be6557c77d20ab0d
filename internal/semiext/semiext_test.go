package semiext

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateInitial: "·", StateIS: "I", StateNonIS: "N",
		StateAdjacent: "A", StateProtected: "P", StateConflict: "C",
		StateRetrograde: "R", State(99): "?",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestStatesCollect(t *testing.T) {
	st := NewStates(5)
	st.Set(1, StateIS)
	st.Set(3, StateIS)
	st.Set(4, StateAdjacent)
	if st.CountIS() != 2 {
		t.Fatalf("CountIS = %d", st.CountIS())
	}
	got := st.Collect(StateIS)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Collect = %v", got)
	}
	if st.MemoryBytes() != 3 {
		t.Fatalf("MemoryBytes = %d, want 3 (5 vertices packed 2 per byte)", st.MemoryBytes())
	}
}

// TestStatesPackedRoundTrip drives every state value through every packing
// slot: odd and even nibbles, shared bytes, and the dangling half byte of an
// odd-length array. Neighbor slots must be unaffected by a Set.
func TestStatesPackedRoundTrip(t *testing.T) {
	all := []State{StateInitial, StateIS, StateNonIS, StateAdjacent,
		StateProtected, StateConflict, StateRetrograde}
	const n = 33 // odd, so the last nibble is the dangling one
	st := NewStates(n)
	want := make([]State, n)
	for i := 0; i < 4*n; i++ {
		v := uint32((i * 13) % n)
		s := all[(i*7)%len(all)]
		st.Set(v, s)
		want[v] = s
		for u := 0; u < n; u++ {
			if got := st.Get(uint32(u)); got != want[u] {
				t.Fatalf("after Set(%d,%v): Get(%d) = %v, want %v", v, s, u, got, want[u])
			}
		}
	}
	snap := st.Snapshot()
	for u := range snap {
		if snap[u] != want[u] {
			t.Fatalf("Snapshot[%d] = %v, want %v", u, snap[u], want[u])
		}
	}
}

// TestStatesPackedFootprint pins the satellite requirement: the packed array
// must cost strictly less than the former byte-per-vertex layout — half of
// it, rounded up — and Len must stay the vertex count, not the byte count.
func TestStatesPackedFootprint(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 1024, 99999} {
		st := NewStates(n)
		before := uint64(n) // the previous []State representation: 1 byte/vertex
		after := st.MemoryBytes()
		if want := uint64((n + 1) / 2); after != want {
			t.Fatalf("n=%d: MemoryBytes = %d, want %d", n, after, want)
		}
		if n > 1 && after >= before {
			t.Fatalf("n=%d: packed footprint %d not below byte-per-vertex %d", n, after, before)
		}
		if st.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, st.Len())
		}
	}
}

func TestISNSingle(t *testing.T) {
	isn := NewISN(10, false)
	isn.Set(1, 5)
	isn.Set(2, 5)
	isn.Set(3, 7)
	if isn.PreimageCount(5) != 2 || isn.PreimageCount(7) != 1 {
		t.Fatal("counters wrong after Set")
	}
	w, _, n := isn.Get(1)
	if n != 1 || w != 5 {
		t.Fatalf("Get(1) = %d,%d", w, n)
	}
	if !isn.Has(1, 5) || isn.Has(1, 7) {
		t.Fatal("Has wrong")
	}
	isn.Clear(1)
	if isn.PreimageCount(5) != 1 {
		t.Fatal("Clear did not decrement")
	}
	if _, _, n := isn.Get(1); n != 0 {
		t.Fatal("Clear did not clear")
	}
	isn.Clear(1) // double clear is a no-op
	if isn.PreimageCount(5) != 1 {
		t.Fatal("double Clear decremented")
	}
}

func TestISNPair(t *testing.T) {
	isn := NewISN(10, true)
	isn.Set(1, 4, 6)
	// Pairs do not count as witnesses.
	if isn.PreimageCount(4) != 0 || isn.PreimageCount(6) != 0 {
		t.Fatal("pair Set must not bump witness counters")
	}
	w1, w2, n := isn.Get(1)
	if n != 2 || w1 != 4 || w2 != 6 {
		t.Fatalf("Get = %d,%d,%d", w1, w2, n)
	}
	if !isn.Has(1, 4) || !isn.Has(1, 6) || isn.Has(1, 5) {
		t.Fatal("Has wrong for pair")
	}
	isn.Clear(1)
	if _, _, n := isn.Get(1); n != 0 {
		t.Fatal("pair Clear failed")
	}
	isn.Set(2, 4)
	if isn.PreimageCount(4) != 1 {
		t.Fatal("singleton after pair broken")
	}
	isn.Reset()
	if isn.PreimageCount(4) != 0 {
		t.Fatal("Reset failed")
	}
}

func TestISNPanics(t *testing.T) {
	isn := NewISN(4, false)
	mustPanic(t, func() { isn.Set(0, 1, 2) }) // pair on one-slot ISN
	mustPanic(t, func() { isn.Set(0) })       // no neighbors
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestISNCounterProperty(t *testing.T) {
	// The witness counter always equals the number of vertices whose ISN is
	// exactly {w}, under any interleaving of Set/Clear.
	f := func(ops []uint16) bool {
		const n = 16
		isn := NewISN(n, true)
		arity := make(map[uint32]int)
		target := make(map[uint32][2]uint32)
		for _, op := range ops {
			u := uint32(op % n)
			w1 := uint32((op >> 4) % n)
			w2 := uint32((op >> 8) % n)
			switch (op >> 12) % 3 {
			case 0: // set singleton
				isn.Clear(u)
				isn.Set(u, w1)
				arity[u] = 1
				target[u] = [2]uint32{w1, NoVertex}
			case 1: // set pair
				isn.Clear(u)
				isn.Set(u, w1, w2)
				arity[u] = 2
				target[u] = [2]uint32{w1, w2}
			case 2: // clear
				isn.Clear(u)
				arity[u] = 0
			}
		}
		for w := uint32(0); w < n; w++ {
			want := uint32(0)
			for u := uint32(0); u < n; u++ {
				if arity[u] == 1 && target[u][0] == w {
					want++
				}
			}
			if isn.PreimageCount(w) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCandidateIndex checks the per-round candidate index: each key's
// partners and pairs come back in insertion order under either argument
// order, a singleton key is apart from every pair key, Free drops one key's
// entries and their SC count, Reset empties the index but keeps its
// allocations, and the byte count is what the arrays hold.
func TestCandidateIndex(t *testing.T) {
	x := NewCandidateIndex()
	fill := func() {
		x.AddPartner(3, 1, 10)
		x.AddPartner(1, NoVertex, 11)
		x.AddPartner(1, 1, 12) // a record that lists IS vertex 1 twice
		x.AddPair(1, 3, 13, 10)
		x.AddPartner(1, 3, 13)
		x.AddPair(2, 4, 20, 21)
		x.AddPair(3, 1, 14, 11)
		x.AddPartner(3, 1, 14)
	}
	fill()
	if got, want := slices.Collect(x.Partners(1, 3)), []uint32{10, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("Partners(1, 3) = %v, want %v", got, want)
	}
	if got, want := slices.Collect(x.Pairs(3, 1)), []Pair{{13, 10}, {14, 11}}; !slices.Equal(got, want) {
		t.Fatalf("Pairs(3, 1) = %v, want %v", got, want)
	}
	if got := slices.Collect(x.Partners(1, NoVertex)); !slices.Equal(got, []uint32{11}) {
		t.Fatalf("Partners(1, NoVertex) = %v, want [11]", got)
	}
	if got := slices.Collect(x.Partners(1, 1)); !slices.Equal(got, []uint32{12}) {
		t.Fatalf("Partners(1, 1) = %v, want [12]", got)
	}
	if got := slices.Collect(x.Pairs(5, 6)); len(got) != 0 {
		t.Fatalf("Pairs of an absent key = %v", got)
	}
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}

	x.Free(3, 1)
	if x.Size() != 2 || len(slices.Collect(x.Pairs(1, 3))) != 0 || len(slices.Collect(x.Partners(1, 3))) != 0 {
		t.Fatalf("after Free(3, 1): Size %d, pairs %v, partners %v",
			x.Size(), slices.Collect(x.Pairs(1, 3)), slices.Collect(x.Partners(1, 3)))
	}
	if got := slices.Collect(x.Pairs(2, 4)); !slices.Equal(got, []Pair{{20, 21}}) {
		t.Fatalf("Free(3, 1) touched another key: Pairs(2, 4) = %v", got)
	}
	x.Free(7, 8) // absent: a no-op

	// Grow well past the first table, then check the byte count against
	// the capacities it is made of.
	for i := uint32(0); i < 1000; i++ {
		x.AddPartner(100+i, 5000+i, i)
	}
	want := uint64(cap(x.keys.slots))*4 + uint64(cap(x.keys.keys))*8 +
		uint64(cap(x.chains))*8 + uint64(cap(x.entries))*12
	if got := x.MemoryBytes(); got != want || got == 0 {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
	if len(x.keys.slots) < 2*x.keys.Len() {
		t.Fatalf("table of %d slots holds %d keys: over half full", len(x.keys.slots), x.keys.Len())
	}

	x.Reset()
	if x.Size() != 0 || x.keys.Len() != 0 || len(slices.Collect(x.Partners(100, 5000))) != 0 {
		t.Fatal("Reset left entries behind")
	}
	if x.MemoryBytes() != want {
		t.Fatalf("Reset changed MemoryBytes from %d to %d: it must keep its allocations", want, x.MemoryBytes())
	}
	fill()
	if got := slices.Collect(x.Partners(3, 1)); !slices.Equal(got, []uint32{10, 13, 14}) {
		t.Fatalf("after Reset: Partners(3, 1) = %v", got)
	}
	if x.MemoryBytes() != want {
		t.Fatalf("refilling a reset index allocated: MemoryBytes %d, was %d", x.MemoryBytes(), want)
	}
}
