package semiext

import (
	"fmt"
	"math/rand"
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
	if st.Count(StateIS) != 2 {
		t.Fatalf("Count(I) = %d", st.Count(StateIS))
	}
	if in, c := st.Expand(StateIS); c != 2 || !slices.Equal(in, []bool{false, true, false, true, false}) {
		t.Fatalf("Expand(I) = %v, %d", in, c)
	}
	var got []uint32
	st.ForEachIn(StateIS, StateAdjacent, func(v uint32, s State) { got = append(got, v) })
	if !slices.Equal(got, []uint32{1, 3, 4}) {
		t.Fatalf("ForEachIn(I, A) visited %v", got)
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

// TestStatesWholeArrayOps holds each word-at-a-time operation to a
// per-vertex Get/Set reference: random arrays over all seven states, of
// every length from 0 to 70 (every position a short last word can end at)
// and of a few large odd and even lengths. An odd length ends in a padding
// nibble, which reads as StateInitial: Count and Expand of StateInitial
// and ForEachIn must not report it, and Fill must leave it zero.
func TestStatesWholeArrayOps(t *testing.T) {
	all := []State{StateInitial, StateIS, StateNonIS, StateAdjacent,
		StateProtected, StateConflict, StateRetrograde}
	rng := rand.New(rand.NewSource(1))
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1001, 1024, 4099, 65538)
	for _, n := range lengths {
		random := func() (States, []State) {
			st, want := NewStates(n), make([]State, n)
			for v := range want {
				want[v] = all[rng.Intn(len(all))]
				st.Set(uint32(v), want[v])
			}
			return st, want
		}
		st, want := random()
		for _, s := range all {
			ref, count := make([]bool, n), 0
			for v := range want {
				if want[v] == s {
					ref[v] = true
					count++
				}
			}
			if got := st.Count(s); got != count {
				t.Fatalf("n=%d: Count(%v) = %d, want %d", n, s, got, count)
			}
			if in, got := st.Expand(s); got != count || !slices.Equal(in, ref) {
				t.Fatalf("n=%d: Expand(%v) = %v, %d, want %v, %d", n, s, in, got, ref, count)
			}
			for _, b := range all {
				var visited, wantVisited []uint32
				st.ForEachIn(s, b, func(v uint32, got State) {
					if got != want[v] {
						t.Fatalf("n=%d: ForEachIn(%v, %v) handed vertex %d state %v, want %v", n, s, b, v, got, want[v])
					}
					visited = append(visited, v)
				})
				for v := range want {
					if want[v] == s || want[v] == b {
						wantVisited = append(wantVisited, uint32(v))
					}
				}
				if !slices.Equal(visited, wantVisited) {
					t.Fatalf("n=%d: ForEachIn(%v, %v) visited %v, want %v", n, s, b, visited, wantVisited)
				}
			}

			// Fill over random contents must rewrite every vertex.
			no := all[rng.Intn(len(all))]
			filled, _ := random()
			filled.Fill(ref, s, no)
			for v := range ref {
				exp := no
				if ref[v] {
					exp = s
				}
				if got := filled.Get(uint32(v)); got != exp {
					t.Fatalf("n=%d: Fill(yes=%v, no=%v): Get(%d) = %v, want %v", n, s, no, v, got, exp)
				}
			}
			if n%2 == 1 && filled.b[n/2]>>4 != 0 {
				t.Fatalf("n=%d: Fill(yes=%v, no=%v) wrote the padding nibble", n, s, no)
			}
		}

		// The swap step's pattern: the callback moves each vertex it is
		// handed to another state, and every other vertex keeps its own.
		moved := map[State]State{StateProtected: StateIS, StateRetrograde: StateNonIS}
		st.ForEachIn(StateProtected, StateRetrograde, func(v uint32, s State) { st.Set(v, moved[s]) })
		for v, s := range want {
			if m, ok := moved[s]; ok {
				s = m
			}
			if got := st.Get(uint32(v)); got != s {
				t.Fatalf("n=%d: after the swap-step ForEachIn, Get(%d) = %v, want %v", n, v, got, s)
			}
		}
	}

	// A fresh odd-length array is all StateInitial, padding nibble included.
	if got := NewStates(33).Count(StateInitial); got != 33 {
		t.Fatalf("NewStates(33).Count(Initial) = %d, want 33", got)
	}
}

// TestISNSingle walks one-slot ISNs through singleton Set, Get and Clear:
// a singleton bumps its IS neighbor's witness count, Clear decrements it
// while that neighbor is I or R and leaves it alone once the neighbor has
// left the set and reuses its slot as an A vertex (rule 2), and Join gives
// a joining vertex a zero count whatever its slot held (rule 3).
func TestISNSingle(t *testing.T) {
	states := NewStates(10)
	for v := uint32(0); v < 10; v++ {
		states.Set(v, StateNonIS)
	}
	states.Set(5, StateIS)
	states.Set(7, StateIS)
	isn := NewISN(states, false)
	for _, u := range []uint32{1, 2, 3} {
		states.Set(u, StateAdjacent)
	}
	isn.Set(1, 5)
	isn.Set(2, 5)
	isn.Set(3, 7)
	if isn.PreimageCount(5) != 2 || isn.PreimageCount(7) != 1 {
		t.Fatalf("counts after Set = %d, %d, want 2, 1", isn.PreimageCount(5), isn.PreimageCount(7))
	}
	if w1, w2, n := isn.Get(1); n != 1 || w1 != 5 || w2 != NoVertex {
		t.Fatalf("Get(1) = %d,%d,%d, want 5,NoVertex,1", w1, w2, n)
	}

	states.Set(1, StateConflict)
	isn.Clear(1)
	if isn.PreimageCount(5) != 1 {
		t.Fatalf("Clear(1): count of 5 = %d, want 1", isn.PreimageCount(5))
	}

	// 5 leaves through R: the count is still decremented while it is R.
	states.Set(5, StateRetrograde)
	states.Set(2, StateNonIS)
	isn.Clear(2)
	if isn.PreimageCount(5) != 0 {
		t.Fatalf("Clear(2) with 5 in R: count of 5 = %d, want 0", isn.PreimageCount(5))
	}

	// 7 leaves the set and becomes A naming 5's replacement 8; its slot now
	// holds its ISN, which clearing its former namer 3 must not touch.
	states.Set(5, StateNonIS)
	states.Set(7, StateNonIS)
	states.Set(8, StateIS)
	states.Set(7, StateAdjacent)
	isn.Set(7, 8)
	states.Set(3, StateNonIS)
	isn.Clear(3)
	if w1, _, n := isn.Get(7); n != 1 || w1 != 8 {
		t.Fatalf("Clear(3) after 7 left the set: Get(7) = %d (%d), want 8 (1)", w1, n)
	}
	if isn.PreimageCount(8) != 1 {
		t.Fatalf("count of 8 = %d, want 1", isn.PreimageCount(8))
	}

	// 3's slot still holds its stale ISN {7}; joining zeroes it.
	isn.Join(3)
	if states.Get(3) != StateIS || isn.PreimageCount(3) != 0 {
		t.Fatalf("Join(3): state %v, count %d, want I, 0", states.Get(3), isn.PreimageCount(3))
	}
}

// TestISNPair walks a two-slot ISN through pair and singleton Sets on one
// vertex: a pair bumps no witness count and its Clear decrements none, a
// singleton written over a pair reads back as a singleton, and clearing
// that singleton decrements its IS neighbor's count.
func TestISNPair(t *testing.T) {
	states := NewStates(10)
	for v := uint32(0); v < 10; v++ {
		states.Set(v, StateNonIS)
	}
	states.Set(4, StateIS)
	states.Set(6, StateIS)
	isn := NewISN(states, true)

	states.Set(1, StateAdjacent)
	isn.Set(1, 4, 6)
	if isn.PreimageCount(4) != 0 || isn.PreimageCount(6) != 0 {
		t.Fatal("pair Set must not bump witness counters")
	}
	if w1, w2, n := isn.Get(1); n != 2 || w1 != 4 || w2 != 6 {
		t.Fatalf("Get(1) = %d,%d,%d, want 4,6,2", w1, w2, n)
	}
	states.Set(1, StateNonIS)
	isn.Clear(1)
	if isn.PreimageCount(4) != 0 || isn.PreimageCount(6) != 0 {
		t.Fatal("pair Clear must not decrement witness counters")
	}

	// The post-swap recomputation turns 1 back into A with a singleton.
	states.Set(1, StateAdjacent)
	isn.Set(1, 4)
	if w1, w2, n := isn.Get(1); n != 1 || w1 != 4 || w2 != NoVertex {
		t.Fatalf("singleton after pair: Get(1) = %d,%d,%d, want 4,NoVertex,1", w1, w2, n)
	}
	if isn.PreimageCount(4) != 1 {
		t.Fatalf("singleton after pair: count of 4 = %d, want 1", isn.PreimageCount(4))
	}

	states.Set(1, StateProtected)
	isn.Clear(1)
	if isn.PreimageCount(4) != 0 {
		t.Fatalf("Clear(1): count of 4 = %d, want 0", isn.PreimageCount(4))
	}
}

func TestISNPanics(t *testing.T) {
	isn := NewISN(NewStates(4), false)
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

// TestISNCounterProperty drives the slot array through random sequences of
// the swap algorithms' state changes, with one and with two slots per
// vertex, and checks it against a map-based model after every step: each I
// or R vertex's PreimageCount is the number of vertices whose recorded ISN
// is exactly that vertex, and each A vertex's Get is its recorded ISN. The
// steps are I→R, R→N and R→I; N or C→A by Set, naming vertices in the set;
// A→C or P, A→N and A→A (the post-swap recomputation) by Clear, before
// Set for A→A; P, N or C→I by Join, only while no A vertex names the
// vertex, as in the algorithms. An I or R vertex's slots are read while
// vertices that named it before it left and came back as A still hold their
// stale ISN, which is what rule 2's guard in Clear protects, and a joining
// vertex's first slot still holds its ISN from its time as A, which is what
// Join's zeroing protects.
func TestISNCounterProperty(t *testing.T) {
	for _, two := range []bool{false, true} {
		f := func(init uint8, ops []uint32) bool {
			step, err := runISNModel(two, init, ops)
			if err != "" {
				t.Logf("two=%v, step %d of %d: %s", two, step, len(ops), err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("two=%v: %v", two, err)
		}
	}
}

// runISNModel applies ops to a fresh 8-vertex ISN whose vertices start I or
// N by the bits of init, and returns the first step at which the ISN and the
// model disagree, with a description, or "" when they never do.
func runISNModel(two bool, init uint8, ops []uint32) (int, string) {
	const n = 8
	states := NewStates(n)
	for v := uint32(0); v < n; v++ {
		if init>>v&1 == 1 {
			states.Set(v, StateIS)
		} else {
			states.Set(v, StateNonIS)
		}
	}
	isn := NewISN(states, two)
	named := map[uint32][]uint32{}       // A vertex → its ISN
	in := func(want ...State) []uint32 { // vertices in any of the states
		var out []uint32
		for v := uint32(0); v < n; v++ {
			if slices.Contains(want, states.Get(v)) {
				out = append(out, v)
			}
		}
		return out
	}
	// set names IS vertices picked by a and b (one, or two with two slots).
	set := func(u, a, b uint32) bool {
		is := in(StateIS)
		if len(is) == 0 {
			return false
		}
		w := []uint32{is[a%uint32(len(is))]}
		if two && b&1 == 1 {
			w = append(w, is[b>>1%uint32(len(is))])
		}
		states.Set(u, StateAdjacent)
		isn.Set(u, w...)
		named[u] = w
		return true
	}
	clear := func(u uint32, to State) {
		states.Set(u, to)
		isn.Clear(u)
		delete(named, u)
	}
	for step, op := range ops {
		kind, a, b, c := op%7, op>>3&0xff, op>>11&0xff, op>>19
		pick := func(vs []uint32) (uint32, bool) {
			if len(vs) == 0 {
				return 0, false
			}
			return vs[a%uint32(len(vs))], true
		}
		switch kind {
		case 0: // I→R: a pre-swap marks an IS vertex as leaving
			if w, ok := pick(in(StateIS)); ok {
				states.Set(w, StateRetrograde)
			}
		case 1: // R→N: the swap removes it; its namers keep a stale ISN
			if w, ok := pick(in(StateRetrograde)); ok {
				states.Set(w, StateNonIS)
			}
		case 2: // R→I: reinstated, keeping its count
			if w, ok := pick(in(StateRetrograde)); ok {
				states.Set(w, StateIS)
			}
		case 3: // N or C→A
			if u, ok := pick(in(StateNonIS, StateConflict)); ok {
				set(u, b, c)
			}
		case 4: // A→C or A→P
			if u, ok := pick(in(StateAdjacent)); ok {
				clear(u, []State{StateConflict, StateProtected}[b&1])
			}
		case 5: // A→N or A→A: the post-swap recomputation
			if u, ok := pick(in(StateAdjacent)); ok {
				clear(u, StateNonIS)
				if b&1 == 1 {
					set(u, b>>1, c)
				}
			}
		case 6: // P, N or C→I, only while no A vertex names it
			var free []uint32
			for _, v := range in(StateProtected, StateNonIS, StateConflict) {
				if !namedAnywhere(named, v) {
					free = append(free, v)
				}
			}
			if v, ok := pick(free); ok {
				isn.Join(v)
				if states.Get(v) != StateIS {
					return step, fmt.Sprintf("Join(%d) left it in state %v", v, states.Get(v))
				}
			}
		}
		for v := uint32(0); v < n; v++ {
			switch states.Get(v) {
			case StateAdjacent:
				w := named[v]
				w1, w2, k := isn.Get(v)
				if k != len(w) || w1 != w[0] || (k == 2 && w2 != w[1]) {
					return step, fmt.Sprintf("A vertex %d: Get = %d %d (%d), model %v", v, w1, w2, k, w)
				}
			case StateIS, StateRetrograde:
				want := uint32(0)
				for _, w := range named {
					if len(w) == 1 && w[0] == v {
						want++
					}
				}
				if got := isn.PreimageCount(v); got != want {
					return step, fmt.Sprintf("%v vertex %d: PreimageCount = %d, model %d", states.Get(v), v, got, want)
				}
			}
		}
	}
	return 0, ""
}

// namedAnywhere reports whether some vertex's ISN in named contains v.
func namedAnywhere(named map[uint32][]uint32, v uint32) bool {
	for _, w := range named {
		if slices.Contains(w, v) {
			return true
		}
	}
	return false
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
