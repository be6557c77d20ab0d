// Package semiext holds the in-memory per-vertex structures of the paper's
// semi-external framework: the six-state array of Table 3, the ISN
// (IS-neighbor) sets, and the swap-candidate (SC) store used by two-k-swap,
// all with explicit memory accounting so experiments can report the
// framework's footprint (Table 6, Figure 10).
package semiext

// State is a vertex's swap state (Table 3 of the paper).
type State uint8

// The six states of Table 3.
const (
	// StateInitial is the pre-greedy "unvisited" state (Algorithm 1).
	StateInitial State = iota
	// StateIS (I): in the independent set.
	StateIS
	// StateNonIS (N): not in the independent set.
	StateNonIS
	// StateAdjacent (A): a non-IS vertex adjacent to exactly one IS vertex
	// (one or two for two-k-swap), eligible to swap in.
	StateAdjacent
	// StateProtected (P): an adjacent vertex that will become IS in the
	// next iteration.
	StateProtected
	// StateConflict (C): an adjacent vertex that lost a swap conflict and
	// stays non-IS this iteration.
	StateConflict
	// StateRetrograde (R): an IS vertex that will leave the set in the next
	// iteration.
	StateRetrograde
)

// String returns the paper's one-letter notation.
func (s State) String() string {
	switch s {
	case StateInitial:
		return "·"
	case StateIS:
		return "I"
	case StateNonIS:
		return "N"
	case StateAdjacent:
		return "A"
	case StateProtected:
		return "P"
	case StateConflict:
		return "C"
	case StateRetrograde:
		return "R"
	}
	return "?"
}

// NoVertex marks an empty ISN slot.
const NoVertex = ^uint32(0)

// States is the per-vertex state array, packed at four bits per vertex (two
// vertices per byte) — the framework's core O(|V|) structure at half the
// footprint of a byte-per-vertex array. The seven states of Table 3 (the six
// lettered states plus the pre-greedy Initial) need three bits, so two bits
// per vertex is information-theoretically impossible; the nibble layout is
// the densest packing whose accessors stay a single shift-and-mask on the
// scan hot path. Like a slice, a States value shares its backing storage
// when copied.
type States struct {
	n int
	b []byte
}

// NewStates returns a state array of n vertices, all StateInitial.
func NewStates(n int) States { return States{n: n, b: make([]byte, (n+1)/2)} }

// Len returns the number of vertices.
func (st States) Len() int { return st.n }

// Get returns vertex v's state. The nibble is selected by shifting by
// (v&1)·4 rather than by branching on v&1: neighbour IDs arrive in random
// order, so such a branch would be mispredicted about half the time.
func (st States) Get(v uint32) State {
	return State(st.b[v>>1] >> nibbleShift(v) & 0x0f)
}

// Set records vertex v's state.
func (st States) Set(v uint32, s State) {
	i, sh := v>>1, nibbleShift(v)
	st.b[i] = st.b[i]&^(0x0f<<sh) | byte(s)<<sh
}

// nibbleShift is the bit offset of vertex v's nibble within its byte.
func nibbleShift(v uint32) uint32 { return (v & 1) << 2 }

// CountIS returns the number of vertices in state I.
func (st States) CountIS() int {
	c := 0
	for v := 0; v < st.n; v++ {
		if st.Get(uint32(v)) == StateIS {
			c++
		}
	}
	return c
}

// Collect returns the IDs of all vertices in the given state, ascending.
func (st States) Collect(want State) []uint32 {
	var out []uint32
	for v := 0; v < st.n; v++ {
		if st.Get(uint32(v)) == want {
			out = append(out, uint32(v))
		}
	}
	return out
}

// Snapshot expands the packed array into one State per vertex — the unpacked
// form handed to observation hooks (SwapOptions.OnPhase) and tests.
func (st States) Snapshot() []State {
	out := make([]State, st.n)
	for v := range out {
		out[v] = st.Get(uint32(v))
	}
	return out
}

// MemoryBytes returns the packed array's in-memory size: ⌈n/2⌉ bytes.
func (st States) MemoryBytes() uint64 { return uint64(len(st.b)) }

// ISN stores, for each A vertex, its (at most two) IS neighbors, and for
// each IS vertex w, the number of A vertices whose ISN is exactly {w} — the
// counter reuse trick of Section 5.4 that lets one-k-swap test 1-2
// swap-skeleton existence in O(deg u) without locating the partner vertex.
// Only singleton preimages are counted because only a vertex whose sole IS
// neighbor is w can serve as the witness of a 1-2 swap against w.
type ISN struct {
	first  []uint32 // per vertex: first IS neighbor or NoVertex
	second []uint32 // per vertex: second IS neighbor (two-k only) or NoVertex
	count  []uint32 // per IS vertex w: |{u : state(u)=A, ISN(u)={w}}|
	two    bool
}

// NewISN returns ISN storage for n vertices. two enables the second slot
// (two-k-swap); one-k-swap uses a single slot.
func NewISN(n int, two bool) *ISN {
	isn := &ISN{
		first: make([]uint32, n),
		count: make([]uint32, n),
		two:   two,
	}
	for i := range isn.first {
		isn.first[i] = NoVertex
	}
	if two {
		isn.second = make([]uint32, n)
		for i := range isn.second {
			isn.second[i] = NoVertex
		}
	}
	return isn
}

// Reset clears all slots and counters.
func (isn *ISN) Reset() {
	for i := range isn.first {
		isn.first[i] = NoVertex
		isn.count[i] = 0
	}
	if isn.two {
		for i := range isn.second {
			isn.second[i] = NoVertex
		}
	}
}

// Set records u's IS neighbors (1 or 2 of them). A singleton {w} bumps w's
// witness counter; a pair does not, since neither member alone can be
// exchanged for u.
func (isn *ISN) Set(u uint32, w ...uint32) {
	switch len(w) {
	case 1:
		isn.first[u] = w[0]
		isn.count[w[0]]++
	case 2:
		if !isn.two {
			panic("semiext: two IS neighbors on a one-slot ISN")
		}
		isn.first[u] = w[0]
		isn.second[u] = w[1]
	default:
		panic("semiext: ISN.Set needs one or two neighbors")
	}
}

// Clear removes u's ISN entries, decrementing the witness counter when the
// entry was a singleton.
func (isn *ISN) Clear(u uint32) {
	w1 := isn.first[u]
	w2 := NoVertex
	if isn.two {
		w2 = isn.second[u]
	}
	if w1 != NoVertex && w2 == NoVertex && isn.count[w1] > 0 {
		isn.count[w1]--
	}
	isn.first[u] = NoVertex
	if isn.two {
		isn.second[u] = NoVertex
	}
}

// Get returns u's IS neighbors (0, 1 or 2 values).
func (isn *ISN) Get(u uint32) (w1, w2 uint32, n int) {
	w1, w2 = isn.first[u], NoVertex
	if isn.two {
		w2 = isn.second[u]
	}
	switch {
	case w1 == NoVertex && w2 == NoVertex:
		return NoVertex, NoVertex, 0
	case w2 == NoVertex:
		return w1, NoVertex, 1
	case w1 == NoVertex:
		return w2, NoVertex, 1
	default:
		return w1, w2, 2
	}
}

// Has reports whether w is one of u's recorded IS neighbors.
func (isn *ISN) Has(u, w uint32) bool {
	if isn.first[u] == w {
		return true
	}
	return isn.two && isn.second[u] == w
}

// PreimageCount returns |ISN⁻¹(w)|: how many A vertices currently name w.
func (isn *ISN) PreimageCount(w uint32) uint32 { return isn.count[w] }

// MemoryBytes returns the structure's in-memory size.
func (isn *ISN) MemoryBytes() uint64 {
	b := uint64(len(isn.first)+len(isn.count)) * 4
	if isn.two {
		b += uint64(len(isn.second)) * 4
	}
	return b
}
