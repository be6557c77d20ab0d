// Package semiext holds the in-memory per-vertex structures of the paper's
// semi-external framework: the six-state array of Table 3, the ISN
// (IS-neighbor) slots, and the swap-candidate (SC) store used by two-k-swap,
// all with explicit memory accounting so experiments can report the
// framework's footprint (Table 6, Figure 10).
//
// The ISN keeps one slot per vertex for one-k-swap and two for two-k-swap,
// read according to the vertex's state: an A vertex's slots hold its ISN,
// an I or R vertex's first slot its witness count, and any other vertex's
// slots are stale. Three rules keep that exact: only A vertices hold an
// ISN; clearing one decrements its singleton IS neighbor's count only while
// that neighbor is I or R; and a vertex entering the set starts from a zero
// count, while a reinstated R vertex keeps its own.
package semiext

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

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
//
// Get and Set touch one vertex. The whole-array operations — Fill, Count,
// Expand and ForEachIn — work a word at a time instead: they read or write
// 16 vertices per uint64 and test all 16 against a state at once. An
// odd-length array ends in a padding nibble that no operation reports.
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

// nibbleLow has the lowest bit of every nibble set: times a state, it is a
// word of 16 vertices in that state.
const nibbleLow = 0x1111111111111111

// words returns the number of words the array spans: word k holds vertices
// 16k … 16k+15, vertex 16k in its lowest nibble.
func (st States) words() int { return (st.n + 15) / 16 }

// word returns word k. The last word may be short; its missing bytes read
// as zero.
func (st States) word(k int) uint64 {
	b := st.b[8*k:]
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	var w uint64
	for i, x := range b {
		w |= uint64(x) << (8 * i)
	}
	return w
}

// putWord stores word k, dropping the bytes a short last word lacks.
func (st States) putWord(k int, w uint64) {
	b := st.b[8*k:]
	if len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, w)
		return
	}
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
}

// valid returns the nibbleLow bits of word k's vertices: all 16 but in the
// last word, where the vertices past n (a padding nibble among them) are
// left out.
func (st States) valid(k int) uint64 {
	if rem := st.n - 16*k; rem < 16 {
		return nibbleLow >> (64 - 4*rem)
	}
	return nibbleLow
}

// match returns the vertices of word w in state s, as the lowest bit of
// each matching nibble. A nibble equals s exactly when its XOR with s is
// zero, and the two shifts fold each nibble's four bits into its lowest.
func match(w uint64, s State) uint64 {
	x := w ^ nibbleLow*uint64(s)
	x |= x >> 2
	x |= x >> 1
	return ^x & nibbleLow
}

// Fill sets every vertex v to yes when in[v] is true and to no otherwise.
// in must have one entry per vertex.
func (st States) Fill(in []bool, yes, no State) {
	if len(in) != st.n {
		panic("semiext: States.Fill needs one entry per vertex")
	}
	b := boolBytes(in)
	base, flip := nibbleLow*uint64(no), uint64(yes^no)
	for k := range st.words() {
		// Each true entry turns its nibble of base from no into yes; the
		// padding nibble stays zero.
		st.putWord(k, (base^packBools(b[16*k:])*flip)&(st.valid(k)*0x0f))
	}
}

// Count returns the number of vertices in state s.
func (st States) Count(s State) int {
	c := 0
	for k := range st.words() {
		c += bits.OnesCount64(match(st.word(k), s) & st.valid(k))
	}
	return c
}

// Expand returns the membership of state s — in[v] is true exactly when
// vertex v is in state s — and the number of such vertices.
func (st States) Expand(s State) (in []bool, count int) {
	in = make([]bool, st.n)
	b := boolBytes(in)
	for k := range st.words() {
		m := match(st.word(k), s) & st.valid(k)
		count += bits.OnesCount64(m)
		unpackBools(b[16*k:], m)
	}
	return in, count
}

// ForEachIn calls fn for every vertex in state a or b, in ID order, with
// the vertex's state. fn may change the state of the vertex it is handed;
// a word is read before its vertices are visited, so a change fn makes to
// a later vertex of the same word can go unseen.
func (st States) ForEachIn(a, b State, fn func(v uint32, s State)) {
	for k := range st.words() {
		w := st.word(k)
		for m := (match(w, a) | match(w, b)) & st.valid(k); m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			fn(uint32(16*k+j/4), State(w>>j&0x0f))
		}
	}
}

// boolBytes views in as the bytes that hold it: Go stores a bool as one
// byte, 1 for true and 0 for false.
func boolBytes(in []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(in))), len(in))
}

// packBools returns the first 16 bytes of b (all of b when shorter), each
// 0 or 1, as the lowest bits of a word's nibbles: byte j at bit 4j.
func packBools(b []byte) uint64 {
	if len(b) >= 16 {
		return gather(binary.LittleEndian.Uint64(b)) | gather(binary.LittleEndian.Uint64(b[8:]))<<32
	}
	var m uint64
	for j, x := range b {
		m |= uint64(x) << (4 * j)
	}
	return m
}

// unpackBools undoes packBools: it stores bit 4j of m, 0 or 1, into b[j]
// for the first 16 bytes of b (all of b when shorter).
func unpackBools(b []byte, m uint64) {
	if len(b) >= 16 {
		binary.LittleEndian.PutUint64(b, scatter(m&0xffffffff))
		binary.LittleEndian.PutUint64(b[8:], scatter(m>>32))
		return
	}
	for j := range b {
		b[j] = byte(m >> (4 * j) & 1)
	}
}

// gather moves bit 8j of x to bit 4j for j < 8, halving the spacing in
// three steps; x must have no other bits set.
func gather(x uint64) uint64 {
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0xffffffff
}

// scatter is gather's inverse: it moves bit 4j of x to bit 8j for j < 8;
// x must have no other bits set.
func scatter(x uint64) uint64 {
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	return (x | x<<4) & 0x0101010101010101
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

// ISN is the swap algorithms' per-vertex slot array: one uint32 per vertex
// for one-k-swap, two for two-k-swap, interleaved so that a vertex's slots
// are adjacent. It is built over the run's States, and a slot's meaning
// follows its vertex's state there:
//
//   - an A vertex's slots hold its IS neighbors, its ISN (for two-k-swap the
//     second slot is NoVertex when the ISN is a singleton);
//   - an I or R vertex w's first slot holds its witness count |ISN⁻¹(w)|:
//     the A vertices whose ISN is exactly {w}. This is the counter reuse
//     trick of Section 5.4 that lets one-k-swap test 1-2 swap-skeleton
//     existence in O(deg u) without locating the partner vertex. Only
//     singleton preimages count, because only a vertex whose sole IS
//     neighbor is w can witness a 1-2 swap against w;
//   - a vertex in any other state has stale slots that are never read.
//
// Three rules keep the overlay exact:
//
//  1. Only A vertices hold an ISN, so only a vertex that was A until now is
//     ever cleared.
//  2. Clear decrements the count of u's singleton IS neighbor w only while w
//     is I or R: a w that has left the set may already hold its own new ISN
//     in that slot.
//  3. A vertex enters the set with a zero count (Join): no A vertex names a
//     vertex outside the set. A reinstated R vertex keeps its count.
type ISN struct {
	states States
	slots  []uint32
	shift  uint // log2 of the slots per vertex: 0 for one-k-swap, 1 for two-k-swap
}

// NewISN returns the slot array over states. two gives each vertex a second
// slot (two-k-swap); one-k-swap uses one. The slots start at zero, which is
// the count of every vertex already in the set.
func NewISN(states States, two bool) *ISN {
	var shift uint
	if two {
		shift = 1
	}
	return &ISN{states: states, slots: make([]uint32, states.Len()<<shift), shift: shift}
}

// Set records the A vertex u's IS neighbors (1 or 2 of them, each in the
// set). A singleton {w} bumps w's witness count; a pair does not, since
// neither member alone can be exchanged for u.
func (isn *ISN) Set(u uint32, w ...uint32) {
	i := int(u) << isn.shift
	switch len(w) {
	case 1:
		isn.slots[i] = w[0]
		if isn.shift == 1 {
			isn.slots[i+1] = NoVertex
		}
		isn.slots[int(w[0])<<isn.shift]++
	case 2:
		if isn.shift == 0 {
			panic("semiext: two IS neighbors on a one-slot ISN")
		}
		isn.slots[i], isn.slots[i+1] = w[0], w[1]
	default:
		panic("semiext: ISN.Set needs one or two neighbors")
	}
}

// Clear retires the ISN of u, a vertex that was A until now: a singleton
// {w} stops counting toward w's witnesses while w is I or R (rule 2). u's
// slots are left stale.
func (isn *ISN) Clear(u uint32) {
	i := int(u) << isn.shift
	if isn.shift == 1 && isn.slots[i+1] != NoVertex {
		return
	}
	w := isn.slots[i]
	if s := isn.states.Get(w); s == StateIS || s == StateRetrograde {
		isn.slots[int(w)<<isn.shift]--
	}
}

// Join moves v into the set with a zero witness count (rule 3).
func (isn *ISN) Join(v uint32) {
	isn.states.Set(v, StateIS)
	isn.slots[int(v)<<isn.shift] = 0
}

// Get returns the A vertex u's IS neighbors: w1 and n = 1 for a singleton,
// w1, w2 and n = 2 for a pair.
func (isn *ISN) Get(u uint32) (w1, w2 uint32, n int) {
	i := int(u) << isn.shift
	if isn.shift == 0 || isn.slots[i+1] == NoVertex {
		return isn.slots[i], NoVertex, 1
	}
	return isn.slots[i], isn.slots[i+1], 2
}

// PreimageCount returns |ISN⁻¹(w)| for a vertex w in state I or R: how many
// A vertices name exactly {w}.
func (isn *ISN) PreimageCount(w uint32) uint32 { return isn.slots[int(w)<<isn.shift] }

// MemoryBytes returns the slot array's in-memory size: 4 or 8 bytes per
// vertex.
func (isn *ISN) MemoryBytes() uint64 { return uint64(len(isn.slots)) * 4 }
