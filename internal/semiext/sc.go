package semiext

import (
	"iter"
	"unsafe"
)

// Pair is a swap-candidate pair (u, v): two A vertices that could replace
// the IS pair the bucket is keyed by (Definition 2 of the paper).
type Pair struct {
	U, V uint32
}

// CandidateIndex is two-k-swap's per-round swap-candidate store, keyed by
// an IS pair {w1, w2}. A singleton ISN {w} is keyed as (w, NoVertex), a key
// no two-vertex ISN produces, even one a record names twice. Each key
// keeps, in insertion order, two kinds of entry:
//   - partners: scanned A vertices whose ISN is exactly the key, which a
//     later vertex of the same key may pair with;
//   - candidate pairs, the SC(w1, w2) set of Definition 2 (two-vertex keys
//     only).
//
// Entries are validated lazily by the caller; none is removed when its
// vertex leaves state A. The paper bounds the SC population by |V| − e^α
// (Lemma 6), and Figure 10 measures it.
//
// The storage is flat: a KeyTable gives each key a position, a chain array
// holds each key's first and last entry, and every key's entries share one
// arena, linked in insertion order. Reset empties the index by length and
// keeps every allocation, so after its largest round a run's index stops
// allocating.
type CandidateIndex struct {
	keys    KeyTable
	chains  []chain     // by key position
	entries []candidate // every key's entries, linked through next

	size int // SC vertices: two per pair not yet freed
}

// chain locates one key's entries in the arena; -1 marks an empty chain.
type chain struct{ head, tail int32 }

// candidate is one arena entry: a candidate pair, or a partner U with V
// set to NoVertex.
type candidate struct {
	Pair
	next int32 // the key's next entry, -1 at the tail
}

// NewCandidateIndex returns an empty index.
func NewCandidateIndex() *CandidateIndex { return &CandidateIndex{} }

func candidateKey(w1, w2 uint32) uint64 {
	if w1 > w2 {
		w1, w2 = w2, w1
	}
	return uint64(w1)<<32 | uint64(w2)
}

// add appends an entry to the chain of {w1, w2}, creating the key.
func (x *CandidateIndex) add(w1, w2 uint32, c candidate) {
	pos := x.keys.Insert(candidateKey(w1, w2))
	if pos == len(x.chains) {
		x.chains = append(x.chains, chain{-1, -1})
	}
	c.next = -1
	e := int32(len(x.entries))
	x.entries = append(x.entries, c)
	ch := &x.chains[pos]
	if ch.tail < 0 {
		ch.head = e
	} else {
		x.entries[ch.tail].next = e
	}
	ch.tail = e
}

// AddPartner records u as a partner under {w1, w2}; w2 == NoVertex keys
// the singleton ISN {w1}.
func (x *CandidateIndex) AddPartner(w1, w2, u uint32) {
	x.add(w1, w2, candidate{Pair: Pair{U: u, V: NoVertex}})
}

// AddPair records (u, v) in SC(w1, w2).
func (x *CandidateIndex) AddPair(w1, w2, u, v uint32) {
	x.add(w1, w2, candidate{Pair: Pair{U: u, V: v}})
	x.size += 2
}

// head returns the first entry of {w1, w2}, or -1.
func (x *CandidateIndex) head(w1, w2 uint32) int32 {
	if pos, ok := x.keys.Find(candidateKey(w1, w2)); ok {
		return x.chains[pos].head
	}
	return -1
}

// Partners yields the partners recorded under {w1, w2}, in insertion order.
func (x *CandidateIndex) Partners(w1, w2 uint32) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for e := x.head(w1, w2); e >= 0; e = x.entries[e].next {
			if c := x.entries[e]; c.V == NoVertex && !yield(c.U) {
				return
			}
		}
	}
}

// Pairs yields SC(w1, w2), in insertion order.
func (x *CandidateIndex) Pairs(w1, w2 uint32) iter.Seq[Pair] {
	return func(yield func(Pair) bool) {
		for e := x.head(w1, w2); e >= 0; e = x.entries[e].next {
			if c := x.entries[e]; c.V != NoVertex && !yield(c.Pair) {
				return
			}
		}
	}
}

// Free drops every entry of {w1, w2} (Algorithm 4 line 8 frees the space
// once its skeleton fires). The arena space is reclaimed by the next Reset.
func (x *CandidateIndex) Free(w1, w2 uint32) {
	pos, ok := x.keys.Find(candidateKey(w1, w2))
	if !ok {
		return
	}
	for range x.Pairs(w1, w2) {
		x.size -= 2
	}
	x.chains[pos] = chain{-1, -1}
}

// Reset empties the index for a new round, keeping its allocations.
func (x *CandidateIndex) Reset() {
	x.keys.Reset()
	x.chains = x.chains[:0]
	x.entries = x.entries[:0]
	x.size = 0
}

// Size returns the SC population: two vertices per pair not yet freed.
func (x *CandidateIndex) Size() int { return x.size }

// MemoryBytes returns the bytes the index has allocated: its key table,
// chain array and entry arena. Capacity never shrinks, so this is also the
// index's high-water mark.
func (x *CandidateIndex) MemoryBytes() uint64 {
	return x.keys.MemoryBytes() +
		uint64(cap(x.chains))*uint64(unsafe.Sizeof(chain{})) +
		uint64(cap(x.entries))*uint64(unsafe.Sizeof(candidate{}))
}
