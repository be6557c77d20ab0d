package semiext

// Pair is a swap-candidate pair (u, v): two A vertices that could replace
// the IS pair the bucket is keyed by (Definition 2 of the paper).
type Pair struct {
	U, V uint32
}

// SCStore holds the swap-candidate sets SC(w1, w2) of the two-k-swap
// algorithm, keyed by the unordered IS pair {w1, w2}. It tracks a high-water
// mark of stored vertices, which the paper bounds by |V| − e^α (Lemma 6) and
// measures empirically as |SC| ≈ 0.13·|V| (Figure 10).
type SCStore struct {
	buckets   map[uint64][]Pair
	size      int // current number of stored vertices (2 per pair)
	highWater int
}

// NewSCStore returns an empty store.
func NewSCStore() *SCStore {
	return &SCStore{buckets: make(map[uint64][]Pair)}
}

func scKey(w1, w2 uint32) uint64 {
	if w1 > w2 {
		w1, w2 = w2, w1
	}
	return uint64(w1)<<32 | uint64(w2)
}

// Add records the pair (u, v) as a swap candidate for the IS pair {w1, w2}.
func (sc *SCStore) Add(w1, w2, u, v uint32) {
	k := scKey(w1, w2)
	sc.buckets[k] = append(sc.buckets[k], Pair{U: u, V: v})
	sc.size += 2
	if sc.size > sc.highWater {
		sc.highWater = sc.size
	}
}

// Pairs returns the candidate pairs recorded for {w1, w2}. Callers must
// re-validate the states of returned vertices; entries are not eagerly
// removed when a vertex leaves state A.
func (sc *SCStore) Pairs(w1, w2 uint32) []Pair {
	return sc.buckets[scKey(w1, w2)]
}

// Free drops the bucket for {w1, w2} (Algorithm 4 line 8 frees the space
// once its skeleton fires).
func (sc *SCStore) Free(w1, w2 uint32) {
	k := scKey(w1, w2)
	if ps, ok := sc.buckets[k]; ok {
		sc.size -= 2 * len(ps)
		delete(sc.buckets, k)
	}
}

// Reset drops all buckets, keeping the high-water mark.
func (sc *SCStore) Reset() {
	sc.buckets = make(map[uint64][]Pair)
	sc.size = 0
}

// Size returns the current number of stored vertices (two per pair).
func (sc *SCStore) Size() int { return sc.size }

// HighWater returns the peak number of stored vertices over the store's
// lifetime.
func (sc *SCStore) HighWater() int { return sc.highWater }

// MemoryBytes returns the footprint at the high-water mark, counted as 4
// bytes per stored vertex (8 per pair); map and bucket overhead is not
// counted.
func (sc *SCStore) MemoryBytes() uint64 {
	return uint64(sc.highWater) * 4
}
