package semiext

import "math/bits"

// KeyTable assigns dense positions 0, 1, 2, … to 64-bit keys in
// first-insertion order, so that owners keep per-key data in flat arrays
// indexed by position instead of in a Go map. It is an open-addressed,
// linearly probed table of positions over the dense key array, at most half
// full: an insertion that would pass that doubles the table. Reset empties
// it and keeps every allocation, so a structure rebuilt each round stops
// allocating once it has seen its largest round.
type KeyTable struct {
	slots []int32  // 1 + position of the key placed there; 0 marks a free slot
	keys  []uint64 // by position
	shift uint     // 64 − log2(len(slots)): home slots are the hash's top bits
}

// minKeySlots is the table length of the first growth.
const minKeySlots = 16

// home returns k's first probe slot (Fibonacci hashing).
func (t *KeyTable) home(k uint64) int {
	return int((k * 0x9e3779b97f4a7c15) >> t.shift)
}

// Find returns k's position, if k was inserted since the last Reset.
func (t *KeyTable) Find(k uint64) (int, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if t.keys[s-1] == k {
			return int(s - 1), true
		}
	}
}

// Insert returns k's position, giving a new key the next position, Len()
// before the call. Owners tell a new key by that position.
func (t *KeyTable) Insert(k uint64) int {
	if pos, ok := t.Find(k); ok {
		return pos
	}
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.grow()
	}
	t.keys = append(t.keys, k)
	t.place(k, int32(len(t.keys)))
	return len(t.keys) - 1
}

// place stores slot value s in k's first free probe slot.
func (t *KeyTable) place(k uint64, s int32) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// grow doubles the table and re-places every key.
func (t *KeyTable) grow() {
	n := max(2*len(t.slots), minKeySlots)
	t.slots = make([]int32, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for p, k := range t.keys {
		t.place(k, int32(p+1))
	}
}

// Len returns the number of keys inserted since the last Reset.
func (t *KeyTable) Len() int { return len(t.keys) }

// Reset removes every key, keeping the table and key array allocated.
func (t *KeyTable) Reset() {
	clear(t.slots)
	t.keys = t.keys[:0]
}

// MemoryBytes returns the bytes the table has allocated. Capacity never
// shrinks, so this is also its high-water mark.
func (t *KeyTable) MemoryBytes() uint64 {
	return uint64(cap(t.slots))*4 + uint64(cap(t.keys))*8
}
