package semiext

// RecordBuffer is the bounded deferral store behind the scan-fusion
// machinery: vertex IDs with copies of their adjacency lists, held in scan
// order beside the packed state array so that a pass riding someone else's
// physical scan can put decisions off until that scan's state product is
// complete. The maximality sweep and the cross-round pre-swap carry are the
// two users. The buffer is budgeted in stored neighbor entries — keeping it
// in the same O(|V|) memory class as the state and ISN arrays — with
// explicit overflow (the owner falls back to a dedicated scan) and a memory
// high-water mark for the experiments' footprint accounting.
type RecordBuffer struct {
	ids   []uint32 // buffered vertices, in scan order
	nbrs  []uint32 // neighbor lists, back to back
	heads []uint32 // nbrs end offset per buffered vertex

	budget   int
	overflow bool
	peak     uint64
}

// NewRecordBuffer returns a buffer bounded at budget stored neighbor
// entries.
func NewRecordBuffer(budget int) *RecordBuffer {
	return &RecordBuffer{budget: budget}
}

// Append copies one record into the buffer and reports whether it fit.
// Exceeding the budget discards everything already buffered and latches
// Overflowed — a partial deferral is useless, and the fallback scan the
// owner will run instead covers the whole file anyway. Appends after
// overflow are ignored.
func (b *RecordBuffer) Append(id uint32, neighbors []uint32) bool {
	if b.overflow {
		return false
	}
	if len(b.nbrs)+len(neighbors) > b.budget {
		b.overflow = true
		b.ids, b.nbrs, b.heads = nil, nil, nil
		return false
	}
	b.ids = append(b.ids, id)
	b.nbrs = append(b.nbrs, neighbors...)
	b.heads = append(b.heads, uint32(len(b.nbrs)))
	if cur := uint64(cap(b.ids)+cap(b.heads)+cap(b.nbrs)) * 4; cur > b.peak {
		b.peak = cur
	}
	return true
}

// Overflowed reports whether the budget was ever exceeded since the last
// Reset; the buffered contents are gone and the owner must fall back to a
// dedicated scan.
func (b *RecordBuffer) Overflowed() bool { return b.overflow }

// Len returns the number of buffered records.
func (b *RecordBuffer) Len() int { return len(b.ids) }

// ID returns the i-th buffered vertex.
func (b *RecordBuffer) ID(i int) uint32 { return b.ids[i] }

// Neighbors returns the i-th buffered vertex's adjacency list. The slice
// aliases the buffer and is valid until the next Reset.
func (b *RecordBuffer) Neighbors(i int) []uint32 {
	start := uint32(0)
	if i > 0 {
		start = b.heads[i-1]
	}
	return b.nbrs[start:b.heads[i]]
}

// ForEach visits the buffered records in scan order.
func (b *RecordBuffer) ForEach(fn func(id uint32, neighbors []uint32)) {
	start := uint32(0)
	for i, id := range b.ids {
		end := b.heads[i]
		fn(id, b.nbrs[start:end])
		start = end
	}
}

// Reset drops the contents and clears overflow, keeping capacity (and the
// high-water mark, which spans the whole run).
func (b *RecordBuffer) Reset() {
	b.ids, b.nbrs, b.heads = b.ids[:0], b.nbrs[:0], b.heads[:0]
	b.overflow = false
}

// MemoryPeak returns the high-water byte footprint of the buffer: the
// capacity its arrays had allocated, which append growth leaves above the
// stored length.
func (b *RecordBuffer) MemoryPeak() uint64 { return b.peak }
