package gio

import (
	"context"
	"encoding/binary"
	"fmt"
)

// RandomAccessStats counts positional reads — the access pattern the
// semi-external algorithms exist to avoid. Only RandomAccessFile produces
// them.
type RandomAccessStats struct {
	RandomReads uint64 // positional record fetches
	BytesRead   uint64
}

// RandomAccessFile lets an algorithm fetch individual adjacency records by
// vertex ID through positional reads. It exists to reproduce the paper's
// Section 4.1 Remark: the classical DynamicUpdate greedy needs exactly this
// access pattern, which is why it cannot be run semi-externally. One
// sequential scan builds the offset index (O(|V|) memory); every Fetch
// afterwards is a random read counted in RandomAccessStats.
type RandomAccessFile struct {
	f       *File
	offsets []int64 // byte offset of each vertex's record
	degrees []uint32
	stats   RandomAccessStats
	buf     []byte
}

// NewRandomAccessFile indexes f's records with one sequential scan.
// Compressed files are not supported (their records are not independently
// seekable without the index storing bit positions).
func NewRandomAccessFile(f *File) (*RandomAccessFile, error) {
	if f.header.Flags&FlagCompressed != 0 {
		return nil, fmt.Errorf("gio: random access over compressed files is not supported")
	}
	n := f.NumVertices()
	ra := &RandomAccessFile{
		f:       f,
		offsets: make([]int64, n),
		degrees: make([]uint32, n),
	}
	off := int64(HeaderSize)
	err := f.ForEachBatchCtx(context.TODO(), func(batch []Record) error {
		for _, r := range batch {
			ra.offsets[r.ID] = off
			ra.degrees[r.ID] = uint32(len(r.Neighbors))
			off += 8 + 4*int64(len(r.Neighbors))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ra, nil
}

// Degree returns v's degree from the in-memory index (no I/O).
func (ra *RandomAccessFile) Degree(v uint32) int { return int(ra.degrees[v]) }

// Degrees returns the whole degree index, indexed by vertex ID (no I/O).
// The slice is the index itself; callers must not modify it.
func (ra *RandomAccessFile) Degrees() []uint32 { return ra.degrees }

// Fetch reads v's neighbor list with one positional read. The returned
// slice is reused by the next Fetch.
func (ra *RandomAccessFile) Fetch(v uint32) ([]uint32, error) {
	deg := int(ra.degrees[v])
	need := 8 + 4*deg
	if cap(ra.buf) < need {
		ra.buf = make([]byte, need, need*2)
	}
	buf := ra.buf[:need]
	if _, err := ra.f.f.ReadAt(buf, ra.offsets[v]); err != nil {
		return nil, fmt.Errorf("gio: random read of vertex %d: %w", v, err)
	}
	ra.stats.RandomReads++
	ra.stats.BytesRead += uint64(need)
	id := binary.LittleEndian.Uint32(buf[0:])
	if id != v {
		return nil, fmt.Errorf("%w: random read of vertex %d found record %d", ErrBadFormat, v, id)
	}
	out := make([]uint32, deg)
	if hi := DecodeUint32s(out, buf[8:]); uint64(hi) >= ra.f.header.Vertices {
		return nil, errNeighborRange(ra.f.path, uint64(v), out, ra.f.header.Vertices)
	}
	return out, nil
}

// Stats returns the accumulated random-read counters.
func (ra *RandomAccessFile) Stats() RandomAccessStats { return ra.stats }
