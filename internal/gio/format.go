// Package gio implements the on-disk graph format used by the semi-external
// algorithms: a binary adjacency-list file read and written strictly
// sequentially through block-buffered I/O, with counters for every scan,
// block and byte so experiments can report I/O cost.
//
// File layout (all integers little-endian):
//
//	offset 0   magic     8 bytes  "MISADJ1\n"
//	offset 8   version   uint32   currently 1
//	offset 12  flags     uint32   bit 0: records are in ascending-degree order
//	offset 16  vertices  uint64
//	offset 24  edges     uint64   undirected edge count
//	offset 32  records...         one per vertex, in scan order:
//	             id        uint32
//	             degree    uint32
//	             neighbors degree × uint32
//
// Every vertex appears in exactly one record; the scan order is the order in
// which semi-external algorithms visit vertices. Neighbor lists store vertex
// IDs; callers that need neighbors ordered by degree arrange that when the
// file is produced (see internal/extsort).
package gio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies adjacency files.
const Magic = "MISADJ1\n"

// HeaderSize is the byte length of the fixed file header.
const HeaderSize = 32

// Format flags.
const (
	// FlagDegreeSorted marks a file whose records are in ascending order of
	// vertex degree (the Greedy preprocessing output).
	FlagDegreeSorted uint32 = 1 << 0
)

// DefaultBlockSize is the buffer size used for sequential reads and writes
// when the caller does not specify one. It plays the role of the block size
// B in the paper's I/O cost formulas.
const DefaultBlockSize = 256 * 1024

// Header describes an adjacency file.
type Header struct {
	Version  uint32
	Flags    uint32
	Vertices uint64
	Edges    uint64
}

// DegreeSorted reports whether the file's records are in ascending degree
// order.
func (h Header) DegreeSorted() bool { return h.Flags&FlagDegreeSorted != 0 }

// ErrBadFormat is wrapped by errors returned for malformed files.
var ErrBadFormat = errors.New("gio: malformed adjacency file")

func (h Header) encode(buf []byte) {
	copy(buf[:8], Magic)
	binary.LittleEndian.PutUint32(buf[8:], h.Version)
	binary.LittleEndian.PutUint32(buf[12:], h.Flags)
	binary.LittleEndian.PutUint64(buf[16:], h.Vertices)
	binary.LittleEndian.PutUint64(buf[24:], h.Edges)
}

func decodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < HeaderSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrBadFormat, len(buf))
	}
	if string(buf[:8]) != Magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrBadFormat, buf[:8])
	}
	h.Version = binary.LittleEndian.Uint32(buf[8:])
	if h.Version != 1 {
		return h, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, h.Version)
	}
	h.Flags = binary.LittleEndian.Uint32(buf[12:])
	h.Vertices = binary.LittleEndian.Uint64(buf[16:])
	h.Edges = binary.LittleEndian.Uint64(buf[24:])
	if h.Vertices > 1<<32 {
		return h, fmt.Errorf("%w: %d vertices exceed the 32-bit vertex ID space", ErrBadFormat, h.Vertices)
	}
	return h, nil
}
