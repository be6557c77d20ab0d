package gio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// FlagCompressed marks a file whose records are varint/delta encoded. The
// paper's datasets ship WebGraph-compressed [6]; this format plays the same
// role for this library: neighbor lists are stored as ascending vertex IDs
// with gap encoding, which none of the algorithms mind (they only iterate
// lists; the scan order of *records* still carries the degree sort).
//
// Compressed record layout:
//
//	uvarint id
//	uvarint degree
//	uvarint neighbors[0]            (absolute)
//	uvarint neighbors[k]-neighbors[k-1]-1   (gaps, strictly ascending)
const FlagCompressed uint32 = 1 << 1

// appendCompressed writes one compressed record. Neighbors are sorted into
// ascending ID order (a copy; the caller's slice is not modified). The whole
// record is encoded into the writer's scratch buffer and written with one
// call, instead of one write per varint.
func (w *Writer) appendCompressed(id uint32, neighbors []uint32) error {
	sorted := neighbors
	if !sort.SliceIsSorted(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] }) {
		sorted = make([]uint32, len(neighbors))
		copy(sorted, neighbors)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	buf := w.buf[:0]
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	prev := int64(-1)
	for _, nb := range sorted {
		if int64(nb) == prev {
			err := fmt.Errorf("gio: duplicate neighbor %d in record %d", nb, id)
			w.err = err
			return err
		}
		gap := uint64(int64(nb) - prev - 1)
		prev = int64(nb)
		buf = binary.AppendUvarint(buf, gap)
	}
	w.buf = buf[:0]
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
		return err
	}
	w.records++
	w.degSum += uint64(len(sorted))
	w.observeCut(int64(len(buf)))
	return nil
}

// errVarintOverflow mirrors encoding/binary's unexported overflow error so
// the slice-based varint decoder reports byte-for-byte the same failure as
// binary.ReadUvarint does on the bytewise reference path — the parity tests
// compare the two as strings.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarintSafe is the window headroom above which a varint can be decoded
// straight from the slice with binary.Uvarint: with MaxVarintLen64+1 bytes
// available the decode always terminates (n > 0) or overflows (n < 0),
// never reports "buf too small" (n == 0).
const uvarintSafe = binary.MaxVarintLen64 + 1

// uvarint decodes one varint from the window, refilling as needed. Error
// semantics mirror binary.ReadUvarint exactly: io.EOF when no byte was
// available, io.ErrUnexpectedEOF when the varint was cut short, the
// stdlib's overflow message after ten bytes, and underlying read errors
// verbatim.
func (s *Scanner) uvarint() (uint64, error) {
	if len(s.win)-s.pos >= uvarintSafe {
		x, n := binary.Uvarint(s.win[s.pos:])
		if n > 0 {
			s.pos += n
			return x, nil
		}
		return 0, errVarintOverflow
	}
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		for s.pos >= len(s.win) {
			if !s.more() {
				err := s.ioErr
				if err == nil {
					err = io.EOF
				}
				if i > 0 && err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return x, err
			}
		}
		b := s.win[s.pos]
		s.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errVarintOverflow
			}
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return x, errVarintOverflow
}

// fillCompressed batch-decodes varint/gap records from the window. The
// arithmetic matches the bytewise reference decoder exactly, including its
// int64 wraparound behavior on adversarial gap values, so the two paths
// accept and reject byte-identical inputs.
func (s *Scanner) fillCompressed() {
	h := s.file.header
	for s.read < s.limit && len(s.recs) < batchMaxRecords && len(s.arena) < batchTargetInts {
		var id64, deg64 uint64
		if s.pending {
			id64, deg64 = s.pendingID, s.pendingDeg
			s.pending = false
		} else {
			var err error
			id64, err = s.uvarint()
			if err != nil {
				s.fail(fmt.Errorf("%w: %s: record %d id: %v", ErrBadFormat, s.file.path, s.read, err))
				return
			}
			deg64, err = s.uvarint()
			if err != nil {
				s.fail(fmt.Errorf("%w: %s: record %d degree: %v", ErrBadFormat, s.file.path, s.read, err))
				return
			}
			if id64 >= h.Vertices {
				s.fail(fmt.Errorf("%w: %s: record %d has out-of-range id %d", ErrBadFormat, s.file.path, s.read, id64))
				return
			}
			if deg64 >= s.file.degLimit {
				s.fail(fmt.Errorf("%w: %s: vertex %d has impossible degree %d", ErrBadFormat, s.file.path, id64, deg64))
				return
			}
		}
		deg := int(deg64)
		if !s.reserve(deg) {
			s.pending, s.pendingID, s.pendingDeg = true, id64, deg64
			return
		}
		start := len(s.arena)
		s.arena = s.arena[:start+deg]
		dst := s.arena[start : start+deg]
		prev := int64(-1)
		for i := 0; i < deg; {
			// Fast path: while the window holds guaranteed-complete varints,
			// decode gaps straight off the slice with no refill checks.
			win, pos := s.win, s.pos
			for i < deg && len(win)-pos >= uvarintSafe {
				gap, n := binary.Uvarint(win[pos:])
				if n <= 0 {
					s.pos = pos
					s.fail(fmt.Errorf("%w: %s: vertex %d neighbors: %v", ErrBadFormat, s.file.path, id64, errVarintOverflow))
					return
				}
				pos += n
				v := prev + 1 + int64(gap)
				if v >= int64(h.Vertices) {
					s.pos = pos
					s.fail(fmt.Errorf("%w: %s: vertex %d has out-of-range neighbor %d", ErrBadFormat, s.file.path, id64, v))
					return
				}
				dst[i] = uint32(v)
				prev = v
				i++
			}
			s.pos = pos
			if i == deg {
				break
			}
			// Slow path near the window edge: one gap with refills.
			gap, err := s.uvarint()
			if err != nil {
				s.fail(fmt.Errorf("%w: %s: vertex %d neighbors: %v", ErrBadFormat, s.file.path, id64, err))
				return
			}
			v := prev + 1 + int64(gap)
			if v >= int64(h.Vertices) {
				s.fail(fmt.Errorf("%w: %s: vertex %d has out-of-range neighbor %d", ErrBadFormat, s.file.path, id64, v))
				return
			}
			dst[i] = uint32(v)
			prev = v
			i++
		}
		s.recs = append(s.recs, Record{ID: uint32(id64), Neighbors: s.arena[start : start+deg : start+deg]})
		s.read++
	}
}
