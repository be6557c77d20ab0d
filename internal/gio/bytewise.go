package gio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file preserves the pre-pipeline scanner: a bufio.Reader decoded one
// record at a time, one binary.ReadUvarint byte at a time on compressed
// files. It is kept, unchanged in behavior, for two reasons:
//
//   - the decoder-parity tests assert that the block-pipelined engine
//     reproduces its records, its error messages and its Stats accounting
//     bit for bit, on well-formed and on truncated/corrupt files alike;
//   - misbench's scanbench experiment and the internal/gio benchmarks
//     measure old-vs-new throughput from the same binary, which is how
//     BENCH_scan.json tracks the speedup across PRs.
//
// New code should use ForEachBatchCtx instead.

// ForEachBytewise runs one full sequential scan using the byte-at-a-time
// reference decoder, invoking fn for every record. Stats accounting matches
// ForEachBatchCtx on completed scans.
func (g *File) ForEachBytewise(fn func(Record) error) error {
	sc, err := g.scanBytewise()
	if err != nil {
		return err
	}
	for sc.next() {
		if err := fn(sc.rec); err != nil {
			return err
		}
	}
	return sc.err
}

// bytewiseScanner is the pre-pipeline Scanner, verbatim.
type bytewiseScanner struct {
	file    *File
	br      *bufio.Reader
	rec     Record
	scratch []uint32
	buf     []byte
	read    uint64
	err     error
	done    bool
}

// scanBytewise rewinds the file and returns a reference scanner over all
// records. It seeks the shared descriptor, so it stops any in-flight
// pipelined scan first.
func (g *File) scanBytewise() (*bytewiseScanner, error) {
	g.stopActive()
	if _, err := g.f.Seek(HeaderSize, io.SeekStart); err != nil {
		return nil, fmt.Errorf("gio: rewind %s: %w", g.path, err)
	}
	return &bytewiseScanner{
		file: g,
		br:   bufio.NewReaderSize(statsReader{g.f, g.stats}, g.blockSize),
		buf:  make([]byte, 8),
	}, nil
}

func (s *bytewiseScanner) next() bool {
	if s.err != nil || s.done {
		return false
	}
	if s.read == s.file.records {
		s.done = true
		if s.file.stats != nil {
			s.file.stats.AddScans(1)
			s.file.stats.AddPhysicalScans(1)
		}
		return false
	}
	if s.file.header.Flags&FlagCompressed != 0 {
		return s.nextCompressed()
	}
	if _, err := io.ReadFull(s.br, s.buf[:8]); err != nil {
		s.err = fmt.Errorf("%w: %s: record %d header: %v", ErrBadFormat, s.file.path, s.read, err)
		return false
	}
	id := binary.LittleEndian.Uint32(s.buf[0:])
	deg := binary.LittleEndian.Uint32(s.buf[4:])
	if uint64(id) >= s.file.header.Vertices {
		s.err = fmt.Errorf("%w: %s: record %d has out-of-range id %d", ErrBadFormat, s.file.path, s.read, id)
		return false
	}
	if uint64(deg) >= s.file.degLimit {
		s.err = fmt.Errorf("%w: %s: vertex %d has impossible degree %d", ErrBadFormat, s.file.path, id, deg)
		return false
	}
	if cap(s.scratch) < int(deg) {
		s.scratch = make([]uint32, deg, deg*2)
	}
	s.scratch = s.scratch[:deg]
	hi, err := readUint32s(s.br, s.scratch)
	if err != nil {
		s.err = fmt.Errorf("%w: %s: vertex %d neighbors: %v", ErrBadFormat, s.file.path, id, err)
		return false
	}
	if uint64(hi) >= s.file.header.Vertices {
		s.err = errNeighborRange(s.file.path, uint64(id), s.scratch, s.file.header.Vertices)
		return false
	}
	s.rec.ID = id
	s.rec.Neighbors = s.scratch
	s.read++
	if s.file.stats != nil {
		s.file.stats.AddRecordsRead(1)
	}
	return true
}

// nextCompressed decodes one compressed record, one varint byte at a time.
func (s *bytewiseScanner) nextCompressed() bool {
	br := byteReaderCounter{s.br}
	id64, err := binary.ReadUvarint(br)
	if err != nil {
		s.err = fmt.Errorf("%w: %s: record %d id: %v", ErrBadFormat, s.file.path, s.read, err)
		return false
	}
	deg64, err := binary.ReadUvarint(br)
	if err != nil {
		s.err = fmt.Errorf("%w: %s: record %d degree: %v", ErrBadFormat, s.file.path, s.read, err)
		return false
	}
	if id64 >= s.file.header.Vertices {
		s.err = fmt.Errorf("%w: %s: record %d has out-of-range id %d", ErrBadFormat, s.file.path, s.read, id64)
		return false
	}
	if deg64 >= s.file.degLimit {
		s.err = fmt.Errorf("%w: %s: vertex %d has impossible degree %d", ErrBadFormat, s.file.path, id64, deg64)
		return false
	}
	deg := int(deg64)
	if cap(s.scratch) < deg {
		s.scratch = make([]uint32, deg, deg*2)
	}
	s.scratch = s.scratch[:deg]
	prev := int64(-1)
	for i := 0; i < deg; i++ {
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			s.err = fmt.Errorf("%w: %s: vertex %d neighbors: %v", ErrBadFormat, s.file.path, id64, err)
			return false
		}
		v := prev + 1 + int64(gap)
		if v >= int64(s.file.header.Vertices) {
			s.err = fmt.Errorf("%w: %s: vertex %d has out-of-range neighbor %d", ErrBadFormat, s.file.path, id64, v)
			return false
		}
		s.scratch[i] = uint32(v)
		prev = v
	}
	s.rec.ID = uint32(id64)
	s.rec.Neighbors = s.scratch
	s.read++
	if s.file.stats != nil {
		s.file.stats.AddRecordsRead(1)
	}
	return true
}

// readUint32s fills dst with little-endian uint32 values from r and returns
// the largest of them.
func readUint32s(r io.Reader, dst []uint32) (uint32, error) {
	var buf [4096]byte
	hi := uint32(0)
	for len(dst) > 0 {
		chunk := len(dst) * 4
		if chunk > len(buf) {
			chunk = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:chunk]); err != nil {
			return 0, err
		}
		hi = max(hi, DecodeUint32s(dst[:chunk/4], buf[:chunk]))
		dst = dst[chunk/4:]
	}
	return hi, nil
}

// statsReader counts bytes and buffered refills.
type statsReader struct {
	r     io.Reader
	stats *Counters
}

// CountReads is CountWrites for reads: each non-empty Read is accounted as
// its bytes and one block.
func CountReads(r io.Reader, stats *Counters) io.Reader { return statsReader{r, stats} }

func (sr statsReader) Read(p []byte) (int, error) {
	n, err := sr.r.Read(p)
	if sr.stats != nil {
		sr.stats.AddBytesRead(uint64(n))
		if n > 0 {
			sr.stats.AddBlocksRead(1)
		}
	}
	return n, err
}

// byteReaderCounter adapts bufio.Reader for binary.ReadUvarint.
type byteReaderCounter struct{ r *bufio.Reader }

func (b byteReaderCounter) ReadByte() (byte, error) { return b.r.ReadByte() }

var _ io.ByteReader = byteReaderCounter{}
