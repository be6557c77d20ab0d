package gio

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Writer produces an adjacency file through buffered sequential writes.
// Records must be appended in the intended scan order. Close finalizes the
// header with the actual vertex and edge counts and, by default, appends a
// footer carrying the record count and the partition cut table observed
// during the write (see footer.go) — so files it produces open with their
// partition plan pre-loaded and never pay a planning scan.
type Writer struct {
	f       *os.File
	bw      *countingWriter
	buf     []byte
	header  Header
	records uint64
	degSum  uint64
	stats   *Counters
	err     error

	// Footer bookkeeping: off tracks the absolute offset past the last
	// record written; cuts accumulates the partition cut table with exactly
	// the cadence of the planning scan's cutBuilder, so a footer-loaded plan
	// and a side-scan plan are identical.
	off        int64
	cuts       cutTable
	noFooter   bool
	vertices   uint64 // header vertex-count override (shard files); 0 = records
	hasVertSet bool
}

// NewWriter creates (truncating) an adjacency file at path. flags are format
// flags such as FlagDegreeSorted. stats may be nil.
func NewWriter(path string, flags uint32, blockSize int, stats *Counters) (*Writer, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("gio: create %s: %w", path, err)
	}
	w := &Writer{
		f:      f,
		bw:     newCountingWriter(f, blockSize, stats),
		header: Header{Version: 1, Flags: flags},
		stats:  stats,
		off:    HeaderSize,
		cuts:   cutTable{recs: []uint64{0}, offs: []int64{HeaderSize}},
	}
	// Reserve header space; rewritten on Close with final counts.
	var hdr [HeaderSize]byte
	if _, err := w.bw.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: write header: %w", err)
	}
	return w, nil
}

// Append writes the record for vertex id with the given neighbor list.
// On a FlagCompressed writer the list is stored varint/delta encoded in
// ascending ID order; otherwise it is stored verbatim. Either way the whole
// record is encoded first and written in one call: a raw record straight
// into the buffered writer's free space when it fits there, any other
// record into a reusable scratch buffer.
func (w *Writer) Append(id uint32, neighbors []uint32) error {
	if w.err != nil {
		return w.err
	}
	if w.header.Flags&FlagCompressed != 0 {
		return w.appendCompressed(id, neighbors)
	}
	rec := w.bw.AvailableBuffer()
	if cap(rec) >= 8+4*len(neighbors) {
		rec = AppendRawRecord(rec, id, neighbors)
	} else {
		w.buf = AppendRawRecord(w.buf[:0], id, neighbors)
		rec = w.buf
	}
	if _, err := w.bw.Write(rec); err != nil {
		w.err = err
		return err
	}
	w.records++
	w.degSum += uint64(len(neighbors))
	w.observeCut(int64(len(rec)))
	return nil
}

// observeCut folds one written record of n bytes into the footer's cut
// table, mirroring cutBuilder.observe record for record.
func (w *Writer) observeCut(n int64) {
	w.off += n
	if w.off-w.cuts.offs[len(w.cuts.offs)-1] >= cutGranularity {
		w.cuts.recs = append(w.cuts.recs, w.records)
		w.cuts.offs = append(w.cuts.offs, w.off)
	}
}

// PayloadBytes returns the encoded size of the records appended so far
// (header and footer excluded). Splitters use it to roll shard files at a
// byte budget.
func (w *Writer) PayloadBytes() int64 { return w.off - HeaderSize }

// Records returns the number of records appended so far.
func (w *Writer) Records() uint64 { return w.records }

// SetVertexCount overrides the header's vertex count on Close. Shard files
// use it to keep the global vertex count in the header — so global vertex
// IDs and degrees still validate on a bare open — while the footer records
// how many records the shard actually holds.
func (w *Writer) SetVertexCount(n uint64) {
	w.vertices = n
	w.hasVertSet = true
}

// DisableFooter makes Close skip the footer, producing the pre-footer format
// byte for byte. Tests use it to exercise the footerless fallback path;
// production writers have no reason to.
func (w *Writer) DisableFooter() { w.noFooter = true }

// Close appends the footer, flushes buffered data, rewrites the header with
// final counts, and closes the file.
func (w *Writer) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if !w.noFooter {
		// Seal the cut table (the final boundary closes at the payload end)
		// and append footer block + trailer through the same buffered writer.
		if last := len(w.cuts.offs) - 1; w.cuts.offs[last] != w.off {
			w.cuts.recs = append(w.cuts.recs, w.records)
			w.cuts.offs = append(w.cuts.offs, w.off)
		}
		w.buf = appendFooter(w.buf[:0], w.records, &w.cuts)
		if _, err := w.bw.Write(w.buf); err != nil {
			w.f.Close()
			return fmt.Errorf("gio: write footer: %w", err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("gio: flush: %w", err)
	}
	w.header.Vertices = w.records
	if w.hasVertSet {
		w.header.Vertices = w.vertices
	}
	w.header.Edges = w.degSum / 2
	var hdr [HeaderSize]byte
	w.header.encode(hdr[:])
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		w.f.Close()
		return fmt.Errorf("gio: rewrite header: %w", err)
	}
	if w.stats != nil {
		w.stats.AddBytesWritten(HeaderSize)
	}
	return w.f.Close()
}

// countingWriter is a bufio.Writer that counts bytes and flushes (blocks)
// into Stats.
type countingWriter struct {
	*bufio.Writer
	stats *Counters
}

func newCountingWriter(w io.Writer, blockSize int, stats *Counters) *countingWriter {
	cw := &countingWriter{stats: stats}
	cw.Writer = bufio.NewWriterSize(statsWriter{w, stats}, blockSize)
	return cw
}

// CountWrites returns w with each Write accounted in stats as its bytes
// and one block, as gio's own writers account theirs. For files gio does not
// own, such as the external sort's runs; stats may be nil.
func CountWrites(w io.Writer, stats *Counters) io.Writer { return statsWriter{w, stats} }

type statsWriter struct {
	w     io.Writer
	stats *Counters
}

func (sw statsWriter) Write(p []byte) (int, error) {
	n, err := sw.w.Write(p)
	if sw.stats != nil {
		sw.stats.AddBytesWritten(uint64(n))
		sw.stats.AddBlocksWritten(1)
	}
	return n, err
}
