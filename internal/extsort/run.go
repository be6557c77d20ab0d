package extsort

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/gio"
)

// Intermediate runs use a raw, EOF-terminated record stream rather than the
// gio adjacency format: a run holds an arbitrary subset of a graph's
// vertices, so gio's header-driven record count and ID validation do not
// apply to it. Record encoding and neighbor decoding reuse gio's raw-record
// codec, so the bytes are laid out identically to an adjacency file's body
// and both sides move whole records per call instead of 4 bytes at a time.

type runWriter struct {
	f   *os.File
	bw  *bufio.Writer
	buf []byte
}

// newRunWriter creates a run file whose writes are accounted in
// opts.Stats, block by block.
func newRunWriter(path string, opts Options) (*runWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: create run %s: %w", path, err)
	}
	return &runWriter{f: f, bw: bufio.NewWriterSize(gio.CountWrites(f, opts.Stats), runBlockSize(opts))}, nil
}

// runBlockSize is the run files' I/O buffer size.
func runBlockSize(opts Options) int {
	if opts.BlockSize <= 0 {
		return 256 * 1024
	}
	return opts.BlockSize
}

func (w *runWriter) append(id uint32, neighbors []uint32) error {
	w.buf = gio.AppendRawRecord(w.buf[:0], id, neighbors)
	_, err := w.bw.Write(w.buf)
	return err
}

func (w *runWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

type runReader struct {
	f    *os.File
	br   *bufio.Reader
	buf  []byte
	path string
	n    uint32 // vertex count: every record ID and degree is below it

	// id and ns are the current record; ns is reused by the next call.
	id uint32
	ns []uint32
}

// newRunReader opens a run file of an n-vertex graph whose reads are
// accounted in opts.Stats, block by block.
func newRunReader(path string, opts Options, n uint32) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run %s: %w", path, err)
	}
	br := bufio.NewReaderSize(gio.CountReads(f, opts.Stats), runBlockSize(opts))
	return &runReader{f: f, br: br, path: path, n: n, buf: make([]byte, 8)}, nil
}

// next reads the next record into id and ns, reporting false at the end of
// the run.
func (r *runReader) next() (bool, error) {
	if _, err := io.ReadFull(r.br, r.buf[:8]); err != nil {
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		return false, fmt.Errorf("extsort: run %s: %w", r.path, err)
	}
	r.id = binary.LittleEndian.Uint32(r.buf[0:])
	d := binary.LittleEndian.Uint32(r.buf[4:])
	if r.id >= r.n || d >= r.n {
		return false, fmt.Errorf("extsort: run %s: corrupt record (vertex %d, degree %d)", r.path, r.id, d)
	}
	deg := int(d)
	if cap(r.ns) < deg {
		r.ns = make([]uint32, deg, deg*2)
	}
	r.ns = r.ns[:deg]
	if cap(r.buf) < 4*deg {
		r.buf = make([]byte, 4*deg)
	}
	if _, err := io.ReadFull(r.br, r.buf[:4*deg]); err != nil {
		return false, fmt.Errorf("extsort: run %s truncated: %w", r.path, err)
	}
	gio.DecodeUint32s(r.ns, r.buf)
	return true, nil
}

func (r *runReader) close() error { return r.f.Close() }
