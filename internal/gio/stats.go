package gio

import (
	"fmt"
	"sync/atomic"
)

// Stats is one consistent snapshot of I/O accounting: scans, records, bytes
// and buffered blocks. The semi-external algorithms report these numbers for
// the paper's Table 6 style measurements. Stats is a plain value — results
// embed it, deltas subtract it — produced by Counters.Snapshot; the
// accumulation itself happens in Counters, whose atomic adds make one
// counter set shareable by concurrent runs.
type Stats struct {
	// Scans counts completed logical scans: sequential passes the consuming
	// algorithm's structure calls for. When the pass scheduler
	// (internal/pipeline) fuses several logical passes into one shared
	// physical scan, each fused pass still counts here, so an algorithm's
	// Scans stays comparable whether or not fusion is enabled.
	Scans int
	// PhysicalScans counts completed end-to-end passes over the file — the
	// scan count of the paper's I/O cost model, and the number fusion
	// actually reduces. Without fusion, PhysicalScans == Scans.
	PhysicalScans int
	// CarriedScans counts the logical scans that were satisfied entirely
	// from state carried across swap rounds (the pipeline's cross-round
	// Produces/Consumes fusion): the pass's records were collected while
	// riding an earlier round's physical scan and resolved from memory, so
	// no physical pass was paid. Always ≤ Scans; each carried scan is one
	// physical scan the classic round structure would have spent.
	CarriedScans  int
	RecordsRead   uint64 // vertex records decoded
	BytesRead     uint64
	BytesWritten  uint64
	BlocksRead    uint64 // buffered refills of size ≤ block size
	BlocksWritten uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Scans += other.Scans
	s.PhysicalScans += other.PhysicalScans
	s.CarriedScans += other.CarriedScans
	s.RecordsRead += other.RecordsRead
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.BlocksRead += other.BlocksRead
	s.BlocksWritten += other.BlocksWritten
}

// Sub returns the difference s - snap: the I/O performed since snap was
// taken. It is the delta primitive behind per-run and per-round accounting.
func (s Stats) Sub(snap Stats) Stats {
	return Stats{
		Scans:         s.Scans - snap.Scans,
		PhysicalScans: s.PhysicalScans - snap.PhysicalScans,
		CarriedScans:  s.CarriedScans - snap.CarriedScans,
		RecordsRead:   s.RecordsRead - snap.RecordsRead,
		BytesRead:     s.BytesRead - snap.BytesRead,
		BytesWritten:  s.BytesWritten - snap.BytesWritten,
		BlocksRead:    s.BlocksRead - snap.BlocksRead,
		BlocksWritten: s.BlocksWritten - snap.BlocksWritten,
	}
}

// String formats the counters compactly.
func (s *Stats) String() string {
	return fmt.Sprintf("scans=%d physical=%d carried=%d records=%d read=%s written=%s blocks(r/w)=%d/%d",
		s.Scans, s.PhysicalScans, s.CarriedScans, s.RecordsRead, FormatBytes(s.BytesRead), FormatBytes(s.BytesWritten),
		s.BlocksRead, s.BlocksWritten)
}

// ModelBlocks is the paper's I/O cost of one scan, ⌈(|V|+|E|)/B⌉ blocks,
// with |V|+|E| counted in the raw format's 8-byte units: a raw record is an
// ID and a degree word plus one word per directed edge, so a raw file holds
// 8·(|V|+|E|) payload bytes and one full scan of it reads exactly this many
// blocks of blockSize bytes.
func ModelBlocks(vertices int, edges uint64, blockSize int) uint64 {
	bytes := 8 * (uint64(vertices) + edges)
	return (bytes + uint64(blockSize) - 1) / uint64(blockSize)
}

// Counters is the concurrency-safe accumulator behind Stats. Every reader
// and writer that shares a Counters adds with atomic operations, so
// concurrent runs — several solvers scanning one file at once — can account
// into the same totals without a data race.
//
// A Counters may be a scope of a parent (see Scope): every addition then
// forwards to the parent as well, which is how a run-private counter set
// merges into its file's lifetime totals while staying independently
// readable. The zero value is a valid root accumulator.
type Counters struct {
	parent *Counters

	scans         atomic.Int64
	physicalScans atomic.Int64
	carriedScans  atomic.Int64
	recordsRead   atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	blocksRead    atomic.Uint64
	blocksWritten atomic.Uint64
}

// Scope returns a fresh child accumulator whose every addition also lands
// in c: the per-run stat scope of a solver run. Reading the child yields
// exactly the I/O of that run, while the parent keeps the file-lifetime
// total. Scopes may nest.
func (c *Counters) Scope() *Counters { return &Counters{parent: c} }

// AddScans counts n completed logical scans.
func (c *Counters) AddScans(n int) {
	for s := c; s != nil; s = s.parent {
		s.scans.Add(int64(n))
	}
}

// AddPhysicalScans counts n completed end-to-end passes over the file.
func (c *Counters) AddPhysicalScans(n int) {
	for s := c; s != nil; s = s.parent {
		s.physicalScans.Add(int64(n))
	}
}

// AddCarriedScans counts n logical scans resolved from carried state.
func (c *Counters) AddCarriedScans(n int) {
	for s := c; s != nil; s = s.parent {
		s.carriedScans.Add(int64(n))
	}
}

// AddRecordsRead counts n decoded vertex records.
func (c *Counters) AddRecordsRead(n uint64) {
	for s := c; s != nil; s = s.parent {
		s.recordsRead.Add(n)
	}
}

// AddBytesRead counts n bytes consumed from disk.
func (c *Counters) AddBytesRead(n uint64) {
	for s := c; s != nil; s = s.parent {
		s.bytesRead.Add(n)
	}
}

// AddBytesWritten counts n bytes written to disk.
func (c *Counters) AddBytesWritten(n uint64) {
	for s := c; s != nil; s = s.parent {
		s.bytesWritten.Add(n)
	}
}

// AddBlocksRead counts n buffered read refills.
func (c *Counters) AddBlocksRead(n uint64) {
	for s := c; s != nil; s = s.parent {
		s.blocksRead.Add(n)
	}
}

// AddBlocksWritten counts n buffered write flushes.
func (c *Counters) AddBlocksWritten(n uint64) {
	for s := c; s != nil; s = s.parent {
		s.blocksWritten.Add(n)
	}
}

// AddStats accumulates a whole snapshot at once.
func (c *Counters) AddStats(s Stats) {
	c.AddScans(s.Scans)
	c.AddPhysicalScans(s.PhysicalScans)
	c.AddCarriedScans(s.CarriedScans)
	c.AddRecordsRead(s.RecordsRead)
	c.AddBytesRead(s.BytesRead)
	c.AddBytesWritten(s.BytesWritten)
	c.AddBlocksRead(s.BlocksRead)
	c.AddBlocksWritten(s.BlocksWritten)
}

// Snapshot returns the current totals as a plain Stats value. Each field is
// read atomically; with concurrent writers the fields are individually — not
// jointly — consistent, which is what progress reporting needs.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Scans:         int(c.scans.Load()),
		PhysicalScans: int(c.physicalScans.Load()),
		CarriedScans:  int(c.carriedScans.Load()),
		RecordsRead:   c.recordsRead.Load(),
		BytesRead:     c.bytesRead.Load(),
		BytesWritten:  c.bytesWritten.Load(),
		BlocksRead:    c.blocksRead.Load(),
		BlocksWritten: c.blocksWritten.Load(),
	}
}

// Reset zeroes this accumulator's own counters. A parent scope is not
// touched: resetting a file's lifetime totals does not rewrite history
// recorded elsewhere.
func (c *Counters) Reset() {
	c.scans.Store(0)
	c.physicalScans.Store(0)
	c.carriedScans.Store(0)
	c.recordsRead.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.blocksRead.Store(0)
	c.blocksWritten.Store(0)
}

// String formats the current totals compactly.
func (c *Counters) String() string {
	s := c.Snapshot()
	return s.String()
}

// FormatBytes renders a byte count with a binary-prefix unit, e.g. "1.5MB".
func FormatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(n)/float64(div), "KMGTPE"[exp])
}
