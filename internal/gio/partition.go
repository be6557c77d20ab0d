package gio

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Partition is a contiguous vertex-range slice of an adjacency file: a run
// of whole records, identified both by global record indices and by the
// exact byte range that encodes them. Partitions come from Partitions and
// are consumed by ScanPartition; they are the unit of work of the parallel
// partitioned executor (internal/exec).
type Partition struct {
	StartRecord uint64 // global index (scan order) of the first record
	Records     uint64 // number of records in the partition
	StartOffset int64  // absolute file offset of the first record
	EndOffset   int64  // absolute file offset one past the last record
}

// cutGranularity is the minimum payload distance between candidate cut
// points recorded by the planning scan. It bounds both the cut table's size
// (16 bytes per granule) and how far a partition boundary can sit from its
// ideal byte position; actual partitions are payload/parts bytes, usually
// much larger.
const cutGranularity = 16 * 1024

// cutTable is the cached planning index: record-aligned candidate cut
// points roughly every cutGranularity bytes of payload, each a (cumulative
// record count, absolute byte offset) pair. Entry 0 is (0, HeaderSize); the
// last entry is (total records, end of payload). The table is independent of
// any particular partition count, so one side scan serves every worker
// configuration of the file's lifetime.
type cutTable struct {
	recs []uint64
	offs []int64
}

// encodedSize returns the on-disk byte length of one record, recomputed
// from its decoded form. For compressed records this relies on neighbors
// being stored (and decoded) in ascending order with gap encoding.
func encodedSize(compressed bool, r Record) int64 {
	if !compressed {
		return 8 + 4*int64(len(r.Neighbors))
	}
	n := uvarintLen(uint64(r.ID)) + uvarintLen(uint64(len(r.Neighbors)))
	prev := int64(-1)
	for _, nb := range r.Neighbors {
		n += uvarintLen(uint64(int64(nb) - prev - 1))
		prev = int64(nb)
	}
	return n
}

func uvarintLen(x uint64) int64 {
	n := int64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// cutBuilder accumulates a cutTable from the records of one full sequential
// scan, recomputing each record's on-disk size from its decoded form. It is
// shared by the dedicated planning side scan (buildCutTable) and the
// opportunistic capture that rides an already-running full scan
// (ForEachBatchCtx).
type cutBuilder struct {
	compressed bool
	off        int64  // computed absolute offset past the last observed record
	read       uint64 // records observed
	ct         cutTable
}

func (g *File) newCutBuilder() *cutBuilder {
	return &cutBuilder{
		compressed: g.header.Flags&FlagCompressed != 0,
		off:        HeaderSize,
		ct:         cutTable{recs: []uint64{0}, offs: []int64{HeaderSize}},
	}
}

// observe folds one batch of decoded records, in scan order, into the plan.
func (b *cutBuilder) observe(batch []Record) {
	for i := range batch {
		b.off += encodedSize(b.compressed, batch[i])
		b.read++
		if b.off-b.ct.offs[len(b.ct.offs)-1] >= cutGranularity {
			b.ct.recs = append(b.ct.recs, b.read)
			b.ct.offs = append(b.ct.offs, b.off)
		}
	}
}

// table seals the accumulated plan, closing the final partition boundary.
func (b *cutBuilder) table() *cutTable {
	if last := len(b.ct.offs) - 1; b.ct.offs[last] != b.off {
		b.ct.recs = append(b.ct.recs, b.read)
		b.ct.offs = append(b.ct.offs, b.off)
	}
	return &b.ct
}

// buildCutTable runs the planning scan through a separate read-only handle
// so it neither disturbs an active scan nor counts toward the file's Stats:
// partitioning is metadata construction (like the degree-sort preprocessing),
// not one of the algorithm's accounted sequential passes.
func (g *File) buildCutTable() (*cutTable, error) {
	pf, err := Open(g.path, g.blockSize, nil)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	sc, err := pf.scanCtx(context.TODO())
	if err != nil {
		return nil, err
	}
	cb := g.newCutBuilder()
	for {
		batch := sc.NextBatch()
		if batch == nil {
			break
		}
		cb.observe(batch)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Cross-check the size arithmetic against the scanner's own position:
	// a drift here would mean ScanPartition seeks into the middle of a
	// record, so refuse to partition rather than decode garbage.
	if want := sc.offset(); cb.off != want {
		return nil, fmt.Errorf("%w: %s: partition plan drifted: computed offset %d, scanner at %d", ErrBadFormat, g.path, cb.off, want)
	}
	return cb.table(), nil
}

// Partitions splits the file into up to parts record-aligned partitions of
// roughly equal byte size, planning cut points with one sequential side scan
// on first use (cached afterwards; the planning scan is not counted in the
// file's Stats). Fewer partitions are returned when the file is too small to
// split at batch granularity; an empty file yields none. A malformed file
// fails here with the same error a sequential scan would report, which is
// how the executor detects that it must fall back to — and exactly
// reproduce — the sequential path. The plan cache is shared by every view of
// the file and guarded by its mutex; a first-use planning scan is
// single-flight (concurrent callers wait for it).
func (g *File) Partitions(parts int) ([]Partition, error) {
	g.plan.mu.Lock()
	defer g.plan.mu.Unlock()
	if g.plan.cutsErr != nil {
		return nil, g.plan.cutsErr
	}
	if g.plan.cuts == nil {
		ct, err := g.buildCutTable()
		if err != nil {
			// Cache only format errors: the file itself is malformed and
			// will stay so. Transient failures (descriptor exhaustion, a
			// momentary read error on the side handle) must not pin the
			// file to sequential scans for its whole lifetime.
			if errors.Is(err, ErrBadFormat) {
				g.plan.cutsErr = err
			}
			return nil, err
		}
		g.plan.cuts = ct
	}
	ct := g.plan.cuts
	last := len(ct.offs) - 1
	if last < 1 {
		return nil, nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > last {
		parts = last
	}

	// Pick the cut nearest each ideal byte boundary, keeping cuts strictly
	// increasing so every partition is non-empty.
	payload := ct.offs[last] - ct.offs[0]
	bounds := make([]int, 1, parts+1)
	for i := 1; i < parts; i++ {
		target := ct.offs[0] + payload*int64(i)/int64(parts)
		j := sort.Search(len(ct.offs), func(k int) bool { return ct.offs[k] >= target })
		if j > 0 && (j == len(ct.offs) || target-ct.offs[j-1] <= ct.offs[j]-target) {
			j--
		}
		if j <= bounds[len(bounds)-1] {
			j = bounds[len(bounds)-1] + 1
		}
		if j >= last {
			break
		}
		bounds = append(bounds, j)
	}
	bounds = append(bounds, last)

	ps := make([]Partition, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		ps = append(ps, Partition{
			StartRecord: ct.recs[a],
			Records:     ct.recs[b] - ct.recs[a],
			StartOffset: ct.offs[a],
			EndOffset:   ct.offs[b],
		})
	}
	return ps, nil
}
