package gio

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// File is an open adjacency file supporting repeated sequential scans.
// It is the only way the semi-external algorithms touch the graph: every
// full scan (ForEachBatchCtx) reads the file front to back through the
// block-pipelined engine — a background goroutine prefetches the next block
// while the current one decodes — with no seeks other than the implicit
// rewind between scans.
//
// One File value supports one scan at a time (a new scan supersedes an
// unfinished one). Concurrent runs each take their own view of the file via
// WithCounters: views share the descriptor (all reads are positional) and
// the partition-plan cache, but have independent active-scan slots and
// account into independent Counters, so any number of views may scan
// concurrently.
type File struct {
	f         *os.File
	path      string
	header    Header
	blockSize int
	stats     *Counters
	scan      *scanSlot // this view's active scan (see scanSlot)

	// records is the number of adjacency records actually present: the
	// footer's count when the file has one (shard files hold fewer records
	// than header.Vertices), header.Vertices otherwise. It is the scan limit
	// of every engine. payloadEnd is the offset one past the last record
	// (footer start, or file size when footerless); hasFooter records which
	// interpretation applied. All three are fixed at Open.
	records    uint64
	payloadEnd int64
	hasFooter  bool

	// degLimit is the exclusive bound on a record's degree: below the
	// vertex count, and low enough that the neighbor list fits in the
	// payload (4 bytes per raw neighbor, at least 1 per varint gap), so no
	// decoder allocates for more neighbors than the file can hold. Fixed at
	// Open.
	degLimit uint64

	// mm is the shared memory mapping of an OpenMmap file (nil otherwise),
	// shared by every view like the plan cache.
	mm *mapState

	// plan is the partition-planning cache (see Partitions), shared by every
	// view of the file and guarded by its own mutex.
	plan *planState

	// dig is the content-digest cache (see ContentDigest), shared by every
	// view of the file like the plan cache.
	dig *digestState

	// view marks a WithCounters view: Close then only stops the view's
	// active scan, never the shared descriptor.
	view bool
}

// scanSlot is one view's active-scan slot: the engine of the scan started
// last — its block pipeline, or the mapped scanner (see OpenMmap) — which a
// new scan supersedes and Close stops. Close may run on another goroutine
// than the scan it stops, so the slot is guarded by its own mutex; every
// view allocates its own slot (WithCounters copies the File by value).
type scanSlot struct {
	mu sync.Mutex
	pf *prefetcher
	m  *Scanner
}

// planState caches the partition-planning cut table (see Partitions).
// Captured opportunistically during the first full sequential scan
// (ForEachBatchCtx), or built lazily by the first Partitions
// call with one side scan through a separate file handle; reused for every
// worker count afterwards. The mutex makes the cache safe for concurrent
// views of one file.
type planState struct {
	mu      sync.Mutex
	cuts    *cutTable
	cutsErr error
	// captureFailed records a capture whose computed offsets did not match
	// the file's payload (e.g. trailing bytes after the last record). The
	// capture is not retried; Partitions' side scan, which cross-checks
	// against the scanner's own position, remains the planner of record.
	captureFailed bool
}

// Open opens an adjacency file for scanning. stats may be nil; blockSize
// ≤ 0 selects DefaultBlockSize.
func Open(path string, blockSize int, stats *Counters) (*File, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gio: open %s: %w", path, err)
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: reading header: %v", ErrBadFormat, path, err)
	}
	h, err := decodeHeader(hdr[:])
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g := &File{f: f, path: path, header: h, blockSize: blockSize, stats: stats, scan: &scanSlot{}, plan: &planState{}, dig: &digestState{}}
	g.records = h.Vertices
	if fi, err := f.Stat(); err == nil {
		g.payloadEnd = fi.Size()
		if recs, ct, end, ok := parseFooter(f, fi.Size(), h); ok {
			g.records, g.payloadEnd, g.hasFooter = recs, end, true
			// The persisted cut table is the partition plan: Partitions
			// answers without a planning scan for the file's whole lifetime.
			g.plan.cuts = ct
		}
	}
	g.degLimit = h.Vertices
	if payload := max(g.payloadEnd-HeaderSize, 0); h.Flags&FlagCompressed != 0 {
		g.degLimit = min(g.degLimit, uint64(payload)+1)
	} else {
		g.degLimit = min(g.degLimit, uint64(payload)/4+1)
	}
	return g, nil
}

// WithCounters returns a view of the file that accounts its I/O into c
// instead of the file's own counters. The view shares the descriptor (reads
// are positional) and the partition-plan cache; its active-scan slot is its
// own, so scans on distinct views run concurrently. Closing a view releases
// only the view's in-flight scan, never the shared descriptor — the original
// File's Close does that.
func (g *File) WithCounters(c *Counters) *File {
	v := *g
	v.stats = c
	v.scan = &scanSlot{}
	v.view = true
	return &v
}

// Header returns the file header.
func (g *File) Header() Header { return g.header }

// Path returns the file's path.
func (g *File) Path() string { return g.path }

// NumVertices returns the vertex count from the header.
func (g *File) NumVertices() int { return int(g.header.Vertices) }

// NumEdges returns the undirected edge count from the header.
func (g *File) NumEdges() uint64 { return g.header.Edges }

// Stats returns the shared I/O counters, which may be nil.
func (g *File) Stats() *Counters { return g.stats }

// BlockSize returns the buffered-I/O block size used for scans.
func (g *File) BlockSize() int { return g.blockSize }

// SizeBytes returns the on-disk size of the file.
func (g *File) SizeBytes() (int64, error) {
	fi, err := g.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Close closes the underlying file, stopping any in-flight prefetch. On a
// WithCounters view it only stops the view's in-flight scan; the descriptor
// stays open until the original File is closed. On an OpenMmap file, Close
// poisons the mapping — every in-flight mapped scan (its own views'
// included) fails at its next batch — and returns without blocking; the
// munmap itself is deferred until the last of those scans (and any PinMap
// holder) releases its reference, so batches that alias the mapping are
// never yanked out from under a reader mid-callback.
func (g *File) Close() error {
	g.stopActive()
	if g.view {
		return nil
	}
	if err := g.mm.close(); err != nil {
		g.f.Close()
		return err
	}
	return g.f.Close()
}

// stopActive shuts down the previous scan's engine, if one is still running
// (a scan that was abandoned before reaching end of file): the prefetcher
// of a pipelined scan, or — for a mapped one — a stop request only. The
// mapping reference itself is never dropped here: stopActive may run on a
// goroutine other than the one driving the old scan (File.Close racing a
// scan), and yanking the reference out from under a decode in flight would
// let the munmap happen under a live reader. The old scanner releases when
// it is next driven (it fails with errScanStopped), when Closed, or via its
// GC cleanup.
func (g *File) stopActive() {
	g.scan.mu.Lock()
	pf, m := g.scan.pf, g.scan.m
	g.scan.pf, g.scan.m = nil, nil
	g.scan.mu.Unlock()
	if pf != nil {
		pf.shutdown()
	}
	if m != nil {
		m.mstopreq.Store(true)
	}
}

// setActive installs a new scan's engine in the view's slot.
func (g *File) setActive(pf *prefetcher, m *Scanner) {
	g.scan.mu.Lock()
	g.scan.pf, g.scan.m = pf, m
	g.scan.mu.Unlock()
}

// Record is one vertex's adjacency record as stored on disk.
//
// Neighbors is only valid until the scanner advances past the batch that
// produced it: the next NextBatch/Next call, the return of the
// ForEachBatchCtx callback, or the end of the scan, whichever comes first. A raw record's
// slice is a view of the pipelined engine's decode window on little-endian
// hosts, which the next batch compacts and refills, and a compressed
// record's slice a view of the arena, which the next batch overwrites:
// silent corruption for code that retained a slice (see SetAliasCheck for a
// debug mode that poisons both so such bugs fail loudly). On the mmap
// zero-copy path the slice aliases the file mapping, which File.Close
// unmaps. Callers that need a record past its batch must copy the Neighbors
// slice.
type Record struct {
	ID        uint32
	Neighbors []uint32
}

// AliasPoison is the sentinel SetAliasCheck fills outgoing neighbor storage
// with: a Neighbors slice retained across batches reads as AliasPoison
// values instead of plausible stale IDs.
const AliasPoison uint32 = 0xA11A5BAD

// aliasCheck enables poisoning between batches (see SetAliasCheck). It is
// read on the scan path without synchronization: toggle it before starting
// scans, not during them.
var aliasCheck = os.Getenv("GIO_ALIAS_CHECK") == "1"

// SetAliasCheck toggles the batch-aliasing debug check. When on, every
// batch boundary fills the storage the outgoing batch's Neighbors slices
// view — the neighbor arena, and the consumed bytes of the pipelined
// engine's decode window — with AliasPoison and quarantines it (the next
// batch decodes into a fresh arena and continues in a fresh window), so code
// that illegally retains a Record.Neighbors slice across batches observes
// an unmistakable sentinel forever after, instead of silently reading
// whatever the next batch put into the same storage. The check costs a
// write of the batch's storage plus fresh batch allocations per batch; it is
// meant for tests and debugging, and can also be enabled with
// GIO_ALIAS_CHECK=1. Toggle before scanning, not mid-scan. On the mmap
// zero-copy path retained slices alias the read-only file mapping instead,
// where File.Close already turns late reads into faults rather than silent
// corruption.
func SetAliasCheck(on bool) { aliasCheck = on }

// Batch sizing for the block-pipelined decoder: a batch closes on whichever
// comes first, a record-count cap (so per-record bookkeeping amortizes) or a
// decoded-neighbor volume target (so the shared arena stays cache-sized).
const (
	batchMaxRecords = 1024
	batchTargetInts = 64 * 1024
)

// Scanner iterates the records of one sequential scan. Records are decoded
// in batches from in-memory blocks, and NextBatch exposes whole batches with
// amortized allocation.
type Scanner struct {
	file *File
	pf   *prefetcher

	win   []byte // decode window: unconsumed bytes of fetched blocks
	pos   int    // decode position within win
	ioErr error  // terminal read error from the pipeline (io.EOF at EOF)

	recs  []Record // current batch; Neighbors are views into win or arena
	arena []uint32 // neighbor storage shared by the whole batch

	// views marks a raw scan whose batches keep their Neighbors as views of
	// the window (see fillRaw): little-endian hosts, unless the
	// SetMmapZeroCopy(false) ablation turned it off. Otherwise each batch is
	// copied into the arena.
	views bool

	// A record header decoded right before the batch ran out of window bytes
	// (raw) or arena space (compressed) is parked here so the next batch
	// resumes without re-reading bytes.
	pending               bool
	pendingID, pendingDeg uint64

	read    uint64 // global index of the next record to decode
	limit   uint64 // decode records while read < limit
	fetched uint64 // payload bytes appended to the window so far
	baseOff int64  // absolute file offset the window started at

	// detached marks a partition scanner (File.ScanPartition): it shares the
	// file's descriptor through positional reads but is not the file's active
	// scan and never touches the file's Stats, so several detached scanners
	// can run concurrently on worker goroutines.
	detached bool

	// ctx, when non-nil, cancels the scan between batches: the next
	// fillBatch fails with the ctx error wrapped in a ScanError carrying the
	// scan position, and the prefetcher observes ctx.Done directly so a
	// read-ahead in flight stops too. Mapped scans never block on I/O, so
	// they check only at batch boundaries (between windows).
	ctx context.Context

	// Mapped mode (see OpenMmap): the decode window is a view of mdata —
	// the mapping from baseOff to end of file — extended block-equivalent
	// by block-equivalent by moreMapped instead of being refilled through
	// the prefetcher. mref is this scan's reference on the mapping, released
	// only on the scanner's own drive path (finish, fail, Close) or by GC
	// cleanup; nil when the mapping could not be acquired (scanner born
	// stopped). mstopreq is the cross-goroutine stop request (supersession by
	// a new Scan): it makes the scan fail at its next boundary, where the
	// scan itself releases mref.
	mapped   bool
	mdata    []byte
	mref     *mapRef
	mstopreq atomic.Bool

	err  error
	done bool
}

// scanCtx rewinds the file and returns a Scanner over all records, counting
// one sequential scan in the file's Stats when the scan completes. Starting
// a new scan stops the prefetch pipeline of any previous unfinished one.
// When ctx is canceled or its deadline passes, the scan stops within one
// batch, Err reports the ctx error wrapped in a ScanError with the scan
// position, and the prefetch pipeline shuts down. A nil ctx never cancels.
func (g *File) scanCtx(ctx context.Context) (*Scanner, error) {
	g.stopActive()
	if g.mm != nil {
		s := g.newMappedScanner(HeaderSize, 0, g.records, false)
		s.ctx = ctx
		g.setActive(nil, s)
		return s, nil
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	pf := newPrefetcher(g.f, HeaderSize, g.blockSize, done)
	g.setActive(pf, nil)
	return &Scanner{
		file:    g,
		pf:      pf,
		ctx:     ctx,
		limit:   g.records,
		baseOff: HeaderSize,
		views:   g.windowViews(),
	}, nil
}

// windowViews reports whether a pipelined scan of g hands out raw batches
// as views of its window: the window holds the file's little-endian words,
// so the views are exact on little-endian hosts only.
func (g *File) windowViews() bool {
	return canAliasUint32 && g.header.Flags&FlagCompressed == 0
}

// ScanPartition returns a detached scanner over one partition of the file
// (see Partitions): records StartRecord..StartRecord+Records-1, decoded from
// byte offset StartOffset. Detached scanners read through positional I/O
// only, never touch the file's Stats or active-scan slot, and so may run
// concurrently with each other on separate goroutines — they are the
// per-worker engines of the parallel partitioned executor (internal/exec).
// The caller must Close the scanner if it abandons it before the end of the
// partition.
//
// A raw partition of a mapped file that does not start on a 4-byte
// boundary (only a corrupt plan yields one) cannot be viewed in place, so
// it is scanned through the pipelined engine, whose window starts aligned.
func (g *File) ScanPartition(p Partition) *Scanner {
	if g.mm != nil && (g.header.Flags&FlagCompressed != 0 || p.StartOffset%4 == 0) {
		return g.newMappedScanner(p.StartOffset, p.StartRecord, p.StartRecord+p.Records, true)
	}
	return &Scanner{
		file:     g,
		pf:       newPrefetcher(g.f, p.StartOffset, g.blockSize, nil),
		read:     p.StartRecord,
		limit:    p.StartRecord + p.Records,
		baseOff:  p.StartOffset,
		detached: true,
		views:    g.windowViews(),
	}
}

// SwapBuffers hands the scanner fresh batch storage and returns the current
// record slice and neighbor arena, transferring their ownership to the
// caller. It is meant to be called directly after NextBatch by consumers
// that ship whole batches to another goroutine (the parallel executor):
// the returned buffers stay valid indefinitely instead of being overwritten
// by the following NextBatch. The replacement slices may be nil or of any
// capacity; the scanner grows them as needed. A batch of views into the
// pipelined engine's window, which the next batch refills, is first copied
// into the arena; views into a mapping stay as they are, valid for as long
// as the caller pins the mapping (File.PinMap).
func (s *Scanner) SwapBuffers(recs []Record, arena []uint32) ([]Record, []uint32) {
	if s.views && !s.mapped {
		s.own()
	}
	oldRecs, oldArena := s.recs, s.arena
	s.recs, s.arena = recs[:0], arena[:0]
	return oldRecs, oldArena
}

// offset returns the absolute file offset of the next undecoded byte. Only
// meaningful between batches when no record header is parked (!s.pending).
func (s *Scanner) offset() int64 {
	return s.baseOff + int64(s.fetched) - int64(len(s.win)-s.pos)
}

// NextBatch returns the next batch of records in scan order, or nil at end
// of scan or on error (check Err afterwards). The returned slice and the
// Neighbors slices of its records are reused by the following NextBatch
// call.
func (s *Scanner) NextBatch() []Record {
	s.fillBatch()
	if len(s.recs) == 0 {
		return nil
	}
	return s.recs
}

// Err returns the first error encountered by the scan, if any.
func (s *Scanner) Err() error { return s.err }

// fillBatch decodes the next batch of records into s.recs. On return either
// the batch is non-empty, or the scan completed (s.done) or failed (s.err).
// Decoding never consumes bytes past the final record, so trailing garbage
// in a file is never read into the window's accounting.
func (s *Scanner) fillBatch() {
	s.recs = s.recs[:0]
	if s.err != nil || s.done {
		if s.mapped {
			s.close() // a reference fail kept for a failed batch
		}
		return
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.fail(&ScanError{Records: s.read, Total: s.limit, Err: err})
			return
		}
	}
	if s.mapped && s.mapStopped() {
		// The mapping was poisoned (File.Close) or this scan superseded:
		// refuse to decode from window bytes that may be about to unmap.
		s.fail(fmt.Errorf("%w: %s: record %d header: %v", ErrBadFormat, s.file.path, s.read, errScanStopped))
		return
	}
	if s.read == s.limit {
		s.finish()
		return
	}
	if aliasCheck {
		s.quarantine()
	}
	s.arena = s.arena[:0]
	if cap(s.recs) < batchMaxRecords {
		// First fill, or batch storage handed in by SwapBuffers: give the
		// batch its full capacity now rather than growing it record by
		// record.
		s.recs = make([]Record, 0, batchMaxRecords)
	}
	if s.file.header.Flags&FlagCompressed != 0 {
		s.fillCompressed()
	} else {
		s.fillRaw()
	}
	if s.file.stats != nil && !s.detached {
		s.file.stats.AddRecordsRead(uint64(len(s.recs)))
	}
}

// quarantine is the alias check's batch boundary (see SetAliasCheck): it
// fills the storage the outgoing batch's Neighbors may view with
// AliasPoison and moves the scan to fresh storage. Poisoning alone is not
// enough — the next batch would overwrite the sentinel with its own
// plausible neighbor data — so the old arena and window are never reused,
// and a Neighbors slice illegally retained across batches keeps reading
// AliasPoison for the rest of the process. Every byte of the window before
// the decode position is consumed, so the whole prefix is poisoned and only
// the unconsumed tail moves. A mapped window is the read-only mapping and is
// left alone.
func (s *Scanner) quarantine() {
	p := s.arena[:cap(s.arena)]
	for i := range p {
		p[i] = AliasPoison
	}
	s.arena = make([]uint32, 0, cap(s.arena))
	s.recs = make([]Record, 0, cap(s.recs))
	if s.views && !s.mapped && s.pos > 0 {
		w := u32view(s.win, s.pos/4)
		for i := range w {
			w[i] = AliasPoison
		}
		s.win, s.pos = append(windowBuf(cap(s.win)), s.win[s.pos:]...), 0
	}
}

// fillRaw batch-decodes fixed-width records: the raw decode loop of both
// engines (decodeRaw), the refills between its runs, and the batch's
// neighbor range check.
//
// The batch's Neighbors are views of the window. A mapped window never
// moves, so a mapped batch refills as often as it needs; the pipelined
// engine's window moves when it is compacted or grown, so its batch refills
// only while it holds no records and otherwise ends where the window's
// bytes run out, with a decoded header parked as pending. Either way the
// batch is one run of 4-aligned words of the current window — record
// headers, whose IDs and degrees are already in range, and neighbor lists —
// and one max over the run clears every neighbor. Only a failing batch is
// searched record by record, and cut before its first offending record,
// which is where a record-at-a-time decoder would have stopped. The check
// runs before any failure releases a mapped scan's mapping reference.
//
// Without views (big-endian hosts, the SetMmapZeroCopy(false) ablation)
// the batch is copied into the arena, and the copy's max is the check.
func (s *Scanner) fillRaw() {
	start, vol := s.pos, 0
	var err error
	for {
		var need int
		need, vol, err = s.decodeRaw(vol)
		if need == 0 || err != nil || (len(s.recs) > 0 && !s.mapped) {
			break
		}
		err = s.ensure(need)
		if len(s.recs) == 0 {
			start = s.pos // the refill may have moved the window
		}
		if err != nil {
			if s.pending {
				err = fmt.Errorf("%w: %s: vertex %d neighbors: %v", ErrBadFormat, s.file.path, s.pendingID, err)
			} else {
				err = fmt.Errorf("%w: %s: record %d header: %v", ErrBadFormat, s.file.path, s.read, err)
			}
			break
		}
	}
	var hi uint32
	if s.views {
		hi = maxUint32(u32view(s.win[start:], (s.pos-start)/4))
	} else {
		hi = s.own()
	}
	if vertices := s.file.header.Vertices; uint64(hi) >= vertices {
		for i, r := range s.recs {
			if rerr := errNeighborRange(s.file.path, uint64(r.ID), r.Neighbors, vertices); rerr != nil {
				s.read -= uint64(len(s.recs) - i)
				s.recs = s.recs[:i]
				err = rerr // precedes whatever stopped the decode loop
				break
			}
		}
	}
	if err != nil {
		s.fail(err)
	}
}

// decodeRaw is the raw decode loop. Starting with vol neighbors already in
// the batch, it appends records whose Neighbors view the window's bytes
// until the batch is full or the scan's records are done, and returns the
// batch's neighbor count. It stops early at the first record the window
// does not hold yet, returning how many more bytes from the decode position
// that record needs (its header, or — with the header parked as pending —
// its neighbors), and at a malformed header, returning the error.
func (s *Scanner) decodeRaw(vol int) (int, int, error) {
	var need int
	var err error
	win, pos, read, limit, recs := s.win, s.pos, s.read, s.limit, s.recs
	vertices, degLimit := s.file.header.Vertices, s.file.degLimit
	pending, id, deg := s.pending, s.pendingID, s.pendingDeg
	for read < limit && len(recs) < batchMaxRecords && vol < batchTargetInts {
		if !pending {
			if len(win)-pos < 8 {
				need = 8
				break
			}
			id = uint64(binary.LittleEndian.Uint32(win[pos:]))
			deg = uint64(binary.LittleEndian.Uint32(win[pos+4:]))
			pos += 8
			if id >= vertices {
				err = fmt.Errorf("%w: %s: record %d has out-of-range id %d", ErrBadFormat, s.file.path, read, id)
				break
			}
			if deg >= degLimit {
				err = fmt.Errorf("%w: %s: vertex %d has impossible degree %d", ErrBadFormat, s.file.path, id, deg)
				break
			}
		}
		n := int(deg)
		if len(win)-pos < 4*n {
			pending, need = true, 4*n
			break
		}
		pending = false
		recs = append(recs, Record{ID: uint32(id), Neighbors: u32view(win[pos:], n)})
		pos += 4 * n
		vol += n
		read++
	}
	s.pos, s.read, s.recs = pos, read, recs
	s.pending, s.pendingID, s.pendingDeg = pending, id, deg
	return need, vol, err
}

// own copies the batch's Neighbors views into the arena, so the batch no
// longer views the window, and returns the largest value copied (0 for no
// neighbors). It decodes the views' bytes, which hold the file's
// little-endian words on any host.
func (s *Scanner) own() uint32 {
	total := 0
	for _, r := range s.recs {
		total += len(r.Neighbors)
	}
	if cap(s.arena) < total {
		s.arena = make([]uint32, 0, max(total, batchTargetInts))
	}
	arena := s.arena[:total]
	var hi uint32
	k := 0
	for i, r := range s.recs {
		n := len(r.Neighbors)
		hi = max(hi, DecodeUint32s(arena[k:k+n], wordBytes(r.Neighbors)))
		s.recs[i].Neighbors = arena[k : k+n : k+n]
		k += n
	}
	s.arena = arena
	return hi
}

// reserve ensures the arena can hold need more values without reallocating,
// which would invalidate the views already handed to this batch's records.
// With records already in the batch it refuses instead, so the caller closes
// the batch and resumes into an empty (possibly grown) arena.
//
// A scanner is born without an arena and allocates it on first use, here
// or in own, so a raw scan of window views, which copies no neighbor,
// allocates none.
func (s *Scanner) reserve(need int) bool {
	if len(s.arena)+need <= cap(s.arena) {
		return true
	}
	if len(s.recs) > 0 {
		return false
	}
	if aliasCheck {
		// The old arena is about to be abandoned to the GC; poison it so
		// slices retained from earlier batches cannot keep reading stale
		// (still-plausible) neighbor IDs out of it.
		p := s.arena[:cap(s.arena)]
		for i := range p {
			p[i] = AliasPoison
		}
	}
	newCap := 2 * cap(s.arena)
	if newCap < need {
		newCap = need
	}
	if newCap < batchTargetInts {
		newCap = batchTargetInts
	}
	s.arena = make([]uint32, 0, newCap)
	return true
}

// ensure fills the window until n bytes are available from the current
// position. When the stream runs out first, it reports the same error the
// bytewise reference decoder's chunked io.ReadFull would have: io.EOF when
// the truncation point falls on a 4096-byte chunk boundary of the request,
// io.ErrUnexpectedEOF otherwise, and underlying read errors verbatim.
func (s *Scanner) ensure(n int) error {
	for len(s.win)-s.pos < n {
		if !s.more() {
			if s.ioErr != nil && s.ioErr != io.EOF {
				return s.ioErr
			}
			if avail := len(s.win) - s.pos; avail%4096 != 0 {
				return io.ErrUnexpectedEOF
			}
			return io.EOF
		}
	}
	return nil
}

// more appends the next prefetched block to the window, compacting consumed
// bytes first. It returns false when the stream is exhausted. Stats are
// counted here, on the consumer side, block by block as ownership transfers.
func (s *Scanner) more() bool {
	if s.mapped {
		return s.moreMapped()
	}
	if s.ioErr != nil {
		return false
	}
	blk := s.pf.next()
	if blk.err == errScanCanceled && s.ctx != nil {
		// The pipeline's done channel (the scan context) fired while the
		// decoder was waiting for bytes: surface the context's error with
		// the scan position, not a decode failure.
		s.ioErr = blk.err
		s.fail(&ScanError{Records: s.read, Total: s.limit, Err: s.ctx.Err()})
		return false
	}
	if st := s.file.stats; st != nil && !s.detached && len(blk.buf) > 0 {
		st.AddBytesRead(uint64(len(blk.buf)))
		st.AddBlocksRead(1)
	}
	s.fetched += uint64(len(blk.buf))
	if blk.err != nil {
		s.ioErr = blk.err
	}
	if len(blk.buf) == 0 {
		return false
	}
	if s.pos > 0 && s.pos >= len(s.win)-s.pos {
		// Drop the consumed prefix once it outweighs the unconsumed bytes:
		// the copy never exceeds what it frees, and a record straddling
		// many blocks is not recopied per block.
		n := copy(s.win, s.win[s.pos:])
		s.win, s.pos = s.win[:n], 0
	}
	if n := len(s.win) + len(blk.buf); n > cap(s.win) {
		// A quarter to spare, as append would grow it, so a window compacted
		// to a partial record mostly takes the next block in place.
		s.win = append(windowBuf(n+n/4), s.win...)
	}
	s.win = append(s.win, blk.buf...)
	s.pf.recycle(blk.buf)
	return true
}

// finish marks a completed scan, counting it exactly once. A plain engine
// scan is one logical pass riding one physical pass; the pass scheduler
// (internal/pipeline) adds the extra logical scans of a fused pass group on
// top.
func (s *Scanner) finish() {
	if s.done {
		return
	}
	s.done = true
	if s.file.stats != nil && !s.detached {
		s.file.stats.AddScans(1)
		s.file.stats.AddPhysicalScans(1)
	}
	s.close()
}

// fail records the scan's first error and stops the pipeline. A mapped
// scan failing mid-batch keeps its mapping reference for now: the records
// decoded before the failure are still handed out, and zero-copy ones
// alias the mapping, so the reference goes when the consumer is done with
// them — at the next fillBatch, or Close.
func (s *Scanner) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	if s.mapped && len(s.recs) > 0 {
		return
	}
	s.close()
}

// Close releases the scan's prefetch pipeline (a goroutine and two block
// buffers). Completed or failed scans release it automatically, as do
// File.Close and a new Scan on the same file; call Close when abandoning a
// scan mid-file while keeping the File open. Idempotent.
func (s *Scanner) Close() { s.close() }

// close stops this scan's engine: the prefetcher of a pipelined scan, or
// the mapping reference of a mapped one. Detached scanners never touch the
// file's active-scan slot: they may close concurrently on worker goroutines.
// A mapped scanner likewise leaves the slot alone (stopMapped is idempotent,
// so the file stopping it again later is harmless), keeping close free of
// cross-goroutine writes to the File.
func (s *Scanner) close() {
	if s.mapped {
		s.stopMapped()
		return
	}
	s.pf.shutdown()
	if slot := s.file.scan; !s.detached {
		slot.mu.Lock()
		if slot.pf == s.pf {
			slot.pf = nil
		}
		slot.mu.Unlock()
	}
}

// DecodeUint32s decodes len(dst) little-endian uint32 values from src and
// returns the largest of them (0 for an empty dst), so that a caller
// decoding neighbor IDs range-checks the whole list with one comparison.
// It is the single fixed-width copy loop, shared by the random-access
// reader, the bytewise decoder and the external-sort run reader. The raw
// scan path hands out views of its window instead and uses it only to copy
// a batch out (see Scanner.own): on little-endian hosts for SwapBuffers and
// the SetMmapZeroCopy(false) ablation, on big-endian hosts for every batch.
func DecodeUint32s(dst []uint32, src []byte) uint32 {
	src = src[:4*len(dst)]
	// Two values per step, each into its own running maximum, re-slicing
	// as it goes so the compiler drops the per-value bounds checks.
	var a, b uint32
	for len(dst) >= 2 && len(src) >= 8 {
		x, y := binary.LittleEndian.Uint32(src), binary.LittleEndian.Uint32(src[4:8])
		dst[0], dst[1] = x, y
		a, b = max(a, x), max(b, y)
		dst, src = dst[2:], src[8:]
	}
	if len(dst) > 0 && len(src) >= 4 {
		dst[0] = binary.LittleEndian.Uint32(src)
		a = max(a, dst[0])
	}
	return max(a, b)
}

// errNeighborRange reports the first of vertex id's neighbors that is not a
// vertex of an n-vertex graph, with the message the varint decoder uses, so
// every raw decoder names the same offending value. Nil when all are in
// range.
func errNeighborRange(path string, id uint64, neighbors []uint32, n uint64) error {
	for _, v := range neighbors {
		if uint64(v) >= n {
			return fmt.Errorf("%w: %s: vertex %d has out-of-range neighbor %d", ErrBadFormat, path, id, v)
		}
	}
	return nil
}

// AppendRawRecord appends the raw (uncompressed) on-disk encoding of one
// adjacency record to dst and returns the extended slice, growing dst at
// most once. It is the single encoder for the raw record layout, shared by
// Writer and the external-sort run writer.
func AppendRawRecord(dst []byte, id uint32, neighbors []uint32) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8+4*len(neighbors))[:n+8+4*len(neighbors)]
	b := dst[n:]
	binary.LittleEndian.PutUint32(b, id)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(neighbors)))
	b = b[8:]
	if canAliasUint32 {
		copy(b, wordBytes(neighbors)) // the host's words are the file's
		return dst
	}
	for i, v := range neighbors {
		binary.LittleEndian.PutUint32(b[4*i:], v)
	}
	return dst
}

// ForEachBatchCtx runs one full sequential scan, invoking fn for every
// decoded batch of records in scan order — one callback per batch, with the
// batch's neighbor lists viewed in place in the window (raw) or decoded back
// to back in one arena (compressed). It is File's only full-scan method. A
// canceled or expired ctx stops the scan within one batch, shuts the
// prefetch pipeline down, and returns the ctx error wrapped in a ScanError
// carrying the scan position; a nil ctx never cancels. While no partition
// plan is cached, the scan also captures one from the records flowing by
// (see PlanCaptureViable); fn observes nothing of the capture.
func (g *File) ForEachBatchCtx(ctx context.Context, fn func([]Record) error) error {
	sc, err := g.scanCtx(ctx)
	if err != nil {
		return err
	}
	defer sc.close()
	var cb *cutBuilder
	if g.PlanCaptureViable() {
		cb = g.newCutBuilder()
	}
	for {
		batch := sc.NextBatch()
		if batch == nil {
			break
		}
		if cb != nil {
			cb.observe(batch)
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if cb != nil {
		g.installCapturedPlan(cb)
	}
	return nil
}
