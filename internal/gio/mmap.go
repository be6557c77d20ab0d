package gio

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Memory-mapped scan path. OpenMmap maps the whole adjacency file into the
// process's address space and lets the scanner decode straight out of the
// OS page cache: the decode window is a view of the mapping, so the prefetch
// copy of the block pipeline disappears, and on little-endian hosts the raw
// fixed-width format can go one step further and hand out Record.Neighbors
// slices that alias the mapping itself (no arena copy either). Compressed
// (varint/gap) records always decode into the arena — the gaps have to be
// materialized as absolute IDs somewhere, so there is no mapping-backed
// representation to alias.
//
// Lifetime is the hard part. Batches handed out by a mapped scan alias the
// mapping, so munmap under a live reader would be a use-after-free enforced
// by the MMU. The contract is the one the arena already implies — a batch
// (and every Neighbors slice in it) is valid only until the next
// NextBatch/Next call, the end of the ForEachBatchCtx callback, or the end of
// the scan — and the mapping's refcount enforces it: File.Close poisons the
// mapping (every in-flight scan fails at its next refill or batch boundary
// with a scan-stopped error) and the actual munmap is deferred to the moment
// the last reference drains. Close itself never blocks, and crucially, no
// code path ever drops a scan's reference from a foreign goroutine — a
// reference is released only on the scanner's own drive path (completion,
// failure, Close on the scanner) or, for scanners abandoned without any of
// those, by a GC cleanup — so a reference can never vanish while its
// goroutine is mid-decode or mid-callback. Superseding an in-flight mapped
// scan (a new Scan on the same handle) only requests a stop: the old scanner
// releases when next driven, when Closed, or when collected.

// mapState is the shared mapping of one OpenMmap file: all WithCounters
// views of the file point at the same mapState, exactly like the partition
// plan cache. refs counts in-flight users (scans and PinMap holders);
// poisoned flips on close so readers fail fast at their next boundary, and
// whoever drops the last reference after close performs the munmap.
type mapState struct {
	mu       sync.Mutex
	data     []byte // whole file, header included; nil once unmapped
	refs     int
	closed   bool
	poisoned atomic.Bool
	zerocopy atomic.Bool // raw batches may alias the mapping
}

func newMapState(data []byte) *mapState {
	m := &mapState{data: data}
	m.zerocopy.Store(canAliasUint32)
	return m
}

// acquire takes a reference on the mapping; it fails once the mapping is
// poisoned or gone.
func (m *mapState) acquire() bool {
	if m == nil || m.poisoned.Load() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.poisoned.Load() {
		return false
	}
	m.refs++
	return true
}

// release drops a reference; the last one out after close unmaps.
func (m *mapState) release() {
	m.mu.Lock()
	m.refs--
	var data []byte
	if m.refs == 0 && m.closed {
		data, m.data = m.data, nil
	}
	m.mu.Unlock()
	if data != nil {
		unmapMem(data)
	}
}

// close poisons the mapping and unmaps it if no references are live;
// otherwise the munmap happens when the last reference is released. Always
// safe to call while scans are in flight: they fail at their next boundary
// and the pages stay mapped until every one of them has let go. Idempotent;
// nil-safe.
func (m *mapState) close() error {
	if m == nil {
		return nil
	}
	m.poisoned.Store(true)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	var data []byte
	if m.refs == 0 {
		data, m.data = m.data, nil
	}
	m.mu.Unlock()
	if data != nil {
		return unmapMem(data)
	}
	return nil
}

// unmapped reports whether the pages are gone (refcount drained after
// close). Test hook for the deferred-unmap contract.
func (m *mapState) unmapped() bool {
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed && m.data == nil
}

// mapRef is one scan's (or pin's) reference on the mapping, releasable
// exactly once. It is a separate allocation from the Scanner so a GC cleanup
// can hold it without keeping the Scanner alive: a mapped scanner abandoned
// undrained and un-Closed releases its reference when the collector notices
// nothing can ever drive it again.
type mapRef struct {
	mm       *mapState
	released atomic.Bool
}

func (r *mapRef) release() {
	if r != nil && r.released.CompareAndSwap(false, true) {
		r.mm.release()
	}
}

// ErrPageCacheCtl reports that page-cache eviction (DropPageCache) is not
// available on this platform/build; cold-cache benchmark runs degrade to
// warm ones and say so.
var ErrPageCacheCtl = errors.New("gio: page-cache control not supported on this platform")

// canAliasUint32 reports whether a []byte view of the file can be
// reinterpreted as []uint32 without conversion: the on-disk format is
// little-endian, so aliasing is exact on little-endian hosts only.
var canAliasUint32 = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u32view reinterprets the first 4*n bytes of b as a []uint32 without
// copying. b must be 4-byte aligned and hold at least 4*n bytes; the raw
// record layout guarantees the alignment (header is 32 bytes, every raw
// record is a multiple of 4, and mappings are page-aligned).
func u32view(b []byte, n int) []uint32 {
	if n == 0 {
		return emptyNeighbors
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// wordBytes is the inverse of u32view: the bytes under vs.
func wordBytes(vs []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
}

// windowBuf returns an empty decode window of capacity c bytes (rounded up
// to whole words) on 4-byte-aligned storage, which window views need.
func windowBuf(c int) []byte {
	return wordBytes(make([]uint32, (c+3)/4))[:0]
}

// maxUint32 returns the largest value in vs, 0 for an empty vs. Four
// running maxima keep the loop off a single compare-and-move chain: this
// loop is all the zero-copy engine does per neighbor.
func maxUint32(vs []uint32) uint32 {
	var a, b, c, d uint32
	for len(vs) >= 4 {
		a, b, c, d = max(a, vs[0]), max(b, vs[1]), max(c, vs[2]), max(d, vs[3])
		vs = vs[4:]
	}
	for _, v := range vs {
		a = max(a, v)
	}
	return max(a, b, c, d)
}

// emptyNeighbors is the zero-length Neighbors slice of raw degree-0
// records, which view no bytes of the window.
var emptyNeighbors = []uint32{}

// OpenMmap opens an adjacency file like Open, but backs every sequential
// and partition scan with a read-only memory mapping of the file instead of
// the prefetch block pipeline: the decoder consumes file-backed byte slices
// directly from the page cache. On platforms without mmap support (or under
// the nommap build tag), or when mapping fails, the returned File silently
// falls back to the block-pipelined engine — MmapActive reports which path
// is live. Records, errors, Stats accounting, cancellation and
// partition-plan capture are identical to Open's engine either way; mapped
// scans still count as physical scans.
//
// On little-endian hosts, raw (uncompressed) batches from a mapped file
// alias the mapping itself — Record.Neighbors points into the file's pages,
// and no per-record copy happens at all. See SetMmapZeroCopy to disable the
// aliasing (batches are then copied into the arena, still without the
// prefetch copy).
func OpenMmap(path string, blockSize int, stats *Counters) (*File, error) {
	g, err := Open(path, blockSize, stats)
	if err != nil {
		return nil, err
	}
	if !mmapSupported {
		return g, nil
	}
	size, err := g.SizeBytes()
	if err != nil || size < HeaderSize {
		return g, nil
	}
	data, err := mapMem(g.f, size)
	if err != nil {
		return g, nil
	}
	adviseSequential(data)
	g.mm = newMapState(data)
	return g, nil
}

// MmapActive reports whether scans of this file run off a live memory
// mapping (false after fallback or Close).
func (g *File) MmapActive() bool {
	if g.mm == nil {
		return false
	}
	return !g.mm.poisoned.Load()
}

// MmapZeroCopy reports whether raw batches alias the mapping.
func (g *File) MmapZeroCopy() bool {
	return g.mm != nil && g.mm.zerocopy.Load() && g.header.Flags&FlagCompressed == 0
}

// SetMmapZeroCopy toggles zero-copy aliasing of raw batches on a mapped
// file (the scanbench ablation's mmap vs mmap-zerocopy knob). Enabling it
// on a big-endian host or a non-mapped file is a no-op; the setting applies
// to scans started afterwards.
func (g *File) SetMmapZeroCopy(on bool) {
	if g.mm == nil {
		return
	}
	g.mm.zerocopy.Store(on && canAliasUint32)
}

// PinMap pins the file's mapping against munmap and returns the release.
// Multi-scanner operations whose batches outlive any single scanner — the
// parallel executor ships batches from worker scanners to a consumer
// goroutine — pin once for the whole run: a concurrent File.Close still
// returns immediately (and fails the run's scans at their next boundary),
// but the pages stay mapped until the pin is released, so batches already in
// flight to the consumer stay readable. ok is false when the file is not
// mapped (nothing to pin: SwapBuffers copies window views) or the mapping is
// already poisoned (the run's scans will fail fast anyway).
func (g *File) PinMap() (release func(), ok bool) {
	if g.mm == nil || !g.mm.acquire() {
		return nil, false
	}
	var once sync.Once
	return func() { once.Do(g.mm.release) }, true
}

// newMappedScanner builds a Scanner decoding from the mapping, from
// absolute byte offset startOff, records startRec..limit-1. When the
// mapping cannot be acquired (file closed mid-setup), the scanner is born
// stopped and its first batch fails with errScanStopped, mirroring a
// pipelined scan on a closed descriptor.
func (g *File) newMappedScanner(startOff int64, startRec, limit uint64, detached bool) *Scanner {
	s := &Scanner{
		file:     g,
		read:     startRec,
		limit:    limit,
		baseOff:  startOff,
		detached: detached,
		mapped:   true,
	}
	if g.mm.acquire() {
		s.mref = &mapRef{mm: g.mm}
		s.mdata = g.mm.data[startOff:]
		// The views are word-aligned because raw decoding only ever advances
		// the window position by multiples of 4 from a 4-aligned start
		// offset (see ScanPartition).
		s.views = g.mm.zerocopy.Load() && g.header.Flags&FlagCompressed == 0
		// Backstop for scanners abandoned without draining or Close: when
		// nothing can drive the scanner anymore, its reference must not keep
		// the pages mapped forever. The cleanup holds only the mapRef, so it
		// does not keep the Scanner itself alive, and release is CAS-guarded
		// against the normal paths.
		runtime.AddCleanup(s, func(r *mapRef) { r.release() }, s.mref)
	}
	return s
}

// stopMapped releases the scanner's mapping reference exactly once; later
// refills fail with errScanStopped. Only ever called on the scanner's own
// drive path (or its GC cleanup) — never on behalf of another goroutine.
func (s *Scanner) stopMapped() {
	s.mref.release()
}

// mapStopped reports whether the scan must not touch the mapping again:
// its reference is gone (never acquired, already released), a stop was
// requested (supersession by a new Scan), or the mapping is poisoned
// (File.Close).
func (s *Scanner) mapStopped() bool {
	return s.mref == nil || s.mref.released.Load() || s.mstopreq.Load() || s.file.mm.poisoned.Load()
}

// moreMapped is the mapped engine's refill: instead of appending a fetched
// block to the window, it extends the window over the next block-sized run
// of the mapping — no copy, no goroutine — while keeping byte/block/EOF
// accounting identical to the pipelined consumer's (full blocks of
// BlockSize, a clipped final block, io.EOF semantics byte for byte).
func (s *Scanner) moreMapped() bool {
	if s.ioErr != nil {
		return false
	}
	if s.mapStopped() {
		s.ioErr = errScanStopped
		return false
	}
	total := len(s.mdata)
	have := len(s.win)
	if have == total {
		s.ioErr = io.EOF
		return false
	}
	chunk := s.file.blockSize
	if chunk >= total-have {
		chunk = total - have
		if have+chunk == total && chunk < s.file.blockSize {
			// Partial final block: delivered together with EOF, exactly like
			// ReadAt's short final read on the pipelined path.
			s.ioErr = io.EOF
		}
	}
	s.win = s.mdata[:have+chunk]
	if st := s.file.stats; st != nil && !s.detached {
		st.AddBytesRead(uint64(chunk))
		st.AddBlocksRead(1)
	}
	s.fetched += uint64(chunk)
	return true
}
