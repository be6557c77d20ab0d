package mis

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/wal"
)

// Journal is a Maintainer whose updates are durable: every acknowledged
// InsertEdge/DeleteEdge is written to an append-only, CRC-checksummed
// journal (internal/wal) before it is applied, so a crash or cancellation
// loses nothing that was acknowledged. The journal is segmented — sealed
// segments are immutable, only the newest takes appends — and OpenJournal
// recovers by replaying the unfolded segments into a fresh Maintainer delta
// (a torn tail on the active segment, the one record a crash can cut
// mid-write, is truncated; anything else damaged surfaces as a typed
// *wal.CorruptError), then one Repair scan rebuilds maximality.
//
// Compact is online: it folds the sealed-segment prefix into a new base
// generation while InsertEdge/DeleteEdge keep landing in the active segment
// and solver scans on File() handles keep reading the old generation.
// Updates arriving during the fold are captured and carried into the new
// generation's delta at the flip, so the effective graph is continuous. A
// crash at any step recovers to the old or the new generation, whole.
//
// Journal methods are safe for concurrent use.
type Journal struct {
	// mu guards the append path: the live maintainer, the suffix capture,
	// and the root sticky error. Compact holds it only for the brief
	// snapshot and flip sections, never across the fold scan.
	mu  sync.Mutex
	m   *Maintainer
	err error // sticky: set when a failed flip leaves memory and disk divergent

	// pending, non-nil only while a compaction window is open, captures
	// every record appended during the fold so the flip can rebuild the
	// delta suffix against the new base.
	pending []wal.Record

	// compactMu serializes compactions (the store allows one window).
	compactMu sync.Mutex

	// genMu guards the generation handles. cur is the live generation;
	// prev keeps the previous generation's File open across one compaction
	// as a grace slot for unpinned File() readers.
	genMu sync.Mutex
	cur   *genHandle
	prev  *genHandle

	store *wal.Store
	cfg   journalConfig
}

// genHandle refcounts one generation's File. The Journal itself holds one
// reference while the handle sits in cur or prev; AcquireFile adds more.
type genHandle struct {
	f    *File
	refs int
}

type journalConfig struct {
	syncEvery    int
	syncInterval time.Duration
	keepGens     int
	workers      int
	segmentSize  int64
	fs           wal.FS // fault-injection seam; nil uses the OS
}

// JournalOption customizes InitJournal and OpenJournal.
type JournalOption func(*journalConfig)

// SyncEvery sets the group-commit size trigger: an insert or delete is
// acknowledged as durable once an fsync covers it, and one fsync covers up
// to n acknowledged-but-volatile records. 1 (the default) fsyncs every
// update before acknowledging it; larger values batch updates per fsync at
// the cost of a bounded loss window (only un-fsynced tail records can
// vanish in a crash — never a gap, always a suffix).
func SyncEvery(n int) JournalOption {
	return func(c *journalConfig) { c.syncEvery = n }
}

// SyncInterval adds a time trigger to group commit: pending records are
// fsynced at least this often even when the SyncEvery threshold is not
// reached. 0 (the default) disables the timer.
func SyncInterval(d time.Duration) JournalOption {
	return func(c *journalConfig) { c.syncInterval = d }
}

// KeepGenerations sets how many compacted base generations to retain in
// the journal directory (current included; default 2). Older generation
// files are pruned after a successful compaction.
func KeepGenerations(n int) JournalOption {
	return func(c *journalConfig) { c.keepGens = n }
}

// JournalWorkers sets the default scan parallelism of the Files the journal
// opens (see WithWorkers): the worker count of solvers run over File or
// AcquireFile that do not set their own. The journal's own scans — the
// recovery Repair, Verify and the compaction fold — read the base file
// sequentially whatever the value.
func JournalWorkers(n int) JournalOption {
	return func(c *journalConfig) { c.workers = n }
}

// SegmentSize sets the journal rotation threshold in bytes: when the active
// segment reaches it, the segment is sealed (fsync) and a successor opens,
// bounding how much any one compaction folds. 0 (the default) selects
// wal.DefaultSegmentSize; negative disables size-triggered rotation.
func SegmentSize(n int64) JournalOption {
	return func(c *journalConfig) { c.segmentSize = n }
}

func (c *journalConfig) storeOptions() wal.StoreOptions {
	return wal.StoreOptions{
		Journal: wal.Options{
			SyncEvery:    c.syncEvery,
			SyncInterval: c.syncInterval,
			FS:           c.fs,
		},
		KeepGenerations: c.keepGens,
		SegmentSize:     c.segmentSize,
	}
}

func journalCfg(opts []JournalOption) journalConfig {
	cfg := journalConfig{syncEvery: 1, workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// InitJournal creates a journal store in dir (made if absent) over the
// adjacency file at base. The base file is referenced, not copied; the
// first Compact writes its successor generation inside dir.
func InitJournal(dir, base string, opts ...JournalOption) error {
	cfg := journalCfg(opts)
	return wal.InitStore(dir, base, cfg.storeOptions())
}

// openBase opens a generation's adjacency file; a package-level seam so the
// reopen-failure path of Compact is testable without a real I/O error.
var openBase = func(path string, workers int) (*File, error) {
	return Open(path, WithWorkers(workers))
}

// OpenJournal opens the journal store in dir, recovering its state: the
// current generation's base file is opened, every acknowledged update in
// the unfolded journal segments is replayed into the delta (truncating a
// torn tail from a crashed append), and one Repair scan rebuilds a maximal
// independent set over the recovered effective graph. The recovered updates
// are always a prefix of what was acknowledged — never a gap, never a torn
// suffix. Stores laid out before segmentation (a single journal.wal) open
// unchanged and migrate to segments at their first rotation or compaction.
func OpenJournal(ctx context.Context, dir string, opts ...JournalOption) (*Journal, error) {
	cfg := journalCfg(opts)
	man, err := wal.ReadManifest(dir, nil)
	if err != nil {
		return nil, err
	}
	base := man.Base
	if !filepath.IsAbs(base) {
		base = filepath.Join(dir, base)
	}
	f, err := Open(base, WithWorkers(cfg.workers))
	if err != nil {
		return nil, fmt.Errorf("mis: journal base %s: %w", base, err)
	}
	inner, err := dynamic.New(f.inner, make([]bool, f.NumVertices()))
	if err != nil {
		f.Close()
		return nil, err
	}
	const ctxCheckStride = 1024
	var replayed uint64
	store, err := wal.OpenStore(dir, cfg.storeOptions(), func(r wal.Record) error {
		replayed++
		if replayed%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		switch r.Op {
		case wal.OpInsert:
			return inner.InsertEdge(r.U, r.V)
		case wal.OpDelete:
			return inner.DeleteEdge(r.U, r.V)
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{
		store: store,
		cur:   &genHandle{f: f, refs: 1},
		m:     &Maintainer{inner: inner, file: f},
		cfg:   cfg,
	}
	// The journal persists the graph, not the set: rebuild a maximal
	// independent set over the recovered effective graph with one scan.
	if _, err := inner.RepairCtx(ctx); err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// InsertEdge durably adds the undirected edge {u, v}: validated, journaled
// (fsynced per the SyncEvery/SyncInterval policy), then applied to the
// maintained set. An error means the update was not acknowledged and will
// not reappear after recovery. Updates proceed while a Compact is folding —
// they land in the active journal segment and carry over the flip.
func (j *Journal) InsertEdge(u, v uint32) error {
	return j.update(wal.Record{Op: wal.OpInsert, U: u, V: v})
}

// DeleteEdge durably removes the undirected edge {u, v} (see InsertEdge).
func (j *Journal) DeleteEdge(u, v uint32) error {
	return j.update(wal.Record{Op: wal.OpDelete, U: u, V: v})
}

func (j *Journal) update(r wal.Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.m.inner.CheckEdge(r.U, r.V); err != nil {
		return err
	}
	if err := j.store.Append(r); err != nil {
		return err
	}
	var err error
	if r.Op == wal.OpInsert {
		err = j.m.inner.InsertEdge(r.U, r.V)
	} else {
		err = j.m.inner.DeleteEdge(r.U, r.V)
	}
	if err != nil {
		return err
	}
	if j.pending != nil {
		// A compaction is folding a snapshot that predates this record:
		// remember it so the flip can rebuild the delta suffix.
		j.pending = append(j.pending, r)
	}
	return nil
}

// Sync forces group commit: every acknowledged update is durable when it
// returns. Useful before handing control away under SyncEvery > 1.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if err := j.err; err != nil {
		j.mu.Unlock()
		return err
	}
	j.mu.Unlock()
	return j.store.Sync()
}

// Err returns the journal's sticky error: non-nil once an unrecoverable
// write-path failure has occurred — a failed fsync (including a background
// SyncInterval commit that no Append call was around to report) or a failed
// compaction flip. A poisoned Journal rejects further updates; the on-disk
// store is intact up to its durability watermark and reopens cleanly.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errLocked()
}

func (j *Journal) errLocked() error {
	if j.err != nil {
		return j.err
	}
	return j.store.Err()
}

// Repair restores maximality of the maintained set with one scan (see
// Maintainer.Repair). The set itself is not journaled — it is derived
// state, rebuilt the same way on recovery.
func (j *Journal) Repair(ctx context.Context) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.Repair(ctx)
}

// Verify checks the independence invariant over base plus delta.
func (j *Journal) Verify(ctx context.Context) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.Verify(ctx)
}

// Compact folds the journaled prefix into a fresh base generation, online:
// the active segment is sealed and a successor opened (so updates keep
// flowing), a snapshot of the maintainer at the seal point is materialized
// (temp + fsync + atomic rename) as base-<gen>.adj, the manifest flips to
// it — generation, horizon, and fold watermark advance in one atomic
// rename — and the folded segment files are removed. Updates that arrived
// during the fold survive as the new generation's delta and journal suffix.
//
// Readers are unaffected: the old generation's File stays open (and is
// still returned by File() until the flip) for one more compaction cycle,
// so scans that started before the flip finish cleanly; use AcquireFile to
// pin a generation for longer. A crash at any step recovers to the old or
// the new generation, whole. If the flip itself fails ambiguously the
// Journal is poisoned (see Err) — reopen to resume from disk.
func (j *Journal) Compact(ctx context.Context) error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()

	j.mu.Lock()
	if err := j.errLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	c, err := j.store.BeginCompact()
	if err != nil {
		j.mu.Unlock()
		return err
	}
	snap := j.m.inner.Snapshot()
	j.pending = []wal.Record{}
	j.mu.Unlock()

	abort := func() {
		j.store.AbortCompact(c)
		j.mu.Lock()
		j.pending = nil
		j.mu.Unlock()
	}

	// The fold: scan the snapshot (its own file view — concurrent Repair or
	// solver scans are undisturbed) into the next generation's base. The
	// live maintainer keeps taking updates throughout.
	if err := snap.MaterializeCtx(ctx, c.BasePath); err != nil {
		abort()
		return err
	}
	// Open the new generation before the flip: a reopen failure here aborts
	// cleanly — disk still says generation g, memory still matches it.
	newF, err := openBase(c.BasePath, j.cfg.workers)
	if err != nil {
		abort()
		return fmt.Errorf("mis: reopen compacted base: %w", err)
	}

	j.mu.Lock()
	if _, err := j.store.CommitCompact(c); err != nil {
		// The flip may or may not have reached disk; the wal layer has
		// already poisoned the active journal, so no further update can be
		// acknowledged against an ambiguous generation. Mirror it here.
		j.err = fmt.Errorf("mis: compact flip failed, journal poisoned (reopen to resume): %w", err)
		j.pending = nil
		j.mu.Unlock()
		newF.Close()
		return j.err
	}
	// Disk is on the new generation. From here every failure is split-brain
	// — memory can no longer follow — so poison instead of limping on with
	// a delta that does not match the journaled suffix.
	inner, err := dynamic.New(newF.inner, j.m.inner.Set())
	if err == nil {
		if j.m.inner.Dirty() {
			inner.MarkDirty()
		}
		// Rebuild the delta suffix: every record journaled during the fold,
		// replayed against the new base. The live set already reflects them
		// (they were applied on arrival), so replay only refills the edge
		// delta — an insert cannot re-evict, membership is carried whole.
		for _, r := range j.pending {
			if r.Op == wal.OpInsert {
				err = inner.InsertEdge(r.U, r.V)
			} else {
				err = inner.DeleteEdge(r.U, r.V)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		j.err = fmt.Errorf("mis: post-flip state rebuild failed, journal poisoned (reopen to resume): %w", err)
		j.pending = nil
		j.mu.Unlock()
		newF.Close()
		return j.err
	}
	j.m = &Maintainer{inner: inner, file: newF}
	j.pending = nil
	j.mu.Unlock()

	j.installGeneration(newF)
	return nil
}

// installGeneration makes f the current generation handle, demotes the old
// current to the grace slot, and releases whatever the grace slot held.
func (j *Journal) installGeneration(f *File) {
	j.genMu.Lock()
	old := j.prev
	j.prev = j.cur
	j.cur = &genHandle{f: f, refs: 1}
	j.genMu.Unlock()
	if old != nil {
		j.release(old)
	}
}

// release drops one reference; the last reference closes the File.
func (j *Journal) release(h *genHandle) {
	j.genMu.Lock()
	h.refs--
	closeNow := h.refs == 0
	j.genMu.Unlock()
	if closeNow {
		h.f.Close()
	}
}

// File returns the current generation's adjacency file — run solvers
// against it for a fresh optimization after Compact. The handle stays
// readable through the next Compact (the Journal parks the previous
// generation for one grace cycle), so a scan that raced a single
// compaction finishes cleanly; a handle older than two compactions is
// closed. Use AcquireFile to pin a generation deterministically.
func (j *Journal) File() *File {
	j.genMu.Lock()
	defer j.genMu.Unlock()
	return j.cur.f
}

// AcquireFile returns the current generation's adjacency file pinned open:
// it stays readable — across any number of compactions — until release is
// called. release is idempotent.
func (j *Journal) AcquireFile() (f *File, release func()) {
	j.genMu.Lock()
	h := j.cur
	h.refs++
	j.genMu.Unlock()
	var once sync.Once
	return h.f, func() { once.Do(func() { j.release(h) }) }
}

// Maintainer returns the live maintainer (set queries, Result snapshots).
// Like File, the handle is replaced by Compact; re-fetch after compacting.
func (j *Journal) Maintainer() *Maintainer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m
}

// Result snapshots the maintained set.
func (j *Journal) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.m.Result()
}

// Stats reports the journal's durability counters and generation state.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.store.Stats()
	return JournalStats{
		Generation:      st.Manifest.Generation,
		Horizon:         st.Manifest.Horizon,
		BasePath:        j.store.BasePath(),
		Segments:        st.Segments,
		ActiveSegment:   st.ActiveSegment,
		FoldedSegment:   st.Manifest.FoldedSegment,
		JournalRecords:  st.Records,
		DurableRecords:  st.Durable,
		JournalEdges:    st.Edges,
		JournalBytes:    st.Bytes,
		TornBytesOnOpen: st.TornBytes,
		DeltaEdges:      j.m.DeltaEdges(),
		SetSize:         j.m.Size(),
		Dirty:           j.m.Dirty(),
		Err:             j.errLocked(),
	}
}

// JournalStats is a snapshot of a Journal's durable and in-memory state.
type JournalStats struct {
	Generation      uint64 // current base generation (compaction count + 1)
	Horizon         uint64 // edge records folded into the base, cumulative
	BasePath        string // current generation's adjacency file
	Segments        int    // live journal segment files (active included)
	ActiveSegment   uint64 // sequence number of the segment taking appends
	FoldedSegment   uint64 // highest segment sequence folded into the base
	JournalRecords  uint64 // records across live segments (checkpoints included)
	DurableRecords  uint64 // records covered by a completed fsync
	JournalEdges    uint64 // edge records awaiting compaction
	JournalBytes    int64  // bytes across live segments
	TornBytesOnOpen int64  // torn tail discarded during recovery, if any
	DeltaEdges      int    // in-memory delta entries (inserts + tombstones)
	SetSize         int    // maintained independent-set size
	Dirty           bool   // maximality possibly violated (Repair pending)
	Err             error  // sticky write-path failure, nil when healthy
}

// StatJournal inspects the store in dir without opening it for writes: no
// recovery repair, no checkpoint stamping, no torn-tail truncation — and no
// base-file scan, so it costs O(journal). The delta numbers are computed
// from the journaled records alone; set size and dirtiness require a repair
// scan and are reported as zero values. See Journal.Stats for the live
// view.
func StatJournal(dir string, opts ...JournalOption) (JournalStats, error) {
	cfg := journalCfg(opts)
	added := make(map[uint64]struct{})
	tomb := make(map[uint64]struct{})
	key := func(u, v uint32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	st, err := wal.StatStore(dir, cfg.storeOptions(), func(r wal.Record) error {
		switch r.Op {
		case wal.OpInsert:
			delete(tomb, key(r.U, r.V))
			added[key(r.U, r.V)] = struct{}{}
		case wal.OpDelete:
			delete(added, key(r.U, r.V))
			tomb[key(r.U, r.V)] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return JournalStats{}, err
	}
	base := st.Manifest.Base
	if !filepath.IsAbs(base) {
		base = filepath.Join(dir, base)
	}
	return JournalStats{
		Generation:      st.Manifest.Generation,
		Horizon:         st.Manifest.Horizon,
		BasePath:        base,
		Segments:        st.Segments,
		ActiveSegment:   st.ActiveSegment,
		FoldedSegment:   st.Manifest.FoldedSegment,
		JournalRecords:  st.Records,
		DurableRecords:  st.Durable,
		JournalEdges:    st.Edges,
		JournalBytes:    st.Bytes,
		TornBytesOnOpen: st.TornBytes,
		DeltaEdges:      len(added) + len(tomb),
	}, nil
}

// Close commits pending records and releases the journal and base files. A
// File handle pinned with AcquireFile stays open until its release.
func (j *Journal) Close() error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	j.mu.Lock()
	err := j.store.Close()
	j.mu.Unlock()

	j.genMu.Lock()
	cur, prev := j.cur, j.prev
	j.cur, j.prev = nil, nil
	j.genMu.Unlock()
	if prev != nil {
		j.release(prev)
	}
	if cur != nil {
		j.release(cur)
	}
	return err
}
