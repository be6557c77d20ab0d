// Package exec implements the partition-merge scan engine: it runs an
// ordered list of units — record-aligned byte-range partitions of one or
// more adjacency files — fans their block-pipelined batch decoding out
// across a pool of worker goroutines, and merges the decoded batches back
// into exact scan order for a single consumer callback.
//
// Units come from one of two planners. A single file (New) is cut from its
// own partition plan, captured by its first full scan or loaded from its
// footer. A shard set (internal/shard) lists each shard file's persisted
// partitions, in shard order, so the merged scan order is the merged graph's.
//
// The design keeps the sequential engine as the oracle: because batches are
// delivered to the callback in global record order on the calling goroutine,
// every pass run on the executor — order-dependent ones like the greedy
// marking scan included — produces bit-identical results to a plain
// gio.File scan. Parallelism accelerates only the decode (varint/gap
// expansion, fixed-width neighbor copies), which is where scan-bound passes
// spend their cycles; see the parity tests for the enforced equivalences and
// BENCH_parscan.json for the measured throughput.
//
// Fallbacks preserve oracle behavior exactly. For a single file, workers ≤ 1,
// files too small to split, and files whose partition planning fails
// (malformed input) all run the file's own sequential scan, reproducing its
// records, error and Stats byte for byte. A shard set at one worker, or with
// a single unit, runs its units inline on the calling goroutine.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/gio"
)

const (
	// PartitionsPerWorker oversplits a run relative to the worker count so
	// that a skewed unit (one hub vertex's huge record) does not serialize
	// the tail of the scan: workers claim units dynamically.
	PartitionsPerWorker = 2
	// unitChanDepth bounds decoded-but-unconsumed batches per unit, keeping
	// memory at O(workers · batch) while letting workers run ahead of the
	// consumer.
	unitChanDepth = 4
)

// Unit is one work item of a run: a record-aligned partition of one of the
// executor's files. Partition record indices are local to that file; the
// order of a run's units is its merged scan order.
type Unit struct {
	File int // index into the executor's files
	Part gio.Partition
}

// Executor runs full scans of one graph stored in one or more files with a
// fixed degree of parallelism. It is cheap to construct (partition plans are
// cached on the files) and satisfies the scan contract of the pass scheduler
// (internal/pipeline), so algorithm passes accept it like a *gio.File. An
// Executor must not be used concurrently with itself; construct one per
// concurrent run.
type Executor struct {
	files    []*gio.File
	plan     func(workers int) []Unit // nil: files[0] alone, cut from its own plan
	vertices int
	stats    *gio.Counters
	workers  int
}

// New returns an executor over f using the given number of decode workers.
// workers ≤ 0 selects GOMAXPROCS; workers == 1 is the sequential engine.
// It accounts into f's counters.
func New(f *gio.File, workers int) *Executor {
	return &Executor{files: []*gio.File{f}, vertices: f.NumVertices(), stats: f.Stats(), workers: defaultWorkers(workers)}
}

// NewMerged returns an executor over several files scanned as one graph of
// the given vertex count: every scan runs the units plan lists for the
// worker count, accounting into stats (which may be nil). The files' own
// counters are never touched. workers ≤ 0 selects GOMAXPROCS; at 1 the
// units run inline on the calling goroutine.
func NewMerged(files []*gio.File, vertices int, stats *gio.Counters, workers int, plan func(workers int) []Unit) *Executor {
	return &Executor{files: files, plan: plan, vertices: vertices, stats: stats, workers: defaultWorkers(workers)}
}

func defaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// NumVertices returns the graph's vertex count.
func (e *Executor) NumVertices() int { return e.vertices }

// Stats returns the I/O counters the executor accounts into, which may be
// nil.
func (e *Executor) Stats() *gio.Counters { return e.stats }

// ForEachBatchCtx runs one full scan, invoking fn for every decoded batch in
// scan order on the calling goroutine. With workers > 1 the batches are
// decoded concurrently by unit workers and merged deterministically; the
// record sequence, the first error (fn's or the decoder's, whichever comes
// first in scan order) and the completed scan's Stats are identical to a
// sequential scan's. Batch boundaries may differ from the sequential
// engine's — no pass may depend on them. fn must not retain a batch or its
// Neighbors slices past the call.
//
// When ctx is canceled or its deadline passes, the merge stops within one
// batch, the worker pool is drained (no goroutine outlives the call), and
// the scan returns the ctx error wrapped in a gio.ScanError carrying the
// merged scan position.
func (e *Executor) ForEachBatchCtx(ctx context.Context, fn func([]gio.Record) error) error {
	var units []Unit
	if e.plan != nil {
		units = e.plan(e.workers)
	} else if units = e.fileUnits(); units == nil {
		return e.files[0].ForEachBatchCtx(ctx, fn)
	}
	m := &merge{ctx: ctx, fn: fn, stats: e.stats, total: uint64(e.vertices), consumed: make([]int64, len(e.files))}
	var err error
	if e.workers <= 1 || len(units) < 2 {
		err = e.runInline(m, units)
	} else {
		err = e.runParallel(m, units)
	}
	e.account(m.consumed, err == nil)
	return err
}

// fileUnits cuts a single file into units, or returns nil when the file's
// own sequential scan must run instead. It runs on the sequential engine:
//   - at workers ≤ 1;
//   - on a cold start, while no plan is cached and capture is viable. A
//     dedicated planning side scan would read the whole file once before
//     the counted scan reads it again, so a one-shot workload would pay two
//     passes over the disk. The file's own scan captures the plan from its
//     record stream instead — one physical pass, identical records, error
//     and Stats — and every later scan goes parallel off the cached plan.
//     If the capture cannot validate (see gio), the next scan falls through
//     to Partitions' self-checking side scan;
//   - on malformed input (planning failed) or a file too small to split:
//     the sequential engine is the oracle, run verbatim.
func (e *Executor) fileUnits() []Unit {
	f := e.files[0]
	if e.workers <= 1 || f.PlanCaptureViable() {
		return nil
	}
	parts, err := f.Partitions(e.workers * PartitionsPerWorker)
	if err != nil || len(parts) < 2 {
		return nil
	}
	units := make([]Unit, len(parts))
	for i, p := range parts {
		units[i] = Unit{Part: p}
	}
	return units
}

// merge is the consumer side of one run: it hands batches to fn in merged
// scan order and records, per file, the end offset of the last fully
// consumed unit.
type merge struct {
	ctx       context.Context
	fn        func([]gio.Record) error
	stats     *gio.Counters
	total     uint64
	delivered uint64
	consumed  []int64
}

// canceled reports a canceled ctx as a ScanError at the merged position.
func (m *merge) canceled() error {
	if err := m.ctx.Err(); err != nil {
		return &gio.ScanError{Records: m.delivered, Total: m.total, Err: err}
	}
	return nil
}

// deliver hands one batch to fn, counting its records.
func (m *merge) deliver(batch []gio.Record) error {
	if m.stats != nil {
		m.stats.AddRecordsRead(uint64(len(batch)))
	}
	if err := m.fn(batch); err != nil {
		return err
	}
	m.delivered += uint64(len(batch))
	return nil
}

// runInline drives each unit's detached scanner on the calling goroutine,
// in unit order.
func (e *Executor) runInline(m *merge, units []Unit) error {
	for _, u := range units {
		sc := e.files[u.File].ScanPartition(u.Part)
		for {
			if err := m.canceled(); err != nil {
				sc.Close()
				return err
			}
			batch := sc.NextBatch()
			if batch == nil {
				break
			}
			if err := m.deliver(batch); err != nil {
				sc.Close()
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		m.consumed[u.File] = u.Part.EndOffset
	}
	return nil
}

// batchMsg carries one decoded batch (or a unit's terminal status) from a
// worker to the consumer. recs and arena transfer ownership with the
// message; the consumer recycles them through the buffer pool.
type batchMsg struct {
	recs  []gio.Record
	arena []uint32
	err   error
	last  bool
}

// batchBufs is a recycled (record slice, neighbor arena) pair.
type batchBufs struct {
	recs  []gio.Record
	arena []uint32
}

// runParallel fans units out across the worker pool and merges their
// batches back in unit order.
func (e *Executor) runParallel(m *merge, units []Unit) error {
	// On a mapped file, zero-copy batches alias the mapping while they sit in
	// the unit channels — after the worker's scanner has closed and released
	// its own mapping reference. Pin every mapping once for the whole run so
	// a concurrent Close defers the munmap past the last of those in-flight
	// batches. If a pin fails (file already closing), the workers' scans fail
	// fast below and the error propagates normally.
	for _, f := range e.files {
		if release, ok := f.PinMap(); ok {
			defer release()
		}
	}
	nw := min(e.workers, len(units))
	chans := make([]chan batchMsg, len(units))
	for i := range chans {
		chans[i] = make(chan batchMsg, unitChanDepth)
	}
	quit := make(chan struct{})
	pool := &sync.Pool{New: func() any { return &batchBufs{} }}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				if !e.scanUnit(units[i], chans[i], quit, pool) {
					return
				}
			}
		}()
	}

	// Consume units in order; within a unit, batches arrive in order. The
	// merged invocation sequence is therefore the sequential scan order, and
	// the earliest error in that order wins — exactly the sequential
	// engine's stopping point. ctx is checked before every message, the
	// unit's terminal one included, as runInline checks it before every
	// NextBatch: a cancel raised in the callback of the last batch fails the
	// scan instead of completing it. On any stop, close(quit) unblocks every
	// worker and wg.Wait guarantees none outlives the call.
	var runErr error
consume:
	for i := range chans {
		for {
			msg := <-chans[i]
			if runErr = m.canceled(); runErr != nil {
				break consume
			}
			if msg.last {
				if msg.err != nil {
					runErr = msg.err
					break consume
				}
				m.consumed[units[i].File] = units[i].Part.EndOffset
				break
			}
			if runErr = m.deliver(msg.recs); runErr != nil {
				break consume
			}
			pool.Put(&batchBufs{recs: msg.recs, arena: msg.arena})
		}
	}
	close(quit)
	wg.Wait()
	return runErr
}

// scanUnit decodes one unit, shipping each batch (with its
// ownership-transferred buffers) to ch, then a terminal message carrying the
// unit's scan error. It reports false when the run was cancelled.
func (e *Executor) scanUnit(u Unit, ch chan<- batchMsg, quit <-chan struct{}, pool *sync.Pool) bool {
	sc := e.files[u.File].ScanPartition(u.Part)
	defer sc.Close()
	for {
		batch := sc.NextBatch()
		if batch == nil {
			break
		}
		bufs := pool.Get().(*batchBufs)
		recs, arena := sc.SwapBuffers(bufs.recs, bufs.arena)
		select {
		case ch <- batchMsg{recs: recs, arena: arena}:
		case <-quit:
			return false
		}
	}
	select {
	case ch <- batchMsg{err: sc.Err(), last: true}:
		return true
	case <-quit:
		return false
	}
}

// account adds what a sequential scan of each file would have counted: it
// consumes ceil(covered/B) blocks to reach the end of the file's last
// consumed unit, every block full-sized except a final one clipped at end of
// file. A completed run covers every unit, so its accounting is the
// sequential engine's; a run stopped by an error covers the fully consumed
// unit prefix, a deterministic lower bound on what the sequential engine
// would have counted before the same stopping point (the exact figure
// depends on its batch boundaries). The rule is shared by the inline and
// parallel paths, so a run's Stats are identical at every worker count.
// Scans counts completed runs only — one logical and one physical scan for
// the whole merged pass — exactly like the sequential engine.
func (e *Executor) account(consumed []int64, completed bool) {
	if e.stats == nil {
		return
	}
	for i, f := range e.files {
		covered := consumed[i] - gio.HeaderSize
		if covered <= 0 {
			continue
		}
		b := int64(f.BlockSize())
		blocks := (covered + b - 1) / b
		bytes := blocks * b
		if size, err := f.SizeBytes(); err == nil && bytes > size-gio.HeaderSize {
			bytes = size - gio.HeaderSize
		}
		e.stats.AddBlocksRead(uint64(blocks))
		e.stats.AddBytesRead(uint64(bytes))
	}
	if completed {
		e.stats.AddScans(1)
		e.stats.AddPhysicalScans(1)
	}
}
