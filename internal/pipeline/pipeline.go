// Package pipeline implements the pass-graph scan scheduler: the layer
// between the scan engines (gio's sequential engine, exec's partition-merge
// engine) and the algorithms (internal/core).
//
// The paper's cost model is the number of sequential scans of the adjacency
// file, so the scheduler's job is to spend as few physical scans as the
// declared work allows. Algorithms do not call Source.ForEachBatchCtx
// directly; they register logical passes — small structs declaring a batch
// callback plus what they read and mutate — with a Scheduler, which fuses
// compatible passes into one shared physical scan, invokes the fused batch
// callbacks in declared order on every batch, and accounts the logical and
// physical scan counts separately (gio.Stats.Scans vs PhysicalScans).
//
// Fusion never changes observable results: the planner fuses two passes only
// when their declared access flags prove them independent (at most one of
// them touches shared state, or both only read it), or when a pass
// explicitly declares — via FuseAfter — that it was constructed to tolerate
// a specific predecessor's in-scan mutations (the deferred-write sweep of
// the swap algorithms is the canonical example). Running a Scheduler with
// Unfused set executes every pass as its own physical scan instead; the core
// parity tests hold both modes to bit-identical results.
package pipeline

import (
	"context"
	"errors"

	"repro/internal/gio"
)

// ErrStopScan, returned from a Pass's Batch callback, tells the scheduler
// the pass needs nothing more from the current physical scan (a verify pass
// that has already found its violation, say). It is not a failure: the
// pass's Done hook still runs, and co-scheduled passes keep receiving
// batches. The physical scan is cut short only once every pass in its group
// has stopped — in which case the aborted scan is not counted in Stats,
// exactly like a consumer abandoning a plain ForEachBatchCtx.
var ErrStopScan = errors.New("pipeline: stop scan")

// Source is the scan contract every engine serves and every algorithm pass
// reads the graph through (core.Source is this type): *gio.File, the
// sequential engine and oracle, and *exec.Executor, the partition-merge
// engine over one file or a shard set. Because the executor merges its
// units back into scan order, a pass is oblivious to which one it runs on —
// results are bit-identical by construction, which the exec and shard
// parity tests enforce.
type Source interface {
	// NumVertices returns the graph's vertex count.
	NumVertices() int
	// Stats returns the I/O counters the engine accounts into, which may be
	// nil.
	Stats() *gio.Counters
	// ForEachBatchCtx runs one full scan, invoking fn for every decoded
	// batch of records in scan order on the calling goroutine. fn must not
	// retain a batch. A canceled ctx stops the engine itself (the
	// prefetcher stops reading ahead, the executor drains its workers) and
	// returns the ctx error wrapped in a gio.ScanError carrying the scan
	// position. ctx must not be nil.
	ForEachBatchCtx(ctx context.Context, fn func([]gio.Record) error) error
}

// Pass is one logical pass over the adjacency file: a batch callback plus
// the declaration of what it reads and mutates, which is what the fusion
// planner reasons about.
type Pass struct {
	// Name identifies the pass in errors and in FuseAfter references.
	Name string

	// ReadOnly declares that the pass consumes only the record stream and
	// pass-private storage: it neither reads nor writes any state another
	// pass in the same scheduler run could touch. ReadOnly passes fuse with
	// anything — they cannot observe a co-scheduled pass's mutations.
	ReadOnly bool

	// MutatesStates declares that the pass writes shared per-vertex state
	// (or any other cross-pass-visible structure) during the scan. A
	// mutating pass never fuses with another pass that reads shared state,
	// in either order, unless that pass names it in FuseAfter.
	MutatesStates bool

	// DeferredWrites declares that the pass mutates shared state from its
	// Done hook (not during the scan — that is MutatesStates). A pass
	// running after it in a separate scan would observe those writes, so
	// the planner refuses to fuse any later shared-state-touching pass into
	// a deferred writer's scan: fused, that pass would see pre-Done state.
	// The maximality sweep is the canonical deferred writer.
	DeferredWrites bool

	// FuseAfter names a pass this one may share a physical scan with even
	// though the flags alone forbid it, because this pass is implemented to
	// tolerate that specific predecessor's in-scan and deferred mutations
	// (typically by deferring its own decisions to Done). The named pass
	// must precede this one in declaration order. The exemption is
	// one-directional: it does not license this pass's own in-scan
	// mutations against the named pass's reads.
	FuseAfter string

	// Produces names a cross-round state product: shared state this pass
	// mutates during its scan that is complete — every vertex's entry final
	// — once the scan ends. A later-declared pass naming it in Consumes may
	// join this pass's physical scan. The swap algorithms' setup and
	// post-swap passes are the canonical producers (states, ISN sets and ISN
	// preimage counts, all complete at end of scan).
	Produces string

	// Consumes names a product of a co-scheduled pass that this pass's
	// deferred resolution will read. Declaring it is the cross-round fusion
	// edge: this pass belongs logically to the NEXT round, but its Batch
	// rides the producer's physical scan, collecting into pass-private
	// buffers only, and every decision against the product is made after the
	// scan — when the product is complete — via an explicit resolve step in
	// the owning algorithm. The planner therefore admits it into the
	// producer's scan despite the producer's in-scan mutations, and treats it
	// as a deferred writer toward later passes (its resolution mutates shared
	// state after the scan, so a later shared-state pass fused behind it
	// would observe pre-resolve state). A Consumes pass does not count a
	// logical scan when it rides; the resolve step accounts it via
	// ResolveCarried. Like FuseAfter, the exemption never licenses the
	// consumer's own in-scan mutations: a consumer declaring MutatesStates
	// forfeits it.
	Consumes string

	// Batch is invoked for every decoded batch in scan order. Within a fused
	// physical scan, batch callbacks run in declaration order on each batch.
	// A non-nil error aborts the physical scan and the whole run.
	Batch func(batch []gio.Record) error

	// Done, if non-nil, runs after the pass's physical scan completes
	// without error — deferred resolution for passes that must act as if
	// they ran after their scan finished. Within a fused group, Done hooks
	// run in declaration order; the first error aborts the run.
	Done func() error
}

// inert reports whether the pass provably cannot interact with another
// pass's state: declared ReadOnly and not mutating. A pass declaring both
// ReadOnly and MutatesStates contradicts itself; the planner resolves the
// contradiction conservatively, as a mutator.
func (p Pass) inert() bool { return p.ReadOnly && !p.MutatesStates }

// deferredWriter reports whether the pass mutates shared state after its
// scan rather than during it: declared via DeferredWrites (Done-hook
// writers like the maximality sweep) or implied by Consumes (a carried pass
// resolves against the completed product after the scan). Either way, a
// later shared-state pass must not join its scan.
func (p Pass) deferredWriter() bool { return p.DeferredWrites || p.Consumes != "" }

// Fusable reports whether two passes, with a declared before b, may share
// one physical scan under the conservative flag rule alone (FuseAfter
// exemptions are handled by the planner, not here):
//
//   - a must not be a deferred writer unless b is inert: b running in a's
//     scan would see shared state before a's Done applied its writes, while
//     a separate scan would run after them; and
//   - either pass is inert — ReadOnly and non-mutating — so it can neither
//     observe nor disturb the other, or
//   - neither pass mutates shared state (two readers commute).
//
// Everything else — a mutator next to a reader, or two mutators — would let
// one pass observe the other's partial, batch-interleaved writes, which a
// separate scan would never show it.
func Fusable(a, b Pass) bool {
	if a.deferredWriter() && !b.inert() {
		return false
	}
	if a.inert() || b.inert() {
		return true
	}
	return !a.MutatesStates && !b.MutatesStates
}

// Options configure a Scheduler.
type Options struct {
	// Unfused disables fusion: every logical pass runs as its own physical
	// scan, in declaration order. This is the accounting-transparent
	// baseline the parity tests compare fused execution against.
	Unfused bool

	// Ctx cancels scheduler runs: it is checked between physical scans and
	// between batches within a scan, and handed to the scan engine itself
	// (so the prefetcher and the executor's workers stop too). A run aborted
	// mid-scan returns the ctx error wrapped in a gio.ScanError carrying the
	// scan position; an aborted scan is not counted in Stats, exactly like a
	// consumer abandoning a plain scan. A nil Ctx never cancels.
	Ctx context.Context

	// Progress, when non-nil, observes every physical scan the scheduler
	// runs: after each delivered batch it receives the records delivered so
	// far in the current scan and the file's total record count. Callbacks
	// run synchronously on the scan goroutine — keep them cheap.
	Progress func(records, total uint64)
}

// Scheduler collects logical passes and runs them over one Source.
type Scheduler struct {
	src    Source
	opts   Options
	passes []Pass
}

// New returns an empty scheduler over src.
func New(src Source, opts Options) *Scheduler {
	if opts.Ctx == nil {
		opts.Ctx = context.Background()
	}
	return &Scheduler{src: src, opts: opts}
}

// Add registers a logical pass. Passes run (and fuse) in registration order.
func (s *Scheduler) Add(p Pass) {
	s.passes = append(s.passes, p)
}

// Plan groups the registered passes into physical scans: each group is a
// maximal run of consecutive passes that are pairwise fusable (or exempted
// via FuseAfter). Declaration order is preserved both across and within
// groups. With Unfused set, every pass is its own group.
func (s *Scheduler) Plan() [][]Pass {
	return PlanFusion(s.passes, s.opts.Unfused)
}

// PlanFusion is Plan on an explicit pass list; exported for the planner's
// fuzz test.
func PlanFusion(passes []Pass, unfused bool) [][]Pass {
	var groups [][]Pass
	for _, p := range passes {
		if unfused || len(groups) == 0 {
			groups = append(groups, []Pass{p})
			continue
		}
		cur := groups[len(groups)-1]
		if joinable(cur, p) {
			groups[len(groups)-1] = append(cur, p)
		} else {
			groups = append(groups, []Pass{p})
		}
	}
	return groups
}

// joinable reports whether p may join the group: p must be fusable with
// every member, where two exemptions cover specific members that precede p
// in the group:
//
//   - FuseAfter names a member whose in-scan and deferred mutations p was
//     constructed to tolerate;
//   - Consumes matches a member's Produces — the cross-round edge: p only
//     collects during the scan and resolves against the member's product
//     after it, when the product is complete.
//
// Both exemptions are one-directional — they waive only the named member's
// writes as observed by p, which is what p's author vouched for; p's own
// in-scan mutations disturbing that member's reads are never waived.
func joinable(group []Pass, p Pass) bool {
	for _, m := range group {
		exempt := (p.FuseAfter != "" && p.FuseAfter == m.Name) ||
			(p.Consumes != "" && p.Consumes == m.Produces)
		if exempt {
			if p.MutatesStates && !m.inert() {
				return false
			}
			continue
		}
		if !Fusable(m, p) {
			return false
		}
	}
	return true
}

// Run plans the registered passes and executes the physical scans in order.
// It returns the first error: a Batch error aborts its physical scan
// immediately (later groups never run), a Done error stops before later Done
// hooks and groups, and a canceled Options.Ctx aborts between scans and
// between batches. On success, every pass's Batch saw every batch and every
// Done ran.
func (s *Scheduler) Run() error {
	for _, group := range s.Plan() {
		if err := s.opts.Ctx.Err(); err != nil {
			return err
		}
		if err := s.runGroup(group); err != nil {
			return err
		}
	}
	return nil
}

// runGroup executes one physical scan serving every pass in the group. A
// pass may opt out of the rest of the stream by returning ErrStopScan; the
// scan is cut short once every pass has, sparing the failure paths (a
// verify pass that already has its violation) a full read of the file.
func (s *Scheduler) runGroup(group []Pass) error {
	stopped := make([]bool, len(group))
	remaining := len(group)
	total := uint64(s.src.NumVertices())
	var delivered uint64
	fn := func(batch []gio.Record) error {
		if err := s.opts.Ctx.Err(); err != nil {
			return &gio.ScanError{Records: delivered, Total: total, Err: err}
		}
		for i := range group {
			if stopped[i] {
				continue
			}
			switch err := group[i].Batch(batch); err {
			case nil:
			case ErrStopScan:
				stopped[i] = true
				if remaining--; remaining == 0 {
					return ErrStopScan
				}
			default:
				return err
			}
		}
		delivered += uint64(len(batch))
		if s.opts.Progress != nil {
			s.opts.Progress(delivered, total)
		}
		return nil
	}
	err := s.src.ForEachBatchCtx(s.opts.Ctx, fn)
	if err != nil && err != ErrStopScan {
		return err
	}
	// The engine counted a completed physical scan as one logical scan; the
	// other fused passes each logically scanned the file too — except
	// carried (Consumes) passes riding their producer's scan, whose logical
	// scan belongs to the round that resolves them and is counted then, by
	// ResolveCarried. A scan every pass cut short is not a completed scan
	// and counted nothing — exactly like a consumer abandoning a plain
	// ForEachBatchCtx mid-file.
	if st := s.src.Stats(); st != nil && err == nil {
		st.AddScans(len(group) - 1 - carriedInGroup(group))
	}
	for i := range group {
		if group[i].Done != nil {
			if err := group[i].Done(); err != nil {
				// Returned verbatim: Done errors are the pass's own verdict
				// (a verify pass's violation, say), not a scheduler failure.
				return err
			}
		}
	}
	return nil
}

// carriedInGroup counts the group's carried passes: Consumes passes riding
// a co-scheduled producer of their product. A Consumes pass stranded in a
// group without its producer (the planner split them apart) ran as an
// ordinary pass of this round and is accounted normally.
func carriedInGroup(group []Pass) int {
	carried := 0
	for i, p := range group {
		if p.Consumes == "" {
			continue
		}
		for j := 0; j < i; j++ {
			if group[j].Produces == p.Consumes {
				carried++
				break
			}
		}
	}
	return carried
}

// ResolveCarried accounts the deferred resolution of a carried (Consumes)
// pass: the logical scan it represents is counted at the moment the owning
// algorithm replays the collected records against the completed product,
// alongside the CarriedScans counter that makes the cross-round fusion
// observable. No physical scan is involved — that is the point.
func ResolveCarried(src Source) {
	if st := src.Stats(); st != nil {
		st.AddScans(1)
		st.AddCarriedScans(1)
	}
}
