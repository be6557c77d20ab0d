package core

import (
	"context"

	"repro/internal/gio"
	"repro/internal/pipeline"
)

// ScanProgress reports how far the current physical scan has advanced: the
// records delivered so far against the file's total record count. Emitted
// after every decoded batch of every physical scan an algorithm runs.
type ScanProgress struct {
	Records uint64
	Total   uint64
}

// RoundEvent reports one completed swap round: the round number (1-based),
// the net gain in independent-set size, the set size after the round, and
// the I/O the round performed. With cross-round pass fusion a steady-state
// round shows one physical scan plus carried logical scans.
type RoundEvent struct {
	Round int
	Gain  int
	Size  int
	IO    gio.Stats
}

// Hooks observe a run. Both callbacks are optional and run synchronously on
// the algorithm's goroutine: OnScan after every delivered batch, OnRound
// after every swap round. They must be cheap and must not call back into the
// algorithm.
type Hooks struct {
	OnScan  func(ScanProgress)
	OnRound func(RoundEvent)
}

// progress adapts OnScan to the pipeline scheduler's callback shape.
func (h Hooks) progress() func(records, total uint64) {
	if h.OnScan == nil {
		return nil
	}
	return func(records, total uint64) {
		h.OnScan(ScanProgress{Records: records, Total: total})
	}
}

// round emits a RoundEvent if an observer is attached.
func (h Hooks) round(ev RoundEvent) {
	if h.OnRound != nil {
		h.OnRound(ev)
	}
}

// run bundles one algorithm run's cancellation and observability: the
// context every scheduler run and round boundary checks, and the hooks
// events are delivered through. A nil ctx never cancels: every entry point
// takes a ctx, but a Solver caller may still pass nil.
type run struct {
	ctx   context.Context
	hooks Hooks
}

func newRun(ctx context.Context, h Hooks) run {
	if ctx == nil {
		ctx = context.Background()
	}
	return run{ctx: ctx, hooks: h}
}

// sopts builds the pipeline options for one scheduler run of this run.
func (r run) sopts(unfused bool) pipeline.Options {
	return pipeline.Options{Unfused: unfused, Ctx: r.ctx, Progress: r.hooks.progress()}
}

// err reports the run's cancellation state; checked between scans, between
// rounds, and before carried-collection replays.
func (r run) err() error { return r.ctx.Err() }
