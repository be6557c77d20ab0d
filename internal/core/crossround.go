package core

import (
	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// carryCollector implements the algorithm side of the pipeline's cross-round
// fusion edge: it rides a scan that completes a round's swap states and ISN
// sets (the setup scan, or a post-swap scan) and collects exactly the
// records the NEXT round's pre-swap pass will act on — the A vertices, with
// their adjacency lists — so that the pre-swap (and, for two-k-swap, the
// validating swap pass) can resolve from memory instead of paying dedicated
// physical scans. This is what makes ISN maintenance effectively
// incremental across rounds: the producer scan leaves states, ISN sets and
// ISN preimage counts complete at its end, and every decision the carried
// passes make is deferred until then, so a steady-state swap round spends
// exactly one physical scan (its own post-swap pass).
//
// The collection rule is sound because the producer passes mutate only the
// state of the record currently in hand: once a record's batch callback has
// run, its vertex's classification (and ISN entry) is final for the
// remainder of the scan, so "A immediately after the producer's callback"
// equals "A when a dedicated pre-swap scan would run". The replay then
// iterates the buffer in scan order against the completed product, which
// reproduces the dedicated scan's reads and writes bit for bit — the
// fused-vs-unfused parity tests and the randomized property harness hold
// the two executions to identical results.
//
// Deferral stores the pending vertices' neighbor lists in memory. The
// buffer is bounded at a small multiple of |V| entries (the same order as
// the ISN arrays); past that the collector abandons the round's carry and
// the algorithm falls back to the classic dedicated scans, which are
// equivalent by construction. A stall exit likewise discards an unused
// collection — the classic standalone sweep already covers that path.
type carryCollector struct {
	states semiext.States
	buf    *semiext.RecordBuffer // the A records, budget-bounded

	collected bool
}

// carryBudget returns the collector's neighbor-entry budget for an n-vertex
// graph: the same order as the ISN arrays, so the carry never changes the
// framework's O(|V|) memory class. A variable so the overflow fallback can
// be forced in tests.
var carryBudget = func(n int) int { return 2*n + 1024 }

// newCarryCollector returns a collector over the shared state array.
func newCarryCollector(states semiext.States) *carryCollector {
	return &carryCollector{
		states: states,
		buf:    semiext.NewRecordBuffer(carryBudget(states.Len())),
	}
}

// pass returns the collection as a logical pass consuming the named product
// of a co-scheduled producer (the setup or post-swap pass). The pass only
// collects; the owning algorithm replays the buffer at the start of the
// next round, after calling pipeline.ResolveCarried for the accounting.
func (c *carryCollector) pass(name, product string) pipeline.Pass {
	c.reset()
	c.collected = true
	return pipeline.Pass{
		Name:           name,
		Consumes:       product,
		DeferredWrites: true,
		Batch:          c.batch,
	}
}

// reset drops any previous collection, keeping the buffer's capacity.
func (c *carryCollector) reset() {
	c.buf.Reset()
	c.collected = false
}

func (c *carryCollector) batch(batch []gio.Record) error {
	for i := range batch {
		if r := &batch[i]; c.states.Get(r.ID) == semiext.StateAdjacent {
			c.buf.Append(r.ID, r.Neighbors)
		}
	}
	return nil
}

// ready reports whether a complete collection is available for replay; when
// false (never scheduled, or overflowed) the round must pay the classic
// dedicated scans.
func (c *carryCollector) ready() bool { return c.collected && !c.buf.Overflowed() }

// forEach replays the buffered records in scan order.
func (c *carryCollector) forEach(fn func(u uint32, neighbors []uint32)) {
	c.buf.ForEach(fn)
}

// memoryBytes reports the collector's contribution to the algorithm's
// high-water footprint: the deferral buffer.
func (c *carryCollector) memoryBytes() uint64 { return c.buf.MemoryPeak() }
