package mis

import (
	"context"

	"repro/internal/dynamic"
)

// Maintainer keeps an independent set valid while the graph changes — the
// incremental setting the paper's conclusion names as future work. The base
// graph stays on disk; edge insertions and deletions accumulate in memory.
//
// Invariants: after every update the set is independent in the current
// graph (an insertion inside the set evicts one endpoint immediately);
// maximality is restored lazily by Repair, which costs one sequential scan
// and amortizes over many updates.
type Maintainer struct {
	inner *dynamic.Maintainer
	file  *File
}

// NewMaintainer starts maintaining the independent set initial over f's
// graph. The initial set is typically a Greedy or swap result.
func NewMaintainer(f *File, initial *Result) (*Maintainer, error) {
	if initial == nil {
		return nil, nilArg("NewMaintainer", "initial set")
	}
	if f.Sharded() {
		return nil, shardedErr("maintainer")
	}
	inner, err := dynamic.New(f.inner, initial.InSet)
	if err != nil {
		return nil, err
	}
	return &Maintainer{inner: inner, file: f}, nil
}

// InsertEdge adds the undirected edge {u, v}. If both endpoints are in the
// set, one is evicted to preserve independence.
func (m *Maintainer) InsertEdge(u, v uint32) error { return m.inner.InsertEdge(u, v) }

// DeleteEdge removes the undirected edge {u, v} from the graph.
func (m *Maintainer) DeleteEdge(u, v uint32) error { return m.inner.DeleteEdge(u, v) }

// Size returns the current set size.
func (m *Maintainer) Size() int { return m.inner.Size() }

// Contains reports membership of v.
func (m *Maintainer) Contains(v uint32) bool { return m.inner.Contains(v) }

// Dirty reports whether maximality may currently be violated.
func (m *Maintainer) Dirty() bool { return m.inner.Dirty() }

// Evictions returns how many set members insertions have evicted.
func (m *Maintainer) Evictions() int { return m.inner.Evictions() }

// DeltaEdges returns the in-memory delta size (inserted edges plus
// tombstones) — when it grows large, Materialize and re-optimize.
func (m *Maintainer) DeltaEdges() int { return m.inner.DeltaEdges() }

// Repair restores maximality with one sequential scan and returns the
// number of vertices added. Cancellation stops the scan within one batch
// and surfaces as a *gio.ScanError-wrapped ctx error; the set then stays
// independent but remains dirty.
func (m *Maintainer) Repair(ctx context.Context) (int, error) { return m.inner.RepairCtx(ctx) }

// Verify checks the independence invariant against the file and the delta.
// A violation is a typed *dynamic.ViolationError carrying the offending
// edge and scan position; an I/O or cancellation failure carries a
// *gio.ScanError — so daemon callers can tell corruption from invariant
// breakage with errors.As. Cancellation behaves as for Repair.
func (m *Maintainer) Verify(ctx context.Context) error { return m.inner.VerifyCtx(ctx) }

// Result snapshots the current set as a Result.
func (m *Maintainer) Result() *Result {
	in := m.inner.Set()
	size := 0
	for _, b := range in {
		if b {
			size++
		}
	}
	return &Result{InSet: in, Size: size}
}

// Materialize writes the current effective graph (base edges minus
// deletions plus insertions) to path as a degree-sorted adjacency file, so
// the full swap pipeline can re-optimize from scratch. The file appears
// atomically (temp + fsync + rename): an error or crash mid-write never
// leaves a partial file at path. Cancellation stops the scan within one
// batch, removes the temp file, and leaves the destination untouched.
func (m *Maintainer) Materialize(ctx context.Context, path string) error {
	return m.inner.MaterializeCtx(ctx, path)
}
