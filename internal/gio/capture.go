package gio

// Opportunistic partition-plan capture: building the cut table (see
// Partitions) normally costs one dedicated side scan through a separate file
// handle. But any full sequential scan already decodes every record in scan
// order, which is all the planning scan does — so ForEachBatchCtx (and every
// wrapper over it) observes its own record stream while no plan is cached
// and leaves the plan behind as a side effect. The first full scan of a file
// thus plans its partitions for free, and the parallel executor
// (internal/exec) runs that scan on this engine before going parallel: one
// physical pass instead of a planning pass plus a scan.

// HasPartitionPlan reports whether the partition cut table is already cached,
// i.e. whether Partitions can answer without a planning side scan.
func (g *File) HasPartitionPlan() bool {
	g.plan.mu.Lock()
	defer g.plan.mu.Unlock()
	return g.plan.cuts != nil
}

// PlanCaptureViable reports whether an opportunistic capture could still
// install a plan: no plan cached yet, no cached planning failure, and no
// previously failed capture. Callers that would otherwise schedule a
// planning side scan (the executor's cold start) consult this to decide
// between capturing and planning.
func (g *File) PlanCaptureViable() bool {
	g.plan.mu.Lock()
	defer g.plan.mu.Unlock()
	return g.plan.cuts == nil && g.plan.cutsErr == nil && !g.plan.captureFailed
}

// installCapturedPlan validates a captured cut table against the file and
// caches it. Without a scanner position to cross-check (the capture rides an
// arbitrary consumer's scan), validation compares the computed end offset to
// the file's payload end (the footer start on footered files, the file size
// otherwise). That check is exact, not merely aggregate: encodedSize
// recomputes minimal encodings, so a computed record size can only
// undershoot its on-disk length, drift is monotone non-decreasing along the
// scan, and a matching total therefore implies every interior cut point is
// correct. Trailing bytes after the last record fail the check; the capture
// is then abandoned for the file's lifetime and planning falls back to
// Partitions' self-checking side scan. When concurrent views both capture
// (each completed a full scan before either installed), the first install
// wins; the captures are identical by construction.
func (g *File) installCapturedPlan(cb *cutBuilder) {
	g.plan.mu.Lock()
	defer g.plan.mu.Unlock()
	if g.plan.cuts != nil || g.plan.cutsErr != nil || g.plan.captureFailed {
		return
	}
	if cb.read != g.records || cb.off != g.payloadEnd {
		g.plan.captureFailed = true
		return
	}
	g.plan.cuts = cb.table()
}
