// Package core implements the paper's algorithms: the semi-external Greedy
// (Algorithm 1), the one-k-swap (Algorithm 2) and two-k-swap (Algorithms 3
// and 4) improvement procedures, the independence-number upper bound
// (Algorithm 5), and the three competitors evaluated in Section 7 —
// Baseline (Greedy without degree sorting), DynamicUpdate (the classical
// in-memory greedy), and an external maximal-IS baseline in the style of
// Zeh's time-forward processing (the paper's "STXXL" entry).
//
// All semi-external algorithms read the graph only through sequential scans
// of a gio.File and keep O(|V|) bytes of state in memory.
package core

import (
	"repro/internal/gio"
	"repro/internal/semiext"
)

// Result reports an independent set together with the accounting the
// paper's experiments need.
type Result struct {
	// InSet marks membership by vertex ID.
	InSet []bool
	// Size is the number of vertices in the set.
	Size int
	// Rounds is the number of swap rounds executed (swap algorithms only).
	Rounds int
	// RoundGains is the number of net-new IS vertices added per round
	// (Table 8's early-stop measurements). Empty for non-swap algorithms.
	RoundGains []int
	// RoundIO is the I/O performed by each swap round (pre-swap through
	// post-swap, aligned with RoundGains; the setup scan is charged to no
	// round). With cross-round fusion a steady-state round shows one
	// physical scan and one or two carried logical scans — the pre-swap
	// (and, for two-k-swap, swap-validation) work that rode the previous
	// round's post-swap pass. Empty for non-swap algorithms.
	RoundIO []gio.Stats
	// MemoryBytes is the in-memory footprint of the algorithm's auxiliary
	// structures (state array, ISN, SC, queues) at their high-water mark.
	MemoryBytes uint64
	// SCHighWater is the peak number of vertices in SC sets (two-k-swap
	// only; Figure 10).
	SCHighWater int
	// Degrees summarizes the degree sequence, collected by a read-only
	// logical pass fused into Greedy's marking scan — the Table 4 numbers
	// without a dedicated scan. Zero-valued for the other algorithms.
	Degrees DegreeStats
	// IO is the I/O accounting for the run (scans, bytes); zero-valued when
	// the algorithm is in-memory.
	IO gio.Stats
}

// DegreeStats summarizes a file's degree sequence as observed by one scan.
type DegreeStats struct {
	// Max is the largest degree.
	Max uint32
	// Isolated counts zero-degree vertices.
	Isolated int
	// Sum is the directed degree sum, i.e. 2·|E|.
	Sum uint64
}

// Vertices returns the members of the set in ascending ID order.
func (r *Result) Vertices() []uint32 {
	out := make([]uint32, 0, r.Size)
	for v, in := range r.InSet {
		if in {
			out = append(out, uint32(v))
		}
	}
	return out
}

// Clone returns a deep copy (useful when a result seeds a swap algorithm
// that mutates membership).
func (r *Result) Clone() *Result {
	c := *r
	c.InSet = make([]bool, len(r.InSet))
	copy(c.InSet, r.InSet)
	c.RoundGains = append([]int(nil), r.RoundGains...)
	c.RoundIO = append([]gio.Stats(nil), r.RoundIO...)
	return &c
}

func newResult(n int) *Result {
	return &Result{InSet: make([]bool, n)}
}

// collectIS sets the result's membership to the IS members of a state
// array. The swap algorithms call it after their rounds, so InSet is not
// part of their peak footprint.
func (r *Result) collectIS(states semiext.States) {
	r.InSet, r.Size = states.Expand(semiext.StateIS)
}

// setFromMembers builds membership from a vertex list.
func setFromMembers(n int, members []uint32) []bool {
	in := make([]bool, n)
	for _, v := range members {
		in[v] = true
	}
	return in
}

// statsDelta captures the I/O performed between snap and now.
func statsDelta(stats *gio.Counters, snap gio.Stats) gio.Stats {
	if stats == nil {
		return gio.Stats{}
	}
	return stats.Snapshot().Sub(snap)
}

func snapshot(stats *gio.Counters) gio.Stats {
	if stats == nil {
		return gio.Stats{}
	}
	return stats.Snapshot()
}
