// Package dynamic maintains an independent set under edge insertions and
// deletions — the extension the paper's conclusion names as future work
// ("how our solutions can be extended to the incremental massive graphs
// with frequent updates").
//
// The design keeps the semi-external discipline: the base graph stays on
// disk and is never randomly accessed. Updates accumulate in memory as a
// delta (added edges and tombstones over base edges). Two invariants:
//
//  1. The maintained set is independent with respect to the *current*
//     graph after every single update. Inserting an edge inside the set
//     evicts one endpoint immediately — no file access needed.
//  2. Maximality is restored lazily: evictions and deletions mark the
//     maintainer dirty, and RepairCtx re-establishes maximality with one
//     sequential scan, amortizing file I/O over many updates — the same
//     lazy ethos as the paper's greedy algorithm.
//
// MaterializeCtx writes the effective graph (base ∖ tombstones ∪ delta) to a
// fresh adjacency file so the full swap pipeline can re-optimize when the
// delta has grown large.
package dynamic

import (
	"context"
	"fmt"
	"os"

	"repro/internal/gio"
)

// Maintainer holds an independent set over a base graph file plus an
// in-memory edge delta. Not safe for concurrent use.
type Maintainer struct {
	f     *gio.File
	n     int
	inSet []bool
	size  int

	addedAdj  map[uint32][]uint32 // symmetric adjacency of inserted edges
	added     map[uint64]struct{} // inserted edges by packed key
	tombstone map[uint64]struct{} // deleted (possibly base) edges
	dirty     bool                // maximality may be violated
	evictions int
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// New creates a maintainer over f starting from the independent set
// initial. The initial set is trusted; call Verify to check it against the
// file.
func New(f *gio.File, initial []bool) (*Maintainer, error) {
	if len(initial) != f.NumVertices() {
		return nil, fmt.Errorf("dynamic: initial set has %d entries for %d vertices",
			len(initial), f.NumVertices())
	}
	m := &Maintainer{
		f:         f,
		n:         f.NumVertices(),
		inSet:     append([]bool(nil), initial...),
		addedAdj:  make(map[uint32][]uint32),
		added:     make(map[uint64]struct{}),
		tombstone: make(map[uint64]struct{}),
	}
	for _, in := range initial {
		if in {
			m.size++
		}
	}
	return m, nil
}

// Size returns the current set size.
func (m *Maintainer) Size() int { return m.size }

// Contains reports set membership.
func (m *Maintainer) Contains(v uint32) bool {
	return int(v) < m.n && m.inSet[v]
}

// Set returns a copy of the membership slice.
func (m *Maintainer) Set() []bool { return append([]bool(nil), m.inSet...) }

// Dirty reports whether maximality may currently be violated (Repair will
// restore it).
func (m *Maintainer) Dirty() bool { return m.dirty }

// Snapshot returns an independent deep copy of the maintainer, for reading
// a frozen delta while the original keeps taking updates — the online
// compaction materializes the fold from a snapshot. The copy scans through
// its own view of the base file (gio.File.WithCounters), so a snapshot scan
// and a concurrent Repair or Verify on the original never race on the
// file's scan state; the shared descriptor is read positionally.
func (m *Maintainer) Snapshot() *Maintainer {
	c := &Maintainer{
		f:         m.f.WithCounters(m.f.Stats()),
		n:         m.n,
		inSet:     append([]bool(nil), m.inSet...),
		size:      m.size,
		addedAdj:  make(map[uint32][]uint32, len(m.addedAdj)),
		added:     make(map[uint64]struct{}, len(m.added)),
		tombstone: make(map[uint64]struct{}, len(m.tombstone)),
		dirty:     m.dirty,
		evictions: m.evictions,
	}
	for u, ns := range m.addedAdj {
		c.addedAdj[u] = append([]uint32(nil), ns...)
	}
	for k := range m.added {
		c.added[k] = struct{}{}
	}
	for k := range m.tombstone {
		c.tombstone[k] = struct{}{}
	}
	return c
}

// Evictions returns how many set vertices were evicted by edge insertions.
func (m *Maintainer) Evictions() int { return m.evictions }

// DeltaEdges returns the number of in-memory delta entries (inserted edges
// plus tombstones) — the maintainer's memory driver.
func (m *Maintainer) DeltaEdges() int { return len(m.added) + len(m.tombstone) }

// InsertEdge adds the undirected edge {u, v} to the graph. If both
// endpoints are in the set, the higher-ID endpoint is evicted immediately,
// keeping invariant 1 with no file access. Self-loops are rejected.
func (m *Maintainer) InsertEdge(u, v uint32) error {
	if err := m.checkIDs(u, v); err != nil {
		return err
	}
	key := edgeKey(u, v)
	if _, dead := m.tombstone[key]; dead {
		// Re-inserting a deleted base edge: drop the tombstone. The edge
		// may or may not exist in the base; recording it in the delta too
		// is harmless (the effective graph is a set union).
		delete(m.tombstone, key)
	}
	if _, ok := m.added[key]; !ok {
		m.added[key] = struct{}{}
		m.addedAdj[u] = append(m.addedAdj[u], v)
		m.addedAdj[v] = append(m.addedAdj[v], u)
	}
	if m.inSet[u] && m.inSet[v] {
		evict := u
		if v > u {
			evict = v
		}
		m.inSet[evict] = false
		m.size--
		m.evictions++
		m.dirty = true // the evictee's other neighbors may now be addable
	}
	return nil
}

// DeleteEdge removes the undirected edge {u, v} from the graph (whether it
// came from the base file or the delta). Deleting an edge can only create
// room for additions, so the set stays independent; maximality is restored
// by Repair.
func (m *Maintainer) DeleteEdge(u, v uint32) error {
	if err := m.checkIDs(u, v); err != nil {
		return err
	}
	key := edgeKey(u, v)
	if _, ok := m.added[key]; ok {
		delete(m.added, key)
		m.addedAdj[u] = removeOne(m.addedAdj[u], v)
		m.addedAdj[v] = removeOne(m.addedAdj[v], u)
	}
	// Tombstone the base edge unconditionally: if the base never had it,
	// the tombstone is inert.
	m.tombstone[key] = struct{}{}
	if !m.inSet[u] || !m.inSet[v] {
		m.dirty = true
	}
	return nil
}

// CheckEdge validates an edge's endpoints (range and self-loop) without
// applying anything — the journal layer validates before it logs, so a
// rejected update is never acknowledged or persisted.
func (m *Maintainer) CheckEdge(u, v uint32) error { return m.checkIDs(u, v) }

// MarkDirty flags maximality as possibly violated. The journal layer uses
// it to carry the dirty flag across a compaction's maintainer swap.
func (m *Maintainer) MarkDirty() { m.dirty = true }

func (m *Maintainer) checkIDs(u, v uint32) error {
	if int(u) >= m.n || int(v) >= m.n {
		return fmt.Errorf("dynamic: edge {%d,%d} out of range for %d vertices", u, v, m.n)
	}
	if u == v {
		return fmt.Errorf("dynamic: self-loop {%d,%d} rejected", u, v)
	}
	return nil
}

func removeOne(s []uint32, x uint32) []uint32 {
	for i, y := range s {
		if y == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// effectiveNeighbors merges a base record with the delta: base neighbors
// minus tombstones, plus inserted edges at u.
func (m *Maintainer) effectiveNeighbors(u uint32, base []uint32, buf []uint32) []uint32 {
	buf = buf[:0]
	for _, nb := range base {
		if _, dead := m.tombstone[edgeKey(u, nb)]; !dead {
			buf = append(buf, nb)
		}
	}
	for _, nb := range m.addedAdj[u] {
		// Inserted edges may duplicate surviving base edges; dedup cheaply.
		dup := false
		for _, have := range buf {
			if have == nb {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, nb)
		}
	}
	return buf
}

// ViolationError reports an independence violation Verify found: the edge
// inside the set and the scan position where it surfaced. It is typed —
// mirroring gio.ScanError for I/O failures — so daemon-style callers can
// distinguish data corruption (errors.As *gio.ScanError) from invariant
// violations (errors.As *ViolationError) without string matching.
type ViolationError struct {
	// U, V are the endpoints of the in-set edge.
	U, V uint32
	// Record is the scan position (records delivered, 1-based) at which the
	// violation surfaced.
	Record uint64
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("dynamic: edge {%d,%d} inside the set (found at scan record %d)", e.U, e.V, e.Record)
}

// RepairCtx restores maximality with one sequential scan: every vertex
// outside the set with no effective IS neighbor joins, in scan order. It
// returns the number of vertices added. Cancellation stops the scan within
// one batch and surfaces as a *gio.ScanError carrying the position; a
// canceled repair leaves the set independent (additions are monotone) but
// still dirty.
func (m *Maintainer) RepairCtx(ctx context.Context) (int, error) {
	addedCount := 0
	var buf []uint32
	err := m.f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
	records:
		for _, r := range batch {
			if m.inSet[r.ID] {
				continue
			}
			buf = m.effectiveNeighbors(r.ID, r.Neighbors, buf)
			for _, nb := range buf {
				if m.inSet[nb] {
					continue records
				}
			}
			m.inSet[r.ID] = true
			m.size++
			addedCount++
		}
		return nil
	})
	if err != nil {
		// The cause is a scan failure (*gio.ScanError for cancellation and
		// positioned I/O errors); %w keeps it reachable through errors.As.
		return addedCount, fmt.Errorf("dynamic: repair: %w", err)
	}
	m.dirty = false
	return addedCount, nil
}

// VerifyCtx checks invariant 1 — the set is independent in the effective
// graph — with one sequential scan plus the in-memory delta. A violation
// surfaces as a *ViolationError; a scan failure, cancellation included (see
// RepairCtx), as the underlying (*gio.ScanError-typed) error.
func (m *Maintainer) VerifyCtx(ctx context.Context) error {
	var buf []uint32
	var scanned uint64
	return m.f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
		for _, r := range batch {
			scanned++
			if !m.inSet[r.ID] {
				continue
			}
			// Inserted edges between vertices whose base records carry no
			// trace of each other are covered too: effectiveNeighbors
			// includes the delta at every record.
			buf = m.effectiveNeighbors(r.ID, r.Neighbors, buf)
			for _, nb := range buf {
				if m.inSet[nb] {
					return &ViolationError{U: r.ID, V: nb, Record: scanned}
				}
			}
		}
		return nil
	})
}

// MaterializeCtx writes the effective graph to path as a degree-sorted
// adjacency file, so the swap pipeline can re-optimize from scratch once
// the delta has grown past the caller's threshold. The file is in Section
// 4.1's order, records and neighbor lists alike ascending by (degree, ID):
// byte for byte what gio.WriteGraphSorted writes for the effective graph.
// It appears at path atomically — written to a temp file, fsynced, then
// renamed — so an error or crash mid-write never leaves a partial file at
// the destination. Cancellation stops the scan within one batch, removes
// the temp file, and leaves the destination untouched.
func (m *Maintainer) MaterializeCtx(ctx context.Context, path string) error {
	// One scan gathers the effective records into flat arrays, in scan
	// order: ids[i]'s neighbors are nbrs[offs[i]:offs[i+1]].
	ids := make([]uint32, 0, m.n)
	offs := make([]int, 1, m.n+1)
	var nbrs, buf []uint32
	rank := make([]uint32, m.n) // effective degrees, then ranks
	err := m.f.ForEachBatchCtx(ctx, func(batch []gio.Record) error {
		for _, r := range batch {
			buf = m.effectiveNeighbors(r.ID, r.Neighbors, buf)
			ids = append(ids, r.ID)
			nbrs = append(nbrs, buf...)
			offs = append(offs, len(nbrs))
			rank[r.ID] = uint32(len(buf))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("dynamic: materialize: %w", err)
	}
	if len(ids) != m.n {
		return fmt.Errorf("dynamic: materialize: base has %d records for %d vertices", len(ids), m.n)
	}
	gio.DegreeRanks(rank)
	slot := make([]int, m.n) // slot[rank] = the record's scan index
	for i, id := range ids {
		slot[rank[id]] = i
	}
	tmp := path + ".tmp"
	w, err := gio.NewWriter(tmp, gio.FlagDegreeSorted, 0, m.f.Stats())
	if err != nil {
		return err
	}
	var keys []uint64
	for _, i := range slot {
		ns := nbrs[offs[i]:offs[i+1]]
		keys = gio.SortByRank(ns, rank, keys)
		if err := w.Append(ids[i], ns); err != nil {
			w.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := gio.CommitFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
