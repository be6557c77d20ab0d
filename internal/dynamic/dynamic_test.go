package dynamic

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
)

func openGraph(t *testing.T, g *graph.Graph) *gio.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.adj")
	if err := gio.WriteGraphSorted(path, g, nil); err != nil {
		t.Fatal(err)
	}
	f, err := gio.Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func greedySet(t *testing.T, f *gio.File) []bool {
	t.Helper()
	r, err := core.GreedyCtx(context.Background(), f, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return r.InSet
}

// effectiveGraph reconstructs the maintainer's current graph in memory as a
// reference for cross-checking.
type effectiveGraph struct {
	n     int
	edges map[uint64]bool
}

func newEffective(g *graph.Graph) *effectiveGraph {
	e := &effectiveGraph{n: g.NumVertices(), edges: map[uint64]bool{}}
	g.Edges(func(u, v uint32) bool {
		e.edges[edgeKey(u, v)] = true
		return true
	})
	return e
}

func (e *effectiveGraph) insert(u, v uint32) { e.edges[edgeKey(u, v)] = true }
func (e *effectiveGraph) remove(u, v uint32) { delete(e.edges, edgeKey(u, v)) }

func (e *effectiveGraph) independent(in []bool) bool {
	for k := range e.edges {
		u, v := uint32(k>>32), uint32(k&0xffffffff)
		if in[u] && in[v] {
			return false
		}
	}
	return true
}

func (e *effectiveGraph) maximal(in []bool) bool {
	blocked := make([]bool, e.n)
	for k := range e.edges {
		u, v := uint32(k>>32), uint32(k&0xffffffff)
		if in[u] {
			blocked[v] = true
		}
		if in[v] {
			blocked[u] = true
		}
	}
	for v := 0; v < e.n; v++ {
		if !in[v] && !blocked[v] {
			return false
		}
	}
	return true
}

func TestInsertEvicts(t *testing.T) {
	g := plrg.Path(4) // 0-1-2-3; greedy set {0, 2} or similar
	f := openGraph(t, g)
	m, err := New(f, greedySet(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Force an intra-set edge.
	var members []uint32
	for v, in := range m.Set() {
		if in {
			members = append(members, uint32(v))
		}
	}
	if len(members) < 2 {
		t.Fatalf("set too small: %v", members)
	}
	before := m.Size()
	if err := m.InsertEdge(members[0], members[1]); err != nil {
		t.Fatal(err)
	}
	if m.Size() != before-1 {
		t.Fatalf("size %d after eviction, want %d", m.Size(), before-1)
	}
	if m.Evictions() != 1 || !m.Dirty() {
		t.Fatal("eviction accounting wrong")
	}
	if err := m.VerifyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestInsertErrors(t *testing.T) {
	f := openGraph(t, plrg.Path(3))
	m, err := New(f, make([]bool, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.InsertEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := m.InsertEdge(0, 99); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := m.DeleteEdge(1, 1); err == nil {
		t.Fatal("self-loop delete accepted")
	}
}

func TestDeleteThenRepairAdds(t *testing.T) {
	// Star: center 0 with 4 leaves; greedy picks the leaves. Delete all
	// center edges → the center becomes addable after Repair.
	g := plrg.Star(4)
	f := openGraph(t, g)
	m, err := New(f, greedySet(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if m.Contains(0) {
		t.Fatal("center should start outside the set")
	}
	for leaf := uint32(1); leaf <= 4; leaf++ {
		if err := m.DeleteEdge(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Dirty() {
		t.Fatal("deletions must mark dirty")
	}
	added, err := m.RepairCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || !m.Contains(0) {
		t.Fatalf("repair added %d (contains0=%v), want the center", added, m.Contains(0))
	}
	if err := m.VerifyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestReinsertDeletedEdge(t *testing.T) {
	f := openGraph(t, plrg.Path(3)) // 0-1-2
	m, err := New(f, greedySet(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RepairCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 0-1-2 path restored: a maximal independent set has ≤ 2 vertices and
	// never both ends of an edge.
	if m.Size() > 2 {
		t.Fatalf("size %d impossible on a 3-path", m.Size())
	}
}

func TestRandomUpdateStream(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := plrg.ErdosRenyi(60, 120, seed)
		f := openGraph(t, base)
		m, err := New(f, greedySet(t, f))
		if err != nil {
			t.Fatal(err)
		}
		ref := newEffective(base)
		for step := 0; step < 300; step++ {
			u := uint32(rng.Intn(60))
			v := uint32(rng.Intn(60))
			if u == v {
				continue
			}
			if rng.Intn(2) == 0 {
				if err := m.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ref.insert(u, v)
			} else {
				if err := m.DeleteEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ref.remove(u, v)
			}
			// Invariant 1 holds after every update.
			if !ref.independent(m.Set()) {
				t.Fatalf("seed %d step %d: set not independent", seed, step)
			}
			if step%50 == 49 {
				if _, err := m.RepairCtx(context.Background()); err != nil {
					t.Fatal(err)
				}
				if !ref.independent(m.Set()) {
					t.Fatalf("seed %d step %d: not independent after repair", seed, step)
				}
				if !ref.maximal(m.Set()) {
					t.Fatalf("seed %d step %d: not maximal after repair", seed, step)
				}
				if err := m.VerifyCtx(context.Background()); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
	}
}

func TestMaterializeMatchesEffective(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := plrg.ErdosRenyi(50, 100, 7)
	f := openGraph(t, base)
	m, err := New(f, greedySet(t, f))
	if err != nil {
		t.Fatal(err)
	}
	ref := newEffective(base)
	for step := 0; step < 120; step++ {
		u := uint32(rng.Intn(50))
		v := uint32(rng.Intn(50))
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			m.InsertEdge(u, v)
			ref.insert(u, v)
		} else {
			m.DeleteEdge(u, v)
			ref.remove(u, v)
		}
	}
	path := filepath.Join(t.TempDir(), "mat.adj")
	if err := m.MaterializeCtx(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	got, err := gio.LoadGraph(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != len(ref.edges) {
		t.Fatalf("materialized %d edges, want %d", got.NumEdges(), len(ref.edges))
	}
	for k := range ref.edges {
		u, v := uint32(k>>32), uint32(k&0xffffffff)
		if !got.HasEdge(u, v) {
			t.Fatalf("edge {%d,%d} missing after materialize", u, v)
		}
	}
	// Records and neighbor lists are in Section 4.1's (degree, ID) order:
	// the file is exactly the sorted writer's output for the effective graph.
	b := graph.NewBuilder(ref.n)
	for k := range ref.edges {
		b.AddEdge(uint32(k>>32), uint32(k&0xffffffff))
	}
	refPath := filepath.Join(t.TempDir(), "ref.adj")
	if err := gio.WriteGraphSorted(refPath, b.Build(), nil); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("materialized file (%d bytes) differs from gio.WriteGraphSorted of the effective graph (%d bytes)",
			len(gotBytes), len(wantBytes))
	}
	// The materialized file feeds the full pipeline.
	mf, err := gio.Open(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	r, err := core.GreedyCtx(context.Background(), mf, core.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyIndependentCtx(context.Background(), mf, r.InSet, core.Hooks{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaAccounting(t *testing.T) {
	f := openGraph(t, plrg.Path(10))
	m, err := New(f, make([]bool, 10))
	if err != nil {
		t.Fatal(err)
	}
	m.InsertEdge(0, 5)
	m.InsertEdge(0, 5) // duplicate: no growth
	if m.DeltaEdges() != 1 {
		t.Fatalf("delta = %d, want 1", m.DeltaEdges())
	}
	m.DeleteEdge(0, 5) // removes the added edge, leaves a tombstone
	if m.DeltaEdges() != 1 {
		t.Fatalf("delta = %d after delete, want 1 (tombstone)", m.DeltaEdges())
	}
}

func TestVerifyViolationTyped(t *testing.T) {
	f := openGraph(t, plrg.Path(4)) // 0-1-2-3
	bad := make([]bool, 4)
	bad[1], bad[2] = true, true // edge {1,2} inside the set
	m, err := New(f, bad)
	if err != nil {
		t.Fatal(err)
	}
	err = m.VerifyCtx(context.Background())
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("Verify returned %T (%v), want *ViolationError", err, err)
	}
	lo, hi := ve.U, ve.V
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo != 1 || hi != 2 {
		t.Fatalf("violation edge {%d,%d}, want {1,2}", ve.U, ve.V)
	}
	if ve.Record == 0 || ve.Record > 4 {
		t.Fatalf("violation scan position %d out of range", ve.Record)
	}
	// A violation introduced purely by the delta is typed the same way.
	f2 := openGraph(t, plrg.Path(4))
	m2, err := New(f2, make([]bool, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	m2.inSet[0], m2.inSet[3] = true, true // bypass eviction to fake corruption
	if err := m2.VerifyCtx(context.Background()); !errors.As(err, &ve) {
		t.Fatalf("delta violation: %T (%v), want *ViolationError", err, err)
	}
}

func TestCtxCancelSurfacesScanError(t *testing.T) {
	f := openGraph(t, plrg.ErdosRenyi(200, 400, 1))
	m, err := New(f, make([]bool, 200))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RepairCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RepairCtx: %v, want context.Canceled", err)
	}
	var se *gio.ScanError
	if _, err := m.RepairCtx(ctx); !errors.As(err, &se) {
		t.Fatalf("RepairCtx error %T not a *gio.ScanError", err)
	}
	if err := m.VerifyCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("VerifyCtx: %v, want context.Canceled", err)
	}
	dst := filepath.Join(t.TempDir(), "out.adj")
	if err := m.MaterializeCtx(ctx, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaterializeCtx: %v, want context.Canceled", err)
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("canceled materialize left a file at the destination (err=%v)", err)
	}
	if _, err := os.Stat(dst + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("canceled materialize left a temp file (err=%v)", err)
	}
}

func TestMaterializeAtomicReplace(t *testing.T) {
	// Materialize over an existing destination must leave the old complete
	// file in place until the new one is fully written, and replace it
	// atomically — a failed run never clobbers it.
	f := openGraph(t, plrg.Path(6))
	m, err := New(f, make([]bool, 6))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), "snap.adj")
	if err := m.MaterializeCtx(context.Background(), dst); err != nil {
		t.Fatal(err)
	}
	before, err := gio.LoadGraph(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A canceled rewrite leaves the previous snapshot untouched.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.InsertEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.MaterializeCtx(ctx, dst); err == nil {
		t.Fatal("canceled materialize succeeded")
	}
	after, err := gio.LoadGraph(dst, nil)
	if err != nil {
		t.Fatalf("destination unreadable after failed rewrite: %v", err)
	}
	if after.NumEdges() != before.NumEdges() {
		t.Fatalf("failed rewrite changed the destination: %d edges, had %d", after.NumEdges(), before.NumEdges())
	}
	// And a successful rewrite flips to the new content.
	if err := m.MaterializeCtx(context.Background(), dst); err != nil {
		t.Fatal(err)
	}
	final, err := gio.LoadGraph(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.NumEdges() != before.NumEdges()+1 {
		t.Fatalf("rewrite has %d edges, want %d", final.NumEdges(), before.NumEdges()+1)
	}
}
