package pipeline

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/gio"
)

// writeTestFile builds a small adjacency file: vertex v is adjacent to v+1.
func writeTestFile(t testing.TB, n int) string {
	return writePipeFile(t, n, false)
}

// writeFooterlessTestFile writes the pre-footer format, for tests of the
// opportunistic plan capture (which footered files never need).
func writeFooterlessTestFile(t testing.TB, n int) string {
	return writePipeFile(t, n, true)
}

func writePipeFile(t testing.TB, n int, footerless bool) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pipe.adj")
	w, err := gio.NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if footerless {
		w.DisableFooter()
	}
	for v := 0; v < n; v++ {
		var nbrs []uint32
		if v > 0 {
			nbrs = append(nbrs, uint32(v-1))
		}
		if v+1 < n {
			nbrs = append(nbrs, uint32(v+1))
		}
		if err := w.Append(uint32(v), nbrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func open(t testing.TB, path string) (*gio.File, *gio.Counters) {
	t.Helper()
	stats := &gio.Counters{}
	f, err := gio.Open(path, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, stats
}

// TestFusionAccounting drives a mutator plus two ReadOnly riders through
// both modes: fused they share one physical scan (three logical), unfused
// they pay three physical scans — and both modes deliver every record to
// every pass in declared order.
func TestFusionAccounting(t *testing.T) {
	const n = 500
	path := writeTestFile(t, n)
	for _, unfused := range []bool{false, true} {
		f, stats := open(t, path)
		var order []string
		counts := map[string]int{}
		pass := func(name string, ro, mut bool) Pass {
			return Pass{
				Name: name, ReadOnly: ro, MutatesStates: mut,
				Batch: func(batch []gio.Record) error {
					if counts[name] == 0 {
						order = append(order, name)
					}
					counts[name] += len(batch)
					return nil
				},
			}
		}
		s := New(f, Options{Unfused: unfused})
		s.Add(pass("mark", false, true))
		s.Add(pass("stats-a", true, false))
		s.Add(pass("stats-b", true, false))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mark", "stats-a", "stats-b"} {
			if counts[name] != n {
				t.Fatalf("unfused=%v: pass %s saw %d records, want %d", unfused, name, counts[name], n)
			}
		}
		if len(order) != 3 || order[0] != "mark" || order[1] != "stats-a" || order[2] != "stats-b" {
			t.Fatalf("unfused=%v: first-batch order %v", unfused, order)
		}
		if stats.Snapshot().Scans != 3 {
			t.Fatalf("unfused=%v: logical scans = %d, want 3", unfused, stats.Snapshot().Scans)
		}
		wantPhys := 1
		if unfused {
			wantPhys = 3
		}
		if stats.Snapshot().PhysicalScans != wantPhys {
			t.Fatalf("unfused=%v: physical scans = %d, want %d", unfused, stats.Snapshot().PhysicalScans, wantPhys)
		}
	}
}

// TestIncompatiblePassesSplit checks that a reader of shared state never
// shares a scan with a mutator (in either order) and that two shared-state
// readers do.
func TestIncompatiblePassesSplit(t *testing.T) {
	mut := Pass{Name: "mut", MutatesStates: true}
	rd1 := Pass{Name: "rd1"}
	rd2 := Pass{Name: "rd2"}
	ro := Pass{Name: "ro", ReadOnly: true}

	for _, tc := range []struct {
		name   string
		passes []Pass
		want   int // physical scans
	}{
		{"mut-then-reader", []Pass{mut, rd1}, 2},
		{"reader-then-mut", []Pass{rd1, mut}, 2},
		{"two-mutators", []Pass{mut, {Name: "mut2", MutatesStates: true}}, 2},
		{"two-readers", []Pass{rd1, rd2}, 1},
		{"mut-ro-reader", []Pass{mut, ro, rd1}, 2}, // ro fuses with mut; rd1 cannot
		{"exempted", []Pass{mut, {Name: "deferred", FuseAfter: "mut"}}, 1},
		{"exemption-wrong-target", []Pass{rd1, {Name: "deferred", MutatesStates: true, FuseAfter: "mut"}}, 2},
		// A deferred writer closes its group to everything but inert passes:
		// a later reader would see pre-apply state fused, post-apply unfused.
		{"deferred-writer-then-reader", []Pass{{Name: "dw", DeferredWrites: true}, rd2}, 2},
		{"fused-deferred-writer-then-reader", []Pass{mut, {Name: "dw", DeferredWrites: true, FuseAfter: "mut"}, rd2}, 2},
		{"deferred-writer-then-ro", []Pass{{Name: "dw", DeferredWrites: true}, ro}, 1},
		// The cross-round edge: a Consumes pass joins the scan of the pass
		// producing its product, despite the producer's mutations.
		{"carried-joins-producer", []Pass{
			{Name: "post", MutatesStates: true, Produces: "states"},
			{Name: "carry", Consumes: "states"},
		}, 1},
		// Without a matching producer in the group, a consumer gets no
		// exemption against a mutator.
		{"carried-wrong-product", []Pass{
			{Name: "post", MutatesStates: true, Produces: "states"},
			{Name: "carry", Consumes: "other"},
		}, 2},
		// A consumer that itself mutates shared state forfeits the
		// exemption — its in-scan writes were never vouched for.
		{"carried-mutator-forfeits", []Pass{
			{Name: "post", MutatesStates: true, Produces: "states"},
			{Name: "carry", MutatesStates: true, Consumes: "states"},
		}, 2},
		// A consumer is a deferred writer toward later passes: its resolve
		// mutates shared state after the scan, so a later shared-state pass
		// fused behind it would observe pre-resolve state.
		{"carried-closes-group", []Pass{
			{Name: "post", MutatesStates: true, Produces: "states"},
			{Name: "carry", Consumes: "states"},
			rd1,
		}, 2},
		{"carried-then-ro", []Pass{
			{Name: "post", MutatesStates: true, Produces: "states"},
			{Name: "carry", Consumes: "states"},
			ro,
		}, 1},
	} {
		groups := PlanFusion(tc.passes, false)
		if len(groups) != tc.want {
			t.Errorf("%s: %d physical scans, want %d", tc.name, len(groups), tc.want)
		}
		total := 0
		for _, g := range groups {
			total += len(g)
		}
		if total != len(tc.passes) {
			t.Errorf("%s: plan dropped or duplicated passes: %d of %d", tc.name, total, len(tc.passes))
		}
	}
}

// TestCarriedAccounting drives the cross-round edge end to end: the carried
// pass rides its producer's physical scan without counting a logical scan
// of its own, sees every record after the producer's callback, and its
// logical scan is accounted only when ResolveCarried runs — as a carried,
// physical-scan-free resolution.
func TestCarriedAccounting(t *testing.T) {
	const n = 500
	path := writeTestFile(t, n)
	f, stats := open(t, path)

	collected := 0
	s := New(f, Options{})
	s.Add(Pass{
		Name:          "post",
		Produces:      "states",
		MutatesStates: true,
		Batch:         func(batch []gio.Record) error { return nil },
	})
	s.Add(Pass{
		Name:           "carry",
		Consumes:       "states",
		DeferredWrites: true,
		Batch:          func(batch []gio.Record) error { collected += len(batch); return nil },
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if collected != n {
		t.Fatalf("carried pass collected %d of %d records", collected, n)
	}
	// The scan counts once logically (the producer), once physically; the
	// carried pass has not been accounted yet.
	if stats.Snapshot().Scans != 1 || stats.Snapshot().PhysicalScans != 1 || stats.Snapshot().CarriedScans != 0 {
		t.Fatalf("after collection: %+v, want scans=1 physical=1 carried=0", stats.Snapshot())
	}
	ResolveCarried(f)
	if stats.Snapshot().Scans != 2 || stats.Snapshot().PhysicalScans != 1 || stats.Snapshot().CarriedScans != 1 {
		t.Fatalf("after resolve: %+v, want scans=2 physical=1 carried=1", stats.Snapshot())
	}
}

// TestBatchErrorAborts: an error from a fused pass stops the scan at that
// batch; later passes in the group never see the failing batch's successors
// and Done hooks do not run.
func TestBatchErrorAborts(t *testing.T) {
	path := writeTestFile(t, 300)
	f, _ := open(t, path)
	sentinel := errors.New("boom")
	doneRan := false
	seenAfter := 0
	s := New(f, Options{})
	s.Add(Pass{
		Name: "fails", MutatesStates: true,
		Batch: func(batch []gio.Record) error { return sentinel },
		Done:  func() error { doneRan = true; return nil },
	})
	s.Add(Pass{
		Name: "rider", ReadOnly: true,
		Batch: func(batch []gio.Record) error { seenAfter += len(batch); return nil },
	})
	if err := s.Run(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if doneRan {
		t.Fatal("Done ran after a Batch error")
	}
	if seenAfter != 0 {
		t.Fatalf("rider saw %d records from the aborted batch onwards", seenAfter)
	}
}

// TestErrStopScan: a lone pass opting out aborts the physical scan (which
// then counts nothing, like any abandoned scan) while its Done still runs; a
// fused partner that has not opted out keeps the scan alive and sees every
// record.
func TestErrStopScan(t *testing.T) {
	const n = 2000
	path := writeTestFile(t, n)

	f, stats := open(t, path)
	doneRan := false
	seen := 0
	s := New(f, Options{})
	s.Add(Pass{
		Name:  "stopper",
		Batch: func(b []gio.Record) error { seen += len(b); return ErrStopScan },
		Done:  func() error { doneRan = true; return nil },
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !doneRan {
		t.Fatal("Done did not run after ErrStopScan")
	}
	if seen == 0 || seen >= n {
		t.Fatalf("lone stopping pass saw %d of %d records, want one batch", seen, n)
	}
	if stats.Snapshot().Scans != 0 || stats.Snapshot().PhysicalScans != 0 {
		t.Fatalf("aborted scan was counted: %+v", stats.Snapshot())
	}

	f2, stats2 := open(t, path)
	total := 0
	s2 := New(f2, Options{})
	s2.Add(Pass{Name: "stop-early", Batch: func(b []gio.Record) error { return ErrStopScan }})
	s2.Add(Pass{Name: "full", Batch: func(b []gio.Record) error { total += len(b); return nil }})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("partner pass saw %d of %d records", total, n)
	}
	if snap := stats2.Snapshot(); snap.Scans != 2 || snap.PhysicalScans != 1 {
		t.Fatalf("fused scan accounting: %+v", snap)
	}
}

// TestDoneOrderAndError: Done hooks run in declaration order and the first
// error stops the run verbatim.
func TestDoneOrderAndError(t *testing.T) {
	path := writeTestFile(t, 10)
	f, _ := open(t, path)
	wantErr := errors.New("first verdict")
	var ran []string
	s := New(f, Options{})
	s.Add(Pass{Name: "a", Batch: func([]gio.Record) error { return nil },
		Done: func() error { ran = append(ran, "a"); return wantErr }})
	s.Add(Pass{Name: "b", Batch: func([]gio.Record) error { return nil },
		Done: func() error { ran = append(ran, "b"); return nil }})
	if err := s.Run(); err != wantErr {
		t.Fatalf("err = %v, want the first Done's error verbatim", err)
	}
	if len(ran) != 1 || ran[0] != "a" {
		t.Fatalf("Done order = %v", ran)
	}
}

// TestSchedulerCapturesPlan: on a footerless file (written by a pre-footer
// tool), the scheduler's first physical scan doubles as the
// partition-planning scan. Footered files skip capture entirely — their plan
// loads at Open.
func TestSchedulerCapturesPlan(t *testing.T) {
	path := writeFooterlessTestFile(t, 2000)
	f, _ := open(t, path)
	if f.HasPartitionPlan() {
		t.Fatal("fresh file already has a plan")
	}
	s := New(f, Options{})
	s.Add(Pass{Name: "noop", ReadOnly: true, Batch: func([]gio.Record) error { return nil }})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.HasPartitionPlan() {
		t.Fatal("scheduler scan did not capture the partition plan")
	}
}

// FuzzPlanFusion feeds the planner random pass sets with random access
// flags — including the cross-round Produces/Consumes edges — and
// independently re-checks every planned group: no group may pair a
// shared-state mutator with any other shared-state-touching pass unless the
// latter declared the former in FuseAfter or consumes its product; a
// consumer (like a declared deferred writer) closes its group to later
// shared-state passes; order and pass multiset must be preserved; unfused
// plans must be singletons.
func FuzzPlanFusion(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04}, false)
	f.Add([]byte{0x13, 0x05, 0x22, 0x01}, true)
	f.Add([]byte{0xff, 0xfe, 0x80, 0x41, 0x07, 0x09}, false)
	// A producer followed by its consumer, and a consumer of a product
	// nobody in the group produces.
	f.Add([]byte{0x22, 0x40, 0x60, 0xc0}, false)
	f.Fuzz(func(t *testing.T, raw []byte, unfused bool) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		passes := make([]Pass, len(raw))
		for i, b := range raw {
			passes[i] = Pass{
				Name:           fmt.Sprintf("p%d", i),
				ReadOnly:       b&1 != 0,
				MutatesStates:  b&2 != 0,
				DeferredWrites: b&16 != 0,
			}
			// A slice of the byte picks an earlier pass as a FuseAfter
			// target (sometimes a nonexistent or later name, which must not
			// grant an exemption).
			if b&8 != 0 {
				passes[i].FuseAfter = fmt.Sprintf("p%d", int(b>>4))
			}
			// Cross-round edges from the top bits: two product names, so
			// matching and mismatching producer/consumer chains, duplicate
			// producers and stranded consumers all occur.
			if b&32 != 0 {
				passes[i].Produces = fmt.Sprintf("prod%d", int(b>>6)&1)
			}
			if b&64 != 0 {
				passes[i].Consumes = fmt.Sprintf("prod%d", int(b>>7)&1)
			}
		}
		groups := PlanFusion(passes, unfused)

		// Re-derive the safety predicate from scratch (not via Fusable). A
		// pass with contradictory flags (ReadOnly and MutatesStates) must be
		// handled as a mutator that also touches shared state; a consumer is
		// a deferred writer whether or not it also declared it.
		touches := func(p Pass) bool { return !p.ReadOnly || p.MutatesStates }
		defers := func(p Pass) bool { return p.DeferredWrites || p.Consumes != "" }
		idx := 0
		for _, g := range groups {
			if unfused && len(g) != 1 {
				t.Fatalf("unfused plan has a fused group of %d", len(g))
			}
			for i, p := range g {
				if want := passes[idx]; p.Name != want.Name {
					t.Fatalf("plan reordered passes: got %s at position %d, want %s", p.Name, idx, want.Name)
				}
				idx++
				for j := 0; j < i; j++ {
					q := g[j] // q precedes p in the shared scan
					exempt := (p.FuseAfter != "" && p.FuseAfter == q.Name) ||
						(p.Consumes != "" && p.Consumes == q.Produces)
					if exempt {
						// An exemption waives q's in-scan and deferred writes
						// as observed by p — but never p's own mutations
						// against q's reads.
						if p.MutatesStates && touches(q) {
							t.Fatalf("exemption let mutator %s into reader %s's scan", p.Name, q.Name)
						}
						continue
					}
					if defers(q) && touches(p) {
						t.Fatalf("fused deferred writer %s with later shared-state pass %s", q.Name, p.Name)
					}
					if q.MutatesStates && touches(p) {
						t.Fatalf("fused mutator %s with shared-state pass %s", q.Name, p.Name)
					}
					if p.MutatesStates && touches(q) {
						t.Fatalf("fused shared-state pass %s with later mutator %s", q.Name, p.Name)
					}
				}
			}
		}
		if idx != len(passes) {
			t.Fatalf("plan covers %d of %d passes", idx, len(passes))
		}
	})
}
