package mis_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	mis "repro"
	"repro/internal/gio"
	"repro/internal/wal"
)

// journalOp is one acknowledged update in the oracle's history.
type journalOp struct {
	insert bool
	u, v   uint32
}

func oracleKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// oracleEdges replays the first n acknowledged ops over the base edge set.
func oracleEdges(base map[uint64]bool, ops []journalOp, n int) map[uint64]bool {
	eff := make(map[uint64]bool, len(base))
	for k := range base {
		eff[k] = true
	}
	for _, op := range ops[:n] {
		if op.insert {
			eff[oracleKey(op.u, op.v)] = true
		} else {
			delete(eff, oracleKey(op.u, op.v))
		}
	}
	return eff
}

// buildRandomBase writes a random adjacency file and returns its path and
// edge set.
func buildRandomBase(t *testing.T, dir string, n int, edges int, seed int64) (string, map[uint64]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := mis.NewBuilder(n)
	set := map[uint64]bool{}
	for len(set) < edges {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v || set[oracleKey(u, v)] {
			continue
		}
		set[oracleKey(u, v)] = true
		b.AddEdge(u, v)
	}
	path := filepath.Join(dir, "base.adj")
	if err := b.WriteFile(path, true); err != nil {
		t.Fatal(err)
	}
	return path, set
}

// materializedEdges snapshots a journal's effective graph through
// Materialize and returns its edge set.
func materializedEdges(t *testing.T, j *mis.Journal) map[uint64]bool {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.adj")
	if err := j.Maintainer().Materialize(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	g, err := gio.LoadGraph(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	g.Edges(func(u, v uint32) bool {
		got[oracleKey(u, v)] = true
		return true
	})
	return got
}

func sameEdges(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestJournalEndToEnd(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, baseEdges := buildRandomBase(t, root, 80, 160, 3)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}

	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var ops []journalOp
	for step := 0; step < 200; step++ {
		u, v := uint32(rng.Intn(80)), uint32(rng.Intn(80))
		if u == v {
			continue
		}
		op := journalOp{insert: rng.Intn(2) == 0, u: u, v: v}
		if op.insert {
			err = j.InsertEdge(u, v)
		} else {
			err = j.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if err := j.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Repair(ctx); err != nil {
		t.Fatal(err)
	}
	want := oracleEdges(baseEdges, ops, len(ops))
	if got := materializedEdges(t, j); !sameEdges(got, want) {
		t.Fatalf("effective graph diverged from oracle: %d vs %d edges", len(got), len(want))
	}

	// Rejected updates are not acknowledged and not journaled.
	if err := j.InsertEdge(5, 5); err == nil {
		t.Fatal("self-loop acknowledged")
	}
	if err := j.InsertEdge(0, 1<<20); err == nil {
		t.Fatal("out-of-range acknowledged")
	}

	// Compact: generation flips, effective graph unchanged, set carried.
	sizeBefore := j.Result().Size
	if err := j.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Generation != 2 || st.JournalEdges != 0 || st.DeltaEdges != 0 {
		t.Fatalf("post-compact stats %+v", st)
	}
	if j.Result().Size != sizeBefore {
		t.Fatalf("compact changed the set: %d -> %d", sizeBefore, j.Result().Size)
	}
	if err := j.Verify(ctx); err != nil {
		t.Fatalf("verify after compact: %v", err)
	}
	if got := materializedEdges(t, j); !sameEdges(got, want) {
		t.Fatal("compaction changed the effective graph")
	}

	// More updates on generation 2, then close and recover everything.
	for step := 0; step < 50; step++ {
		u, v := uint32(rng.Intn(80)), uint32(rng.Intn(80))
		if u == v {
			continue
		}
		op := journalOp{insert: rng.Intn(2) == 0, u: u, v: v}
		if op.insert {
			err = j.InsertEdge(u, v)
		} else {
			err = j.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.Verify(ctx); err != nil {
		t.Fatal(err)
	}
	want = oracleEdges(baseEdges, ops, len(ops))
	if got := materializedEdges(t, j2); !sameEdges(got, want) {
		t.Fatal("recovered effective graph diverged from oracle")
	}
}

// TestCrashPointRecovery is the acceptance property: apply K acknowledged
// updates, kill the journal at a random byte offset (the on-disk state a
// crash can leave), recover, and assert the recovered state is a consistent
// acknowledged prefix — never a torn suffix, never a panic — with Verify
// passing over the recovered set.
func TestCrashPointRecovery(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, baseEdges := buildRandomBase(t, root, 60, 120, 11)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	const K = 120
	rng := rand.New(rand.NewSource(17))
	var ops []journalOp
	for len(ops) < K {
		u, v := uint32(rng.Intn(60)), uint32(rng.Intn(60))
		if u == v {
			continue
		}
		op := journalOp{insert: rng.Intn(2) == 0, u: u, v: v}
		if op.insert {
			err = j.InsertEdge(u, v)
		} else {
			err = j.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal-000001.wal")
	whole, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	// Record framing: head checkpoint, then K fixed-size edge records. Used
	// only to predict how many records survive a given cut.
	headLen := len(wal.AppendRecord(nil, wal.Record{Op: wal.OpCheckpoint, Gen: 1}))
	recLen := len(wal.AppendRecord(nil, wal.Record{Op: wal.OpInsert, U: 1, V: 2}))
	if len(whole) != headLen+K*recLen {
		t.Fatalf("journal is %d bytes, want %d head + %d×%d", len(whole), headLen, K, recLen)
	}

	// Crash offsets: every boundary region plus a random spread.
	offsets := []int{0, 1, headLen - 1, headLen, headLen + 1, len(whole) - 1, len(whole)}
	for i := 0; i < 40; i++ {
		offsets = append(offsets, rng.Intn(len(whole)+1))
	}
	for _, off := range offsets {
		t.Run(fmt.Sprintf("cut-%d", off), func(t *testing.T) {
			cdir := filepath.Join(t.TempDir(), "crashed")
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, "MANIFEST"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, "journal-000001.wal"), whole[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			jr, err := mis.OpenJournal(ctx, cdir)
			if err != nil {
				t.Fatalf("recovery at cut %d failed: %v", off, err)
			}
			defer jr.Close()
			// Exactly the acknowledged records wholly below the cut survive.
			wantRecs := 0
			if off >= headLen {
				wantRecs = (off - headLen) / recLen
			}
			st := jr.Stats()
			if int(st.JournalEdges) != wantRecs {
				t.Fatalf("cut %d recovered %d records, want %d", off, st.JournalEdges, wantRecs)
			}
			if st.DurableRecords != st.JournalRecords {
				t.Fatalf("cut %d: recovered journal not fully durable (%d/%d)", off, st.DurableRecords, st.JournalRecords)
			}
			// The recovered effective graph is the oracle's prefix state.
			want := oracleEdges(baseEdges, ops, wantRecs)
			if got := materializedEdges(t, jr); !sameEdges(got, want) {
				t.Fatalf("cut %d: recovered graph diverged from %d-op oracle prefix", off, wantRecs)
			}
			// And the recovered set satisfies the independence invariant.
			if err := jr.Verify(ctx); err != nil {
				t.Fatalf("cut %d: verify after recovery: %v", off, err)
			}
			if jr.Result().Size == 0 {
				t.Fatalf("cut %d: recovery produced an empty set", off)
			}
			// The journal keeps working: one more acknowledged update.
			if err := jr.InsertEdge(0, 1); err != nil {
				t.Fatalf("cut %d: append after recovery: %v", off, err)
			}
		})
	}
}

// TestBitFlipRecovery drives recovery over journals with a flipped byte:
// every outcome must be a clean prefix (flip in the tail record or past the
// clean length) or a typed corruption error — never a panic, never silent
// acceptance of a damaged non-tail record.
func TestBitFlipRecovery(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, _ := buildRandomBase(t, root, 40, 80, 5)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		u, v := uint32(rng.Intn(40)), uint32(rng.Intn(40))
		if u == v {
			continue
		}
		if err := j.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "journal-000001.wal")
	whole, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	flips := []int{8, 9} // head checkpoint payload
	for i := 0; i < 40; i++ {
		flips = append(flips, rng.Intn(len(whole)))
	}
	for _, pos := range flips {
		t.Run(fmt.Sprintf("flip-%d", pos), func(t *testing.T) {
			cdir := filepath.Join(t.TempDir(), "flipped")
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, "MANIFEST"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			damaged := append([]byte(nil), whole...)
			damaged[pos] ^= 1 << uint(rng.Intn(8))
			if err := os.WriteFile(filepath.Join(cdir, "journal-000001.wal"), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			jr, err := mis.OpenJournal(ctx, cdir)
			if err != nil {
				// Damage before the tail: must be typed, not a panic or a
				// stringly error.
				var ce *wal.CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("flip at %d: error %T (%v), want *wal.CorruptError", pos, err, err)
				}
				return
			}
			defer jr.Close()
			// Recovered: whatever survived must verify.
			if err := jr.Verify(ctx); err != nil {
				t.Fatalf("flip at %d: verify: %v", pos, err)
			}
		})
	}
}

// TestJournalGroupCommitDurability exercises SyncEvery > 1: updates are
// acknowledged immediately, become durable in batches, and Sync forces the
// tail out.
func TestJournalGroupCommitDurability(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, _ := buildRandomBase(t, root, 30, 60, 7)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir, mis.SyncEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := uint32(0); i < 5; i++ {
		if err := j.InsertEdge(i, i+6); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.JournalEdges != 5 {
		t.Fatalf("acknowledged %d edges, want 5", st.JournalEdges)
	}
	if st.DurableRecords == st.JournalRecords {
		t.Fatal("expected a volatile tail below the SyncEvery threshold")
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.DurableRecords != st.JournalRecords {
		t.Fatalf("sync left %d/%d durable", st.DurableRecords, st.JournalRecords)
	}
}

// TestJournalCompactCrashRecovery: a compaction that dies mid-flight (fault
// injected at the wal layer is covered in internal/wal; here the crash is
// simulated at the file level by restoring pre-compaction manifest+journal
// alongside the new generation's leftovers) must recover to a fully
// readable state.
func TestJournalStaleJournalAfterCompactCrash(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, baseEdges := buildRandomBase(t, root, 40, 80, 13)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	var ops []journalOp
	for i := uint32(0); i < 10; i++ {
		if err := j.InsertEdge(i, i+11); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, journalOp{insert: true, u: i, v: i + 11})
	}
	// Snapshot the first segment pre-compaction, compact, then put it back:
	// that is the on-disk state of a crash after the manifest flip (which
	// advanced the FoldedSegment watermark past it) but before the folded
	// segment file was removed.
	jpath := filepath.Join(dir, "journal-000001.wal")
	preJournal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, preJournal, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatalf("recovery with stale journal: %v", err)
	}
	defer j2.Close()
	st := j2.Stats()
	if st.Generation != 2 || st.JournalEdges != 0 || st.DeltaEdges != 0 {
		t.Fatalf("stale journal replayed: %+v", st)
	}
	// The folded base already contains the updates — exactly once.
	want := oracleEdges(baseEdges, ops, len(ops))
	if got := materializedEdges(t, j2); !sameEdges(got, want) {
		t.Fatal("post-crash recovery diverged from oracle")
	}
	if err := j2.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestOpenJournalCancel(t *testing.T) {
	root := t.TempDir()
	base, _ := buildRandomBase(t, root, 40, 80, 29)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mis.OpenJournal(ctx, dir); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled open: %v", err)
	}
}

// TestJournalConcurrentScanAndCompact is the online-compaction acceptance
// test: while Compact folds the sealed prefix, InsertEdge keeps
// acknowledging updates and a solver scan started on the pre-compaction
// File() handle finishes cleanly on the old generation. Run under -race.
func TestJournalConcurrentScanAndCompact(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, baseEdges := buildRandomBase(t, root, 1000, 3000, 41)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// Seed the journal with updates confined to vertices < 500, so the
	// concurrent writer's edges (vertices ≥ 500) commute with them and the
	// oracle needs no interleaving order.
	rng := rand.New(rand.NewSource(43))
	var ops []journalOp
	for len(ops) < 100 {
		u, v := uint32(rng.Intn(500)), uint32(rng.Intn(500))
		if u == v {
			continue
		}
		op := journalOp{insert: rng.Intn(2) == 0, u: u, v: v}
		if op.insert {
			err = j.InsertEdge(u, v)
		} else {
			err = j.DeleteEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}

	old := j.File() // generation-1 handle, scanned while Compact flips

	var wg sync.WaitGroup
	scanErr := make(chan error, 1)
	writeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		solver := mis.NewSolver(old)
		r, err := solver.Solve(ctx, mis.AlgGreedy)
		if err == nil {
			err = solver.Verify(ctx, r)
		}
		scanErr <- err
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for u := uint32(500); u < 600; u++ {
			if err := j.InsertEdge(u, u+100); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()

	if err := j.Compact(ctx); err != nil {
		t.Fatalf("compact concurrent with scan+writes: %v", err)
	}
	wg.Wait()
	if err := <-scanErr; err != nil {
		t.Fatalf("old-generation scan during compact: %v", err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("insert during compact: %v", err)
	}

	if st := j.Stats(); st.Generation != 2 || st.Err != nil {
		t.Fatalf("post-compact stats %+v", st)
	}
	if err := j.Verify(ctx); err != nil {
		t.Fatalf("verify after concurrent compact: %v", err)
	}
	// The effective graph is exactly seed ops + writer edges, each once —
	// updates journaled during the fold survived the flip as the suffix.
	for u := uint32(500); u < 600; u++ {
		ops = append(ops, journalOp{insert: true, u: u, v: u + 100})
	}
	want := oracleEdges(baseEdges, ops, len(ops))
	if got := materializedEdges(t, j); !sameEdges(got, want) {
		t.Fatalf("effective graph diverged: %d vs %d edges", len(got), len(want))
	}

	// A handle pinned with AcquireFile survives any number of compactions.
	pinned, release := j.AcquireFile()
	defer release()
	for i := 0; i < 2; i++ {
		if err := j.InsertEdge(700+uint32(i), 900); err != nil {
			t.Fatal(err)
		}
		if err := j.Compact(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mis.NewSolver(pinned).Solve(ctx, mis.AlgGreedy); err != nil {
		t.Fatalf("pinned generation scan after two compactions: %v", err)
	}
}

// TestJournalRotationCrashCuts covers recovery at segment-rotation
// boundaries: with a tiny rotation threshold the journal spans sealed
// segments plus an active one; a crash can only tear the active segment, and
// recovery must replay the sealed segments whole plus the active clean
// prefix.
func TestJournalRotationCrashCuts(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, baseEdges := buildRandomBase(t, root, 60, 120, 47)
	dir := filepath.Join(root, "store")
	// SegmentSize 100: head checkpoint (25B) + five 17B edge records crosses
	// the threshold, so 12 appends land as segments of 5 + 5 + 2.
	opts := []mis.JournalOption{mis.SegmentSize(100)}
	if err := mis.InitJournal(dir, base, opts...); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const K = 12
	var ops []journalOp
	for i := uint32(0); i < K; i++ {
		if err := j.InsertEdge(i, i+13); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, journalOp{insert: true, u: i, v: i + 13})
	}
	if st := j.Stats(); st.Segments != 3 || st.ActiveSegment != 3 {
		t.Fatalf("12 appends at SegmentSize 100 left %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var sealed [][]byte
	for seq := 1; seq <= 2; seq++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("journal-%06d.wal", seq)))
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, data)
	}
	active, err := os.ReadFile(filepath.Join(dir, "journal-000003.wal"))
	if err != nil {
		t.Fatal(err)
	}
	headLen := len(wal.AppendRecord(nil, wal.Record{Op: wal.OpCheckpoint, Gen: 1}))
	recLen := len(wal.AppendRecord(nil, wal.Record{Op: wal.OpInsert, U: 1, V: 2}))
	if len(active) != headLen+2*recLen {
		t.Fatalf("active segment is %d bytes, want %d", len(active), headLen+2*recLen)
	}
	const sealedEdges = 10

	for off := 0; off <= len(active); off++ {
		t.Run(fmt.Sprintf("cut-%d", off), func(t *testing.T) {
			cdir := filepath.Join(t.TempDir(), "crashed")
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, "MANIFEST"), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			for i, data := range sealed {
				name := fmt.Sprintf("journal-%06d.wal", i+1)
				if err := os.WriteFile(filepath.Join(cdir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(cdir, "journal-000003.wal"), active[:off], 0o644); err != nil {
				t.Fatal(err)
			}
			jr, err := mis.OpenJournal(ctx, cdir, opts...)
			if err != nil {
				t.Fatalf("recovery at cut %d: %v", off, err)
			}
			defer jr.Close()
			wantRecs := sealedEdges
			if off >= headLen {
				wantRecs += (off - headLen) / recLen
			}
			st := jr.Stats()
			if int(st.JournalEdges) != wantRecs {
				t.Fatalf("cut %d recovered %d edges, want %d", off, st.JournalEdges, wantRecs)
			}
			want := oracleEdges(baseEdges, ops, wantRecs)
			if got := materializedEdges(t, jr); !sameEdges(got, want) {
				t.Fatalf("cut %d: recovered graph diverged from %d-op oracle prefix", off, wantRecs)
			}
			if err := jr.Verify(ctx); err != nil {
				t.Fatalf("cut %d: verify: %v", off, err)
			}
			if err := jr.InsertEdge(40, 41); err != nil {
				t.Fatalf("cut %d: append after recovery: %v", off, err)
			}
		})
	}
}

// TestJournalCompactReopenFail: a failure opening the freshly materialized
// generation happens before the manifest flip, so it aborts cleanly — no
// split-brain, no poisoning, the journal keeps taking updates on the old
// generation and a later Compact succeeds.
func TestJournalCompactReopenFail(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	base, _ := buildRandomBase(t, root, 40, 80, 53)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := uint32(0); i < 6; i++ {
		if err := j.InsertEdge(i, i+7); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("injected reopen failure")
	restore := mis.SetOpenBaseForTest(func(string, int) (*mis.File, error) { return nil, boom })
	err = j.Compact(ctx)
	restore()
	if !errors.Is(err, boom) {
		t.Fatalf("compact error %v, want injected reopen failure", err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("pre-flip reopen failure poisoned the journal: %v", err)
	}
	st := j.Stats()
	if st.Generation != 1 || st.JournalEdges != 6 {
		t.Fatalf("failed compact moved state: %+v", st)
	}
	if err := j.InsertEdge(20, 21); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	if err := j.Compact(ctx); err != nil {
		t.Fatalf("retry compact: %v", err)
	}
	if st := j.Stats(); st.Generation != 2 || st.JournalEdges != 0 {
		t.Fatalf("retry left %+v", st)
	}
	if err := j.Verify(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCompactFaultMatrix injects a transient I/O failure at every
// wal-layer mutating operation of a Compact and pins the split-brain fix:
// each attempt either succeeds, fails cleanly before the flip (journal still
// live on generation 1), or poisons the journal (ambiguous flip — sticky
// Err, updates rejected); a poisoned store always reopens whole with the
// full acknowledged history.
func TestJournalCompactFaultMatrix(t *testing.T) {
	ctx := context.Background()
	const edges = 6
	setup := func(t *testing.T, ffs *wal.FaultFS) (string, map[uint64]bool, []journalOp, *mis.Journal) {
		t.Helper()
		root := t.TempDir()
		base, baseEdges := buildRandomBase(t, root, 40, 80, 59)
		dir := filepath.Join(root, "store")
		if err := mis.InitJournal(dir, base); err != nil {
			t.Fatal(err)
		}
		var jopts []mis.JournalOption
		if ffs != nil {
			jopts = append(jopts, mis.JournalFSForTest(ffs))
		}
		j, err := mis.OpenJournal(ctx, dir, jopts...)
		if err != nil {
			t.Fatal(err)
		}
		var ops []journalOp
		for i := uint32(0); i < edges; i++ {
			if err := j.InsertEdge(i, i+9); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, journalOp{insert: true, u: i, v: i + 9})
		}
		return dir, baseEdges, ops, j
	}

	// Dry run to learn the wal-layer op count of one Compact.
	ffs := wal.NewFaultFS(nil)
	_, _, _, dry := setup(t, ffs)
	before := ffs.Ops()
	if err := dry.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	compactOps := ffs.Ops() - before
	dry.Close()
	if compactOps < 6 {
		t.Fatalf("compact used only %d wal ops — seam not covering it", compactOps)
	}

	poisoned := 0
	for n := 1; n <= compactOps; n++ {
		t.Run(fmt.Sprintf("fail-at-op-%d", n), func(t *testing.T) {
			ffs := wal.NewFaultFS(nil)
			dir, baseEdges, ops, j := setup(t, ffs)
			ffs.Arm(n, wal.FailOp)
			cerr := j.Compact(ctx)
			if !ffs.Fired() {
				t.Fatalf("fault at op %d never fired", n)
			}
			switch {
			case cerr == nil:
				// Failure landed in ignorable cleanup (segment removal);
				// the flip committed and the journal is live on gen 2.
				if err := j.InsertEdge(30, 31); err != nil {
					t.Fatalf("append after tolerated fault: %v", err)
				}
				ops = append(ops, journalOp{insert: true, u: 30, v: 31})
			case j.Err() == nil:
				// Clean pre-flip failure: still generation 1, still live.
				if st := j.Stats(); st.Generation != 1 {
					t.Fatalf("unpoisoned failure on generation %d", st.Generation)
				}
				if err := j.InsertEdge(30, 31); err != nil {
					t.Fatalf("append after clean compact failure: %v", err)
				}
				ops = append(ops, journalOp{insert: true, u: 30, v: 31})
			default:
				// Ambiguous flip: poisoned. No update may be acknowledged.
				poisoned++
				if err := j.InsertEdge(30, 31); err == nil {
					t.Fatal("poisoned journal acknowledged an update")
				}
			}
			j.Close()

			// Reopen with a clean filesystem: whichever generation survived,
			// the full acknowledged history must be there.
			jr, err := mis.OpenJournal(ctx, dir)
			if err != nil {
				t.Fatalf("reopen after fault at op %d: %v", n, err)
			}
			defer jr.Close()
			want := oracleEdges(baseEdges, ops, len(ops))
			if got := materializedEdges(t, jr); !sameEdges(got, want) {
				t.Fatalf("reopened graph diverged after fault at op %d", n)
			}
			if err := jr.Verify(ctx); err != nil {
				t.Fatalf("verify after fault at op %d: %v", n, err)
			}
		})
	}
	if poisoned == 0 {
		t.Fatal("no op index produced an ambiguous-flip poisoning — matrix not covering the flip")
	}
}

func TestJournalSolveOnCompactedGeneration(t *testing.T) {
	// The compacted generation is a first-class degree-sorted adjacency
	// file: the full solver pipeline runs against it.
	ctx := context.Background()
	root := t.TempDir()
	base, _ := buildRandomBase(t, root, 60, 150, 31)
	dir := filepath.Join(root, "store")
	if err := mis.InitJournal(dir, base); err != nil {
		t.Fatal(err)
	}
	j, err := mis.OpenJournal(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 40; i++ {
		u, v := uint32(rng.Intn(60)), uint32(rng.Intn(60))
		if u != v {
			if err := j.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	solver := mis.NewSolver(j.File())
	r, err := solver.Solve(ctx, mis.AlgTwoKSwap)
	if err != nil {
		t.Fatal(err)
	}
	if err := solver.Verify(ctx, r); err != nil {
		t.Fatal(err)
	}
}
