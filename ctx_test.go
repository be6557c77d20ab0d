package mis_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mis "repro"
	"repro/internal/gio"
)

// genFile writes a degree-sorted power-law file with n vertices.
func genFile(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ctx.adj")
	if err := mis.GeneratePowerLawFile(path, n, 2.0, 9, true); err != nil {
		t.Fatal(err)
	}
	return path
}

func openFile(t testing.TB, path string, opts ...mis.OpenOption) *mis.File {
	t.Helper()
	f, err := mis.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCancelMidScan cancels from inside a progress callback and requires the
// scan to stop within one batch, returning the ctx error wrapped with the
// scan position.
func TestCancelMidScan(t *testing.T) {
	path := genFile(t, 60000)
	for _, workers := range []int{1, 4} {
		f := openFile(t, path, mis.WithWorkers(workers))
		ctx, cancel := context.WithCancel(context.Background())
		var afterCancel atomic.Int64
		var canceled atomic.Bool
		solver := mis.NewSolver(f, mis.OnProgress(func(p mis.ScanProgress) {
			if canceled.Load() {
				afterCancel.Add(1)
				return
			}
			if p.Records > 0 && p.Records < p.Total {
				canceled.Store(true)
				cancel()
			}
		}))
		_, err := solver.Solve(ctx, mis.AlgGreedy)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		var se *gio.ScanError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: err %v does not carry a scan position", workers, err)
		}
		if se.Records == 0 || se.Records >= se.Total {
			t.Fatalf("workers=%d: scan position %d of %d, want mid-scan", workers, se.Records, se.Total)
		}
		// "Within one batch": after the canceling callback returned, at most
		// one further batch may have been delivered.
		if n := afterCancel.Load(); n > 1 {
			t.Fatalf("workers=%d: %d batches delivered after cancellation", workers, n)
		}
	}
}

// TestCancelSwapBetweenRounds cancels a swap run from a round callback: the
// run must stop at the next round boundary with the ctx error.
func TestCancelSwapBetweenRounds(t *testing.T) {
	f := openFile(t, genFile(t, 3000))
	seed, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	solver := mis.NewSolver(f, mis.OnRound(func(ev mis.RoundEvent) {
		events++
		cancel()
	}))
	_, err = solver.OneKSwap(ctx, seed)
	if err == nil {
		// The run may legitimately finish if it converged in one round —
		// then no cancellation point followed the event. Require the event
		// itself at least.
		if events == 0 {
			t.Fatal("no round events delivered")
		}
		return
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelNoGoroutineLeak runs canceled scans — sequential and parallel —
// and requires the goroutine count to settle back: neither the prefetcher
// nor the executor's worker pool may leak.
func TestCancelNoGoroutineLeak(t *testing.T) {
	path := genFile(t, 60000)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		for _, workers := range []int{1, 4} {
			f := openFile(t, path, mis.WithWorkers(workers))
			ctx, cancel := context.WithCancel(context.Background())
			solver := mis.NewSolver(f, mis.OnProgress(func(p mis.ScanProgress) { cancel() }))
			if _, err := solver.Solve(ctx, mis.AlgGreedy); err == nil {
				t.Fatal("canceled run succeeded")
			}
			cancel()
			f.Close()
		}
	}
	// Allow the drained workers a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after canceled runs", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentSolvers runs two solvers against one File from separate
// goroutines (the -race CI job makes this a data-race probe) and requires
// both results to equal their sequential reference runs, with the file's
// lifetime totals equal to the sum of both runs' I/O.
func TestConcurrentSolvers(t *testing.T) {
	path := genFile(t, 3000)
	f := openFile(t, path)
	ctx := context.Background()
	ref := mis.NewSolver(f)

	seed, err := ref.Greedy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refOne, err := ref.OneKSwap(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	refTwo, err := ref.TwoKSwap(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}

	f.ResetStats()
	var wg sync.WaitGroup
	results := make([]*mis.Result, 2)
	errs := make([]error, 2)
	run := func(i int, fn func() (*mis.Result, error)) {
		defer wg.Done()
		results[i], errs[i] = fn()
	}
	wg.Add(2)
	go run(0, func() (*mis.Result, error) {
		return mis.NewSolver(f, mis.Workers(2)).OneKSwap(ctx, seed)
	})
	go run(1, func() (*mis.Result, error) {
		return mis.NewSolver(f).TwoKSwap(ctx, seed)
	})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	if results[0].Size != refOne.Size {
		t.Fatalf("concurrent one-k-swap size %d, sequential %d", results[0].Size, refOne.Size)
	}
	if results[1].Size != refTwo.Size {
		t.Fatalf("concurrent two-k-swap size %d, sequential %d", results[1].Size, refTwo.Size)
	}
	for v := range refOne.InSet {
		if results[0].InSet[v] != refOne.InSet[v] {
			t.Fatalf("one-k-swap membership differs at %d", v)
		}
		if results[1].InSet[v] != refTwo.InSet[v] {
			t.Fatalf("two-k-swap membership differs at %d", v)
		}
	}
	// Per-run scopes merge into the file total.
	total := f.Stats()
	wantRecords := results[0].IO.RecordsRead + results[1].IO.RecordsRead
	if total.RecordsRead != wantRecords {
		t.Fatalf("file records = %d, sum of run scopes = %d", total.RecordsRead, wantRecords)
	}
	if total.Scans != results[0].IO.Scans+results[1].IO.Scans {
		t.Fatalf("file scans = %d, sum of run scopes = %d",
			total.Scans, results[0].IO.Scans+results[1].IO.Scans)
	}
}

// TestProgressEvents: the per-scan progress stream is monotone within a scan
// and reaches the file's record count.
func TestProgressEvents(t *testing.T) {
	f := openFile(t, genFile(t, 5000))
	var mu sync.Mutex
	var last, completions uint64
	solver := mis.NewSolver(f, mis.OnProgress(func(p mis.ScanProgress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Total != uint64(f.NumVertices()) {
			t.Errorf("progress total %d, want %d", p.Total, f.NumVertices())
		}
		if p.Records < last && last != p.Total {
			t.Errorf("progress went backwards mid-scan: %d after %d", p.Records, last)
		}
		if p.Records == p.Total {
			completions++
			last = 0
		} else {
			last = p.Records
		}
		if p.Percent() < 0 || p.Percent() > 100 {
			t.Errorf("percent out of range: %f", p.Percent())
		}
	}))
	if _, err := solver.Solve(context.Background(), mis.AlgGreedy); err != nil {
		t.Fatal(err)
	}
	if completions == 0 {
		t.Fatal("no completed-scan progress event")
	}
}

// TestRoundEvents: the OnRound stream matches the result's per-round
// accounting.
func TestRoundEvents(t *testing.T) {
	f := openFile(t, genFile(t, 3000))
	seed, err := mis.NewSolver(f).Greedy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var events []mis.RoundEvent
	solver := mis.NewSolver(f, mis.OnRound(func(ev mis.RoundEvent) { events = append(events, ev) }))
	r, err := solver.OneKSwap(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != r.Rounds {
		t.Fatalf("%d round events for %d rounds", len(events), r.Rounds)
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d", i, ev.Round)
		}
		if ev.Gain != r.RoundGains[i] {
			t.Fatalf("round %d: event gain %d, result gain %d", ev.Round, ev.Gain, r.RoundGains[i])
		}
		if ev.IO != r.RoundIO[i] {
			t.Fatalf("round %d: event IO %+v, result IO %+v", ev.Round, ev.IO, r.RoundIO[i])
		}
	}
}

// TestBaselineOnSortedGuard: Solve(AlgBaseline) on a degree-sorted file is a
// descriptive error; the explicit opt-in and unsorted files work.
func TestBaselineOnSortedGuard(t *testing.T) {
	sorted := openFile(t, genFile(t, 500))
	ctx := context.Background()
	if _, err := mis.NewSolver(sorted).Solve(ctx, mis.AlgBaseline); !errors.Is(err, mis.ErrBaselineOnSorted) {
		t.Fatalf("err = %v, want ErrBaselineOnSorted", err)
	}
	if _, err := mis.NewSolver(sorted, mis.BaselineOnSorted()).Solve(ctx, mis.AlgBaseline); err != nil {
		t.Fatalf("opt-in failed: %v", err)
	}

	unsortedPath := filepath.Join(t.TempDir(), "unsorted.adj")
	if err := mis.GeneratePowerLawFile(unsortedPath, 500, 2.0, 9, false); err != nil {
		t.Fatal(err)
	}
	unsorted := openFile(t, unsortedPath)
	if _, err := mis.NewSolver(unsorted).Solve(ctx, mis.AlgBaseline); err != nil {
		t.Fatalf("baseline on unsorted file: %v", err)
	}
}

// TestCancelEveryEntryPoint runs every entry point that scans — each
// Solver call form, Solve for every algorithm included, and the
// Maintainer's three scans — with a canceled context and with an expired
// deadline, at 1 and 4 workers. Each must fail with the context's error
// before reading a single record.
func TestCancelEveryEntryPoint(t *testing.T) {
	path := genFile(t, 2000)
	ref := openFile(t, path)
	bg := context.Background()
	refSolver := mis.NewSolver(ref)
	seed, err := refSolver.Greedy(bg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := refSolver.ColorByIS(bg, 0)
	if err != nil {
		t.Fatal(err)
	}
	matPath := filepath.Join(t.TempDir(), "mat.adj")

	// The calls run against s and m, which the loop below sets afresh for
	// every run.
	var s *mis.Solver
	var m *mis.Maintainer
	errOf := func(_ any, err error) error { return err }
	calls := map[string]func(context.Context) error{
		"Greedy":            func(ctx context.Context) error { return errOf(s.Greedy(ctx)) },
		"OneKSwap":          func(ctx context.Context) error { return errOf(s.OneKSwap(ctx, seed)) },
		"TwoKSwap":          func(ctx context.Context) error { return errOf(s.TwoKSwap(ctx, seed)) },
		"DynamicUpdate":     func(ctx context.Context) error { return errOf(s.DynamicUpdate(ctx)) },
		"ExternalMaximal":   func(ctx context.Context) error { return errOf(s.ExternalMaximal(ctx)) },
		"RandomizedMaximal": func(ctx context.Context) error { return errOf(s.RandomizedMaximal(ctx, 7)) },
		"UpperBound":        func(ctx context.Context) error { return errOf(s.UpperBound(ctx)) },
		"WeiBound":          func(ctx context.Context) error { return errOf(s.WeiBound(ctx)) },
		"Verify":            func(ctx context.Context) error { return s.Verify(ctx, seed) },
		"VerifyIndependent": func(ctx context.Context) error { return s.VerifyIndependent(ctx, seed) },
		"VerifyMaximal":     func(ctx context.Context) error { return s.VerifyMaximal(ctx, seed) },
		"VerifyVertexCover": func(ctx context.Context) error { return s.VerifyVertexCover(ctx, seed.VertexCover()) },
		"ColorByIS":         func(ctx context.Context) error { return errOf(s.ColorByIS(ctx, 0)) },
		"VerifyColoring":    func(ctx context.Context) error { return s.VerifyColoring(ctx, col) },
		// The Maintainer scans its file sequentially whatever the solver's
		// worker count; its rows run at both counts all the same.
		"Maintainer.Repair":      func(ctx context.Context) error { return errOf(m.Repair(ctx)) },
		"Maintainer.Verify":      func(ctx context.Context) error { return m.Verify(ctx) },
		"Maintainer.Materialize": func(ctx context.Context) error { return m.Materialize(ctx, matPath) },
	}
	for _, alg := range mis.Algorithms() {
		calls["Solve/"+string(alg)] = func(ctx context.Context) error { return errOf(s.Solve(ctx, alg)) }
	}
	if len(calls) != 23 {
		t.Fatalf("%d entry points in the table, want 23", len(calls))
	}

	canceled, cancel := context.WithCancel(bg)
	cancel()
	expired, cancelExpired := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancelExpired()
	ctxs := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	}
	for name, fn := range calls {
		for _, c := range ctxs {
			for _, workers := range []int{1, 4} {
				f := openFile(t, path)
				if m, err = mis.NewMaintainer(f, seed); err != nil {
					t.Fatal(err)
				}
				// BaselineOnSorted lets Solve(baseline) reach its scan on the
				// degree-sorted file.
				s = mis.NewSolver(f, mis.Workers(workers), mis.BaselineOnSorted())
				if err := fn(c.ctx); !errors.Is(err, c.want) {
					t.Errorf("%s, %s, workers=%d: err = %v, want %v", name, c.name, workers, err, c.want)
				}
				if n := f.Stats().RecordsRead; n != 0 {
					t.Errorf("%s, %s, workers=%d: read %d records", name, c.name, workers, n)
				}
			}
		}
	}
	if _, err := os.Stat(matPath); !os.IsNotExist(err) {
		t.Fatalf("a canceled Materialize left %s behind (stat: %v)", matPath, err)
	}
}

// TestDeadlineBeforeScan: an already-expired context fails without reading
// the file.
func TestDeadlineBeforeScan(t *testing.T) {
	f := openFile(t, genFile(t, 200))
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := mis.NewSolver(f).Greedy(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := f.Stats(); st.RecordsRead != 0 {
		t.Fatalf("expired context still read %d records", st.RecordsRead)
	}
}

// TestCancelExtensions: the routed extension entry points honor contexts
// too.
func TestCancelExtensions(t *testing.T) {
	f := openFile(t, genFile(t, 60000))
	s := mis.NewSolver(f)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RandomizedMaximal(ctx, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("randomized: err = %v", err)
	}
	if _, err := s.WeiBound(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wei bound: err = %v", err)
	}
	if _, err := s.ColorByIS(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("coloring: err = %v", err)
	}
	if err := s.VerifyVertexCover(ctx, make([]bool, f.NumVertices())); !errors.Is(err, context.Canceled) {
		t.Fatalf("verify cover: err = %v", err)
	}
	if _, err := s.DynamicUpdate(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dynamic update: err = %v", err)
	}
	if _, err := s.ExternalMaximal(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("external maximal: err = %v", err)
	}
	if _, err := s.UpperBound(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("upper bound: err = %v", err)
	}
}

// TestExtensionsUseWorkers: the extension entry points route through the
// solver's scan engine — a parallel solver must produce results identical to
// the sequential oracle's.
func TestExtensionsUseWorkers(t *testing.T) {
	f := openFile(t, genFile(t, 3000))
	ctx := context.Background()
	seq := mis.NewSolver(f, mis.Workers(1))
	par := mis.NewSolver(f, mis.Workers(4))

	rs, err := seq.RandomizedMaximal(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := par.RandomizedMaximal(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Size != rp.Size {
		t.Fatalf("randomized: parallel size %d, sequential %d", rp.Size, rs.Size)
	}
	for v := range rs.InSet {
		if rs.InSet[v] != rp.InSet[v] {
			t.Fatalf("randomized: membership differs at %d", v)
		}
	}

	ws, err := seq.WeiBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := par.WeiBound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ws != wp {
		t.Fatalf("wei bound: parallel %f, sequential %f", wp, ws)
	}

	cs, err := seq.ColorByIS(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := par.ColorByIS(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumColors != cp.NumColors {
		t.Fatalf("coloring: parallel %d classes, sequential %d", cp.NumColors, cs.NumColors)
	}
	for v := range cs.Colors {
		if cs.Colors[v] != cp.Colors[v] {
			t.Fatalf("coloring: class differs at %d", v)
		}
	}
	if err := par.VerifyColoring(ctx, cp); err != nil {
		t.Fatal(err)
	}
	if err := par.VerifyVertexCover(ctx, rp.VertexCover()); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicUpdateProgress: the whole-graph load of the in-memory baseline
// is a scheduled scan too — OnProgress observes it.
func TestDynamicUpdateProgress(t *testing.T) {
	f := openFile(t, genFile(t, 5000))
	var events atomic.Int64
	solver := mis.NewSolver(f, mis.OnProgress(func(p mis.ScanProgress) { events.Add(1) }))
	r, err := solver.DynamicUpdate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Size == 0 {
		t.Fatal("empty result")
	}
	if events.Load() == 0 {
		t.Fatal("no progress events during the graph load")
	}
}
