package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	mis "repro"
	"repro/internal/gio"
	"repro/internal/server"
)

// serve-write: the daemon with one journal-backed graph (mis.InitJournal
// over a ≈200k-vertex PLRG), keeping the registry's journal defaults, which
// fsync once per update.
//
// Why: it puts writes beside reads. Fsynced updates share the machine with
// solves, and each compaction changes the digest and so invalidates cached
// results. A read-path gain that costs writes shows here, and so does the
// reverse.
//
// The writer is one goroutine in a closed loop. misd has no write endpoint,
// so it calls the registry entry's Journal directly: InsertEdge for random
// edges and DeleteEdge for a quarter of updates, on edges it inserted
// earlier; every writeCompactEvery updates it calls Journal.Compact. The
// reader is one connection solving the journal graph with verify: true and
// include_vertices, rotating through greedy, one-k-swap and two-k-swap, as
// a client of a changing graph fetching the current set would. Its non-2xx
// answers count as failures as they come: none is retried or filtered out.
//
// The result line takes the steadier figure of each side: op_p50_ms is
// the journal update's median latency and ops_per_s the reader's request
// rate. The writer's plain rate is tail-bound: a shared disk's fsync
// stalls follow other tenants' I/O, and within one set of runs on a 2-vCPU
// VM they moved the update p99 between 1.4 and 10 ms and the update rate by
// a factor of 3, while the median stayed between 0.098 and 0.119 ms.
// write_per_s, write_p99_ms and compact_s report them. K = 10000 keeps the rewrite of the base at
// each compaction to about 0.5 KB per update and still gives six or more
// compactions in a 30 s run on the slowest disk seen. It also leaves the
// reader most of each cycle for hits after the three misses a new
// generation costs, so that the reader's rate does not follow the
// compaction rate: at K = 5000 it moved inversely with the disk's speed
// (spread 0.30 over ten runs, against 0.03 to 0.08 at K = 10000).
//
// Compact is fenced from the reader's requests: the writer waits for the
// request in flight, and the reader starts none while Compact runs. misd
// acquires the journal generation several times per request (ROADMAP's
// split-generation item), so a compaction inside a request fails it with a
// 500 or files its result under the previous digest, and the benchmark
// needs a workload on which no operation fails. The writer's wait at the
// fence is the benchmark's, not the journal's, so write_per_s leaves it
// out. Once misd pins one generation per request, the fence can go and the
// fold scan compete with reads again.

const (
	writeVertices     = 200_000
	writeBeta         = 2.0
	writeSetups       = 41
	writeReplay       = 1000   // updates the set-up's recovery replays
	writeCompactEvery = 10_000 // K: updates per compaction, scaled with the graph
	writeDeleteShare  = 0.25
	// mem_mb is the peak of the exact live heap right after each of the
	// first writeMemCompactions compactions, not over the whole phase: the
	// cache fills with each generation's results, so a peak over a fixed
	// wall time would follow the fsync rate.
	writeMemCompactions = 3
)

var writeAlgs = []string{"greedy", "one-k-swap", "two-k-swap"}

// writerStats is what the writer goroutine measured.
type writerStats struct {
	update       samples // µs per acknowledged InsertEdge/DeleteEdge, untraced
	tracedUpdate samples // the same for traced updates
	compact      samples // s per Compact
	fenceWait    samples // s the writer waited for the reader before each Compact
	deltaEdges   samples // Journal.Stats().DeltaEdges before each Compact
	journalBytes int64
	gens         []string // a hard link to each generation Compact installed
	err          error
}

// generations is what the writer's installed generations hold, computed
// after the phase from their hard links.
type generations struct {
	digest    samples // s per ContentDigest of a fresh open
	baseBytes int64
}

type writeWorkload struct {
	entry *mis.RegistryEntry
	sock  string
	work  string
	n     int
	k     int // K: updates per compaction
	r     *report

	compactions int             // across phases, to name the generation links
	installed   map[string]bool // digests of every generation the writer saw installed
	fence       sync.RWMutex    // held by each reader request, and by Compact alone
}

func runServeWrite(ctx context.Context, cfg config, r *report) (err error) {
	dir := cfg.work
	raw, err := generate(dir, "base", cfg.n(writeVertices), writeBeta, cfg.seed)
	if err != nil {
		return err
	}
	base, sortD, err := sortInput(raw, filepath.Join(dir, "base.adj"))
	if err != nil {
		return err
	}

	// Set-up: a daemon restart over a journal holding writeReplay updates
	// since its last compaction. The store is prepared once, untimed; each
	// repetition reopens it and recovers the same state. Reopening a store
	// that holds records writes nothing (a fresh store's first open fsyncs a
	// checkpoint), so the figure is the recovery's alone.
	journalDir := filepath.Join(dir, "journal")
	if err := prepareJournal(ctx, journalDir, base, cfg.seed); err != nil {
		return err
	}
	d, setup, err := setupDaemon(ctx, cfg.sock(), writeSetups, func(int) (map[string]string, error) {
		return map[string]string{"live": journalDir}, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()
	entry, _ := d.reg.Get("live")
	w := &writeWorkload{entry: entry, sock: cfg.sock(), work: cfg.work, n: base.vertices, k: cfg.n(writeCompactEvery), r: r, installed: map[string]bool{}}

	r.record("input: %s (PLRG β=%.1f, degree-sorted by extsort), journal store initialized over it", base, writeBeta)
	r.record("engine: pipelined, 1 scan worker per solve, MaxSolves=GOMAXPROCS=%d, block_size=%d, page_cache=warm", runtime.GOMAXPROCS(0), gio.DefaultBlockSize)
	r.record("journal: fsync every update (SyncEvery=1), K=%d updates per compaction (run between reader requests), %.0f%% deletes of inserted edges", w.k, 100*writeDeleteShare)
	r.record("clients: 1 writer goroutine, 1 reader connection, both closed loop")

	dig, _, err := freshDigest(ctx, nil, entry.Journal().Stats().BasePath)
	if err != nil {
		return err
	}
	w.installed[dig] = true
	warm, err := w.warmUp(ctx)
	if err != nil {
		return err
	}

	before, err := status(ctx, w.sock)
	if err != nil {
		return err
	}
	mem := newLivePeak()
	rng := rand.New(rand.NewSource(cfg.seed))
	recs, ws, digests, secs := w.phase(ctx, cfg, rng, nil, mem)
	after, err := status(ctx, w.sock)
	if err != nil {
		return err
	}
	if ws.err != nil {
		return fmt.Errorf("journal write failed: %w", ws.err)
	}
	gens, err := w.installedGenerations(ctx, ws.gens, nil)
	if err != nil {
		return err
	}
	w.checkDigests(digests)
	if err := entry.Journal().Verify(ctx); err != nil {
		r.problem("serve-write: maintained set: %v", err)
	}

	updates := len(ws.update)
	r.e2e("setup_s", setup.median(), "s", len(setup), fmt.Sprintf("OpenRegistry with recovery of %d journaled updates until the socket answers", writeReplay))
	serveMetrics(r, recs, secs)
	// Attempted operations are the reader's requests and the writer's
	// updates; a failed update has already failed the run.
	r.Attempted += updates
	r.e2e("is_size", float64(warm["two-k-swap"].Size), "vertices", 0, "two-k-swap set on the first generation")
	r.e2e("mem_mb", mem.mib(), "MiB", 0, fmt.Sprintf("peak live-heap growth (daemon, journal and clients) right after each of the first %d compactions", min(writeMemCompactions, len(ws.compact))))
	r.e2e("write_per_s", float64(updates)/(secs-ws.fenceWait.sum()), "1/s", updates,
		fmt.Sprintf("acknowledged journal updates per second, less %.2fs waiting at the compaction fence", ws.fenceWait.sum()))
	// The result line takes the steadier figure of each side (see the top
	// of the file).
	r.e2e("op_p50_ms", ws.update.median()/1000, "ms", updates, "journal update latency, median (wal.insert_p50_us in ms)")
	r.alias("req_per_s", "ops_per_s")
	wp99, ok := ws.update.tail()
	note := ""
	if !ok {
		wp99, note = ws.update.quantile(0.99), "fewer than 10 samples beyond the p99"
	}
	r.e2e("write_p99_ms", wp99/1000, "ms", updates, note)
	r.e2e("compact_s", ws.compact.median(), "s", len(ws.compact), "Journal.Compact")
	if d.log.n > 0 {
		r.record("daemon log: %d lines, first: %q", d.log.n, d.log.first)
	}

	r.layer("wal.insert_p50_us", ws.update.median(), "us", updates, "InsertEdge/DeleteEdge")
	r.layer("wal.insert_p99_us", wp99, "us", updates, note)
	r.layer("wal.bytes_per_update", float64(ws.journalBytes+gens.baseBytes)/float64(max(updates, 1)), "bytes", updates,
		"journal bytes plus compacted-base bytes, per update")
	r.layer("wal.updates", float64(updates), "count", 0, "")
	r.layer("wal.fence_wait_s", ws.fenceWait.median(), "s", len(ws.fenceWait), "the writer's wait for the reader's request before each Compact (benchmark, not journal)")
	r.layer("dynamic.delta_edges", ws.deltaEdges.median(), "count", len(ws.deltaEdges), "Journal.Stats().DeltaEdges at each compaction")
	r.layer("server.digest_s", gens.digest.median(), "s", len(gens.digest), "ContentDigest of each installed generation, fresh open after the phase")
	r.layer("extsort.sort_s", sortD.Seconds(), "s", 1, "input preparation (not in set-up)")
	cacheDelta(r, before.Cache, after.Cache)

	if !cfg.trace {
		return nil
	}
	tr := cfg.tracer
	_, tws, tdig, _ := w.phase(ctx, cfg, rng, tr, nil)
	if tws.err != nil {
		return fmt.Errorf("journal write failed: %w", tws.err)
	}
	if _, err := w.installedGenerations(ctx, tws.gens, tr); err != nil {
		return err
	}
	w.checkDigests(tdig)
	gen, err := describe("generation", entry.Journal().Stats().BasePath)
	if err != nil {
		return err
	}
	scan, st, err := probeScan(ctx, tr, "probe.gio.scan", gen.path, false, probePasses)
	if err != nil {
		return err
	}
	ex, err := probeExec(ctx, tr, gen.path, false, runtime.GOMAXPROCS(0), probePasses)
	if err != nil {
		return err
	}
	r.layer("gio.scan_s", scan.median(), "s", len(scan), "bare single-stream pass over the current generation, pipelined")
	r.layer("exec.scan_s", ex.median(), "s", len(ex), "the same through exec.New (not on the daemon's path)")
	r.layer("gio.blocks_per_scan", float64(st.BlocksRead)/float64(max(st.PhysicalScans, 1)), "blocks", 0, "probe pass")
	r.layer("gio.blocks_model", float64(blocksModel(gen.vertices, gen.edges, gio.DefaultBlockSize)), "blocks", 0, "⌈8(|V|+|E|)/B⌉ of the current generation")
	warmLayers(r, warm)
	r.layer("trace.overhead_ms", (tws.tracedUpdate.median()-tws.update.median())/1000, "ms", len(tws.tracedUpdate),
		"traced − untraced update p50, alternating in one phase")
	return nil
}

// warmUp solves the first generation once per algorithm, so the cache
// holds it and the digest is computed before timing.
func (w *writeWorkload) warmUp(ctx context.Context) (map[string]server.SolveResponse, error) {
	c := newClient(w.sock)
	defer c.close()
	out := map[string]server.SolveResponse{}
	for _, alg := range writeAlgs {
		var resp server.SolveResponse
		res := c.call(ctx, http.MethodPost, "/v1/solve", readerRequest(alg), &resp)
		if res.status != http.StatusOK || res.err != nil {
			return nil, fmt.Errorf("warm-up solve %s: %d %s %v", alg, res.status, res.code, res.err)
		}
		if !resp.Verified {
			w.r.problem("serve-write warm-up %s: verify requested but not reported", alg)
		}
		out[alg] = resp
	}
	return out, nil
}

// phase runs the writer and the reader side by side for the configured
// seconds. It returns the reader's records, the writer's measurements, the
// digests the reader's answers named, and the phase's wall time. With a
// tracer, every other update and request is traced; mem, if not nil, is
// sampled after each of the first writeMemCompactions compactions.
func (w *writeWorkload) phase(ctx context.Context, cfg config, rng *rand.Rand, tr *tracer, mem *livePeak) ([]reqRecord, writerStats, []string, float64) {
	start := time.Now()
	until := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var ws writerStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.writer(ctx, rng, until, tr, mem, &ws)
	}()
	recs, digests := w.reader(ctx, until, tr)
	<-done
	return recs, ws, digests, time.Since(start).Seconds()
}

// writer sends updates in a closed loop until the phase ends, compacting
// every writeCompactEvery updates, and records into ws.
func (w *writeWorkload) writer(ctx context.Context, rng *rand.Rand, until time.Time, tr *tracer, mem *livePeak, ws *writerStats) {
	j := w.entry.Journal()
	var inserted [][2]uint32
	for n := 1; time.Now().Before(until) && ctx.Err() == nil; n++ {
		var u, v uint32
		del := len(inserted) > 0 && rng.Float64() < writeDeleteShare
		if del {
			i := rng.Intn(len(inserted))
			u, v = inserted[i][0], inserted[i][1]
			inserted[i] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
		} else {
			u = uint32(rng.Intn(w.n))
			v = uint32(rng.Intn(w.n - 1))
			if v >= u {
				v++
			}
			inserted = append(inserted, [2]uint32{u, v})
		}
		name := "wal.insert_edge"
		if del {
			name = "wal.delete_edge"
		}
		ut := tr
		if n%2 == 0 {
			ut = nil
		}
		lat := &ws.update
		if ut != nil {
			lat = &ws.tracedUpdate
		}
		// The latency includes recording the span, so that traced minus
		// untraced is the tracing overhead.
		t := time.Now()
		sp := ut.begin(name, nil)
		var err error
		if del {
			err = j.DeleteEdge(u, v)
		} else {
			err = j.InsertEdge(u, v)
		}
		sp.end()
		lat.addDur(time.Since(t), time.Microsecond)
		if err != nil {
			ws.err = err
			return
		}
		if n%w.k == 0 {
			t := time.Now()
			w.fence.Lock()
			ws.fenceWait.addDur(time.Since(t), time.Second)
			err := w.compact(ctx, j, ws, tr)
			if err == nil && len(ws.compact) <= writeMemCompactions {
				mem.sample() // the reader is held at the fence: a quiescent point
			}
			w.fence.Unlock()
			if err != nil {
				ws.err = err
				return
			}
		}
	}
}

// compact runs one Compact, with the fence held, and hard-links the new
// generation, whose digest installedGenerations computes after the phase.
func (w *writeWorkload) compact(ctx context.Context, j *mis.Journal, ws *writerStats, tr *tracer) error {
	st := j.Stats()
	ws.deltaEdges.add(float64(st.DeltaEdges))
	sp := tr.begin("wal.compact", nil)
	t := time.Now()
	err := j.Compact(ctx)
	ws.compact.addDur(time.Since(t), time.Second)
	sp.end()
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	after := j.Stats()
	// The writer is the only appender and waits for Compact, so the live
	// journal shrinks by exactly the folded bytes.
	ws.journalBytes += st.JournalBytes - after.JournalBytes
	// Keep the generation for the digest check after the phase: the store
	// deletes generations it no longer needs.
	w.compactions++
	link := filepath.Join(w.work, fmt.Sprintf("gen-%d.adj", w.compactions))
	if err := os.Link(after.BasePath, link); err != nil {
		return err
	}
	ws.gens = append(ws.gens, link)
	return nil
}

// installedGenerations digests every generation the writer installed,
// from its hard link, marks each digest installed and removes the links.
func (w *writeWorkload) installedGenerations(ctx context.Context, links []string, tr *tracer) (generations, error) {
	var g generations
	for _, link := range links {
		fi, err := os.Stat(link)
		if err != nil {
			return g, err
		}
		g.baseBytes += fi.Size()
		d, dur, err := freshDigest(ctx, tr, link)
		if err != nil {
			return g, err
		}
		g.digest.addDur(dur, time.Second)
		w.installed[d] = true
		if err := os.Remove(link); err != nil {
			return g, err
		}
	}
	return g, nil
}

func (w *writeWorkload) reader(ctx context.Context, until time.Time, tr *tracer) ([]reqRecord, []string) {
	c := newClient(w.sock)
	defer c.close()
	var recs []reqRecord
	var digests []string
	for i := 0; time.Now().Before(until) && ctx.Err() == nil; i++ {
		alg := writeAlgs[i%len(writeAlgs)]
		w.fence.RLock()
		start := time.Now()
		rec := reqRecord{route: "solve", graph: "live", alg: alg}
		var resp server.SolveResponse
		res := c.call(ctx, http.MethodPost, "/v1/solve", readerRequest(alg), &resp)
		w.fence.RUnlock()
		rec.status, rec.code, rec.latency, rec.vertices = res.status, res.code, res.latency, true
		switch {
		case res.status != http.StatusOK || res.err != nil:
			rec.failed = true
			if res.err != nil && rec.code == "" {
				rec.code = "transport"
			}
		case !resp.Verified:
			rec.failed = true
			w.r.problem("serve-write %s: verify requested but not reported", alg)
		case resp.Size <= 0 || resp.Size > w.n || len(resp.Vertices) != resp.Size:
			rec.failed = true
			w.r.problem("serve-write %s: size %d (%d vertices returned) out of range", alg, resp.Size, len(resp.Vertices))
		default:
			rec.cache, rec.elapsedMS = resp.Cache, resp.ElapsedMS
			digests = append(digests, resp.Digest)
		}
		if i%2 == 1 {
			traceRequest(tr, &rec, start)
		}
		rec.cycle = time.Since(start)
		recs = append(recs, rec)
	}
	return recs, digests
}

// prepareJournal initializes a journal store over base and appends
// writeReplay random edge inserts to it, committed by one fsync at Close.
func prepareJournal(ctx context.Context, dir string, base graphInput, seed int64) error {
	if err := mis.InitJournal(dir, base.path); err != nil {
		return err
	}
	j, err := mis.OpenJournal(ctx, dir, mis.SyncEvery(writeReplay))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < writeReplay; i++ {
		u := uint32(rng.Intn(base.vertices))
		v := uint32(rng.Intn(base.vertices - 1))
		if v >= u {
			v++
		}
		if err := j.InsertEdge(u, v); err != nil {
			j.Close()
			return fmt.Errorf("prepare journal: %w", err)
		}
	}
	return j.Close()
}

// readerRequest is the reader's request body: a solve of the journal graph
// with verify, returning the set, as a client of a changing graph would
// fetch it.
func readerRequest(alg string) []byte {
	return mustJSON(server.SolveRequest{Graph: "live", Algorithm: alg, Verify: true, IncludeVertices: true})
}

// checkDigests requires every answer to name a generation the writer saw
// installed. It runs after the phase, once the installed generations are
// digested.
func (w *writeWorkload) checkDigests(digests []string) {
	for _, d := range digests {
		if !w.installed[d] {
			w.r.problem("serve-write: answer names digest %.16s…, not a generation the writer installed", d)
			return
		}
	}
}
