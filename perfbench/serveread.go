package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	mis "repro"
	"repro/internal/gio"
	"repro/internal/server"
	"repro/internal/shard"
)

// serve-read: misd with its defaults (pipelined engine, one scan worker per
// solve, a 256-entry result cache, MaxSolves = GOMAXPROCS) serving a unix
// socket to two closed-loop client connections.
//
// Why: hits are pure server/cache overhead and misses are whole solves, so
// p50 follows the hit path and throughput and p99 follow the misses. On
// misses this workload also runs the varint and shard decode paths, while
// hits bypass core entirely.
//
// Registry: a denser ≈50k-vertex PLRG (β = 1.8) plus one ≈200k-vertex
// β = 2.0 PLRG in three layouts — raw, compressed (mis.CompressFile) and
// three shards (shard.SplitFile). Clients pick graphs with Zipf skew, in
// readGraphs order.
//
// Request mix, per request (readMix): mostly hot solves that hit the cache,
// some asking for verify and a few for include_vertices; bounds; verifies
// of sets returned earlier (hits) and of deliberately broken sets (always
// new keys); and randomized solves with always-new seeds. The hot key set
// (every graph × algorithm solve, its returned set's verify, every bound)
// fits the cache; the always-new tail misses and evicts.
//
// The mix is chosen, not sampled from traffic: misd has no production log
// to draw one from. The shares follow from what the workload has to show:
//   - About one request in nine misses (the 5% fresh seeds and the 6%
//     broken verifies). A miss costs 300 to 3000 hits, so the misses take
//     most of the daemon's busy time and set the request rate and p99, as
//     they would for any cache that mostly hits; the 89% hits keep the p50
//     on the hit path.
//   - Every kind the per-layer metrics median is sent often enough to give
//     a few hundred samples per run: include_vertices hits at 5% are about
//     300 of the ≈6000 requests of a 30 s run.
//   - Verify on a quarter of hot solves exercises the verify-in-solve path
//     on hits without making every hot key a verify key.
//   - Zipf s = 1.3 over four graphs sends 55%, 22%, 13% and 9% of requests
//     to main, dense, main-varint and main-shards: one graph is hot, and the
//     compressed and sharded layouts still miss often enough to run their
//     decoders.
// The report prints the measured share of every kind and the miss share.

const (
	readMainVertices  = 200_000
	readMainBeta      = 2.0
	readDenseVertices = 50_000
	readDenseBeta     = 1.8
	readClients       = 2
	readSetups        = 201
	readCacheEntries  = 256 // server.Config's default, recorded for the key-space line
	hotRandSeed       = 7
	zipfS             = 1.3
	deckSize          = 2000
)

var (
	readGraphs = []string{"main", "dense", "main-varint", "main-shards"}
	readAlgs   = []string{"greedy", "one-k-swap", "two-k-swap", "external-maximal", "randomized"}
	// mainLayouts are the three layouts of one graph; they must agree.
	mainLayouts = []string{"main", "main-varint", "main-shards"}
)

// readMix is the share of each request kind.
var readMix = []struct {
	kind  string
	share float64
}{
	{"solve-hot", 0.70},       // hot solve, verify on a quarter of them
	{"solve-vertices", 0.05},  // hot solve with include_vertices
	{"bound", 0.08},           // GET /v1/graphs/{name}/bound
	{"solve-new-seed", 0.05},  // randomized with a fresh seed: a miss
	{"verify-returned", 0.06}, // a set returned earlier: ok
	{"verify-broken", 0.06},   // a returned set with one vertex dropped or added: not ok
}

// returned is one set the daemon returned during warm-up.
type returned struct {
	vertices []uint32
	inSet    []bool
	body     []byte // pre-encoded /v1/verify request
}

type readWorkload struct {
	sock    string
	refs    map[string]*refGraph // by graph name
	size    map[[2]string]int    // (graph, alg) → size
	sets    map[string][]returned
	maxSize map[string]int
	warm    map[string]server.SolveResponse // main graph's warm-up answers by alg
	r       *report

	mu      sync.Mutex
	checked map[uint64]bool // answer-check memo: hash of (graph, vertices)
}

func runServeRead(ctx context.Context, cfg config, r *report) (err error) {
	dir := cfg.work
	var sortS samples
	prep := func(name string, n int, beta float64, seed int64) (graphInput, error) {
		raw, err := generate(dir, name, n, beta, seed)
		if err != nil {
			return graphInput{}, err
		}
		g, d, err := sortInput(raw, filepath.Join(dir, name+".adj"))
		sortS.addDur(d, time.Second)
		return g, err
	}
	mainG, err := prep("main", cfg.n(readMainVertices), readMainBeta, cfg.seed)
	if err != nil {
		return err
	}
	dense, err := prep("dense", cfg.n(readDenseVertices), readDenseBeta, cfg.seed+1)
	if err != nil {
		return err
	}
	varint := filepath.Join(dir, "main-varint.adj")
	if err := mis.CompressFile(mainG.path, varint); err != nil {
		return err
	}
	shards := filepath.Join(dir, "main-shards")
	if _, err := shard.SplitFile(ctx, mainG.path, shards, shard.SplitOptions{Shards: 3}); err != nil {
		return err
	}
	graphs := map[string]string{"main": mainG.path, "dense": dense.path, "main-varint": varint, "main-shards": shards}
	varG, err := describe("main-varint", varint)
	if err != nil {
		return err
	}

	w := &readWorkload{
		sock: cfg.sock(), r: r, refs: map[string]*refGraph{},
		size: map[[2]string]int{}, sets: map[string][]returned{}, maxSize: map[string]int{},
		warm: map[string]server.SolveResponse{}, checked: map[uint64]bool{},
	}
	mainRef, err := loadRef(mainG.path)
	if err != nil {
		return err
	}
	denseRef, err := loadRef(dense.path)
	if err != nil {
		return err
	}
	for _, g := range mainLayouts {
		w.refs[g] = mainRef
	}
	w.refs["dense"] = denseRef

	d, setup, err := setupDaemon(ctx, w.sock, readSetups, func(int) (map[string]string, error) { return graphs, nil })
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); err == nil {
			err = serr
		}
	}()

	hotKeys := len(readGraphs)*len(readAlgs)*2 + len(readGraphs)
	r.record("input: %s; %s; %s (compressed); main-shards: 3 shards of main; dense PLRG β=%.1f, main PLRG β=%.1f",
		mainG, dense, varG, readDenseBeta, readMainBeta)
	r.record("engine: pipelined, 1 scan worker per solve, MaxSolves=GOMAXPROCS=%d, block_size=%d, page_cache=warm", runtime.GOMAXPROCS(0), gio.DefaultBlockSize)
	r.record("key space: %d hot keys against a %d-entry cache, plus always-new randomized seeds and broken verify sets", hotKeys, readCacheEntries)
	r.record("clients: %d closed-loop connections, Zipf s=%.1f over %v", readClients, zipfS, readGraphs)

	if err := w.warmUp(ctx); err != nil {
		return err
	}

	before, err := status(ctx, w.sock)
	if err != nil {
		return err
	}
	heap := watchHeap()
	recs, secs := w.phase(ctx, cfg, nil)
	memMB := heap.finish()
	after, err := status(ctx, w.sock)
	if err != nil {
		return err
	}

	r.e2e("setup_s", setup.median(), "s", len(setup), "OpenRegistry until the socket answers")
	serveMetrics(r, recs, secs)
	// The primary operation is a daemon request.
	r.alias("p50_ms", "op_p50_ms")
	r.alias("req_per_s", "ops_per_s")
	r.e2e("is_size", float64(w.size[[2]string{"main", "two-k-swap"}]), "vertices", 0, "two-k-swap set on main")
	r.e2e("mem_mb", memMB, "MiB", 0, "peak live-heap growth over the request phase (daemon and clients)")
	if d.log.n > 0 {
		r.record("daemon log: %d lines, first: %q", d.log.n, d.log.first)
	}
	cacheDelta(r, before.Cache, after.Cache)
	r.record("mix measured: %s", mixShares(recs))

	if !cfg.trace {
		return nil
	}
	tr := cfg.tracer
	mixed, _ := w.phase(ctx, cfg, tr)
	scan, st, err := probeScan(ctx, tr, "probe.gio.scan", mainG.path, false, probePasses)
	if err != nil {
		return err
	}
	vscan, _, err := probeScan(ctx, tr, "probe.gio.scan_varint", varint, false, probePasses)
	if err != nil {
		return err
	}
	sscan, err := probeShards(ctx, tr, shards, 1, probePasses)
	if err != nil {
		return err
	}
	ex, err := probeExec(ctx, tr, mainG.path, false, runtime.GOMAXPROCS(0), probePasses)
	if err != nil {
		return err
	}
	dig, _, err := probeDigest(ctx, tr, mainG.path, 3)
	if err != nil {
		return err
	}
	model := blocksModel(mainG.vertices, mainG.edges, gio.DefaultBlockSize)
	r.layer("gio.scan_s", scan.median(), "s", len(scan), "bare single-stream pass over main, pipelined")
	r.layer("gio.scan_varint_s", vscan.median(), "s", len(vscan), "the same pass over main-varint")
	r.layer("shard.scan_s", sscan.median(), "s", len(sscan), "merged pass over main-shards, 1 worker")
	r.layer("exec.scan_s", ex.median(), "s", len(ex), "main through exec.New (not on the daemon's path)")
	r.layer("gio.blocks_per_scan", float64(st.BlocksRead)/float64(max(st.PhysicalScans, 1)), "blocks", 0, "probe pass over main")
	r.layer("gio.blocks_model", float64(model), "blocks", 0, "⌈8(|V|+|E|)/B⌉")
	r.layer("extsort.sort_s", sortS.median(), "s", len(sortS), "input preparation (not in set-up)")
	r.layer("server.digest_s", dig.median(), "s", len(dig), "ContentDigest of main on a fresh open")
	warmLayers(r, w.warm)
	over, n := traceOverhead(mixed)
	r.layer("trace.overhead_ms", over, "ms", n, "traced − untraced p50 client turn, alternating in one phase")
	return nil
}

// mixShares renders the share of each request kind and of cache misses.
func mixShares(recs []reqRecord) string {
	count := map[string]int{}
	misses := 0
	for _, rec := range recs {
		count[rec.kind]++
		if rec.cache == "miss" {
			misses++
		}
	}
	total := float64(max(len(recs), 1))
	var b strings.Builder
	for _, m := range readMix {
		fmt.Fprintf(&b, "%s %.1f%% (want %.0f%%), ", m.kind, 100*float64(count[m.kind])/total, 100*m.share)
	}
	fmt.Fprintf(&b, "cache misses %.1f%%", 100*float64(misses)/total)
	return b.String()
}

// setupDaemon starts the daemon reps times, each over the graphs that
// prepare (untimed) returns for that repetition, keeps the last daemon and
// returns the set-up samples.
func setupDaemon(ctx context.Context, sock string, reps int, prepare func(rep int) (map[string]string, error)) (*daemon, samples, error) {
	var setup samples
	for i := 0; ; i++ {
		graphs, err := prepare(i)
		if err != nil {
			return nil, nil, err
		}
		d, dur, err := startDaemon(ctx, graphs, sock)
		if err != nil {
			return nil, nil, err
		}
		setup.addDur(dur, time.Second)
		if i == reps-1 {
			return d, setup, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// warmLayers reports the per-algorithm accounting of the warm-up solves.
func warmLayers(r *report, warm map[string]server.SolveResponse) {
	for _, alg := range []string{"greedy", "one-k-swap", "two-k-swap"} {
		resp := warm[alg]
		m := algMetric(alg)
		r.layer("pipeline.physical_scans."+m, float64(resp.IO.PhysicalScans), "count", 0, "")
		r.layer("pipeline.logical_scans."+m, float64(resp.IO.Scans), "count", 0, "")
		r.layer("pipeline.carried_scans."+m, float64(resp.IO.CarriedScans), "count", 0, "")
		r.layer("core.memory_bytes."+m, float64(resp.MemoryBytes), "bytes", 0, "")
		if alg != "greedy" {
			r.layer("core.rounds."+m, float64(resp.Rounds), "count", 0, "")
		}
	}
}

// warmUp solves every graph × algorithm once with include_vertices,
// checks each set, verifies it and asks for every bound: this fills the
// cache with the hot key set and computes every digest before timing.
func (w *readWorkload) warmUp(ctx context.Context) error {
	c := newClient(w.sock)
	defer c.close()
	for _, g := range readGraphs {
		for _, alg := range readAlgs {
			var resp server.SolveResponse
			req := server.SolveRequest{Graph: g, Algorithm: alg, IncludeVertices: true, Verify: true}
			if alg == "randomized" {
				req.Seed = hotRandSeed
			}
			if res := c.call(ctx, http.MethodPost, "/v1/solve", mustJSON(req), &resp); res.status != http.StatusOK || res.err != nil {
				return fmt.Errorf("warm-up solve %s %s: %d %s %v", g, alg, res.status, res.code, res.err)
			}
			if _, err := w.refs[g].checkVertices(resp.Vertices); err != nil {
				w.r.problem("serve-read %s %s: %v", g, alg, err)
			}
			if !resp.Verified {
				w.r.problem("serve-read %s %s: verify requested but not reported", g, alg)
			}
			w.size[[2]string{g, alg}] = resp.Size
			w.maxSize[g] = max(w.maxSize[g], resp.Size)
			if g == "main" {
				w.warm[alg] = resp
			}
			set := returned{vertices: resp.Vertices, inSet: make([]bool, w.refs[g].n)}
			for _, v := range resp.Vertices {
				set.inSet[v] = true
			}
			set.body = mustJSON(server.VerifyRequest{Graph: g, Vertices: resp.Vertices})
			w.sets[g] = append(w.sets[g], set)
			var vr server.VerifyResponse
			if res := c.call(ctx, http.MethodPost, "/v1/verify", set.body, &vr); res.status != http.StatusOK || !vr.OK {
				w.r.problem("serve-read %s %s: verify of the returned set: %d ok=%v %s", g, alg, res.status, vr.OK, vr.Reason)
			}
		}
		var b server.BoundResponse
		if res := c.call(ctx, http.MethodGet, "/v1/graphs/"+g+"/bound", nil, &b); res.status != http.StatusOK {
			return fmt.Errorf("warm-up bound %s: %d %s", g, res.status, res.code)
		}
	}
	for _, alg := range readAlgs {
		want := w.size[[2]string{"main", alg}]
		for _, g := range mainLayouts[1:] {
			if got := w.size[[2]string{g, alg}]; got != want {
				w.r.problem("serve-read %s: %s returned %d, main returned %d", alg, g, got, want)
			}
		}
	}
	return nil
}

// phase runs the clients for the configured seconds and returns every
// request record and the phase's wall time.
func (w *readWorkload) phase(ctx context.Context, cfg config, tr *tracer) ([]reqRecord, float64) {
	start := time.Now()
	until := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	out := make([][]reqRecord, readClients)
	var wg sync.WaitGroup
	for i := 0; i < readClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out[id] = w.client(ctx, cfg.seed, id, until, tr)
		}(i)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	var all []reqRecord
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all, secs
}

// requestDeck returns the (kind, graph) pairs of deckSize requests in the
// exact proportions of readMix and the Zipf graph weights, shuffled. The
// clients cycle through their decks: the order is random but every run
// sends the same mix, so the count of expensive requests, which sets the
// throughput, does not vary from run to run.
func requestDeck(rng *rand.Rand) [][2]string {
	var zipf []float64
	total := 0.0
	for k := range readGraphs {
		zipf = append(zipf, math.Pow(float64(k+1), -zipfS))
		total += zipf[k]
	}
	var deck [][2]string
	for _, m := range readMix {
		for k, g := range readGraphs {
			n := int(math.Round(deckSize * m.share * zipf[k] / total))
			for i := 0; i < n; i++ {
				deck = append(deck, [2]string{m.kind, g})
			}
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func (w *readWorkload) client(ctx context.Context, seed int64, id int, until time.Time, tr *tracer) []reqRecord {
	rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
	deck := requestDeck(rng)
	c := newClient(w.sock)
	defer c.close()
	var recs []reqRecord
	freshSeed := int64(1_000_000_000) * int64(id+1)
	for i := 0; time.Now().Before(until) && ctx.Err() == nil; i++ {
		kind, g := deck[i%len(deck)][0], deck[i%len(deck)][1]
		start := time.Now()
		var rec reqRecord
		switch kind {
		case "solve-hot", "solve-vertices":
			alg := readAlgs[rng.Intn(len(readAlgs))]
			req := server.SolveRequest{Graph: g, Algorithm: alg, Verify: rng.Intn(4) == 0, IncludeVertices: kind == "solve-vertices"}
			if alg == "randomized" {
				req.Seed = hotRandSeed
			}
			rec = w.solve(ctx, c, req, w.size[[2]string{g, alg}])
		case "solve-new-seed":
			freshSeed++
			rec = w.solve(ctx, c, server.SolveRequest{Graph: g, Algorithm: "randomized", Seed: freshSeed}, -1)
		case "bound":
			rec = w.bound(ctx, c, g)
		case "verify-returned":
			set := w.sets[g][rng.Intn(len(w.sets[g]))]
			rec = w.verify(ctx, c, g, set.body, true)
		case "verify-broken":
			set := w.sets[g][rng.Intn(len(w.sets[g]))]
			rec = w.verify(ctx, c, g, mustJSON(server.VerifyRequest{Graph: g, Vertices: broken(rng, set)}), false)
		}
		rec.kind = kind
		if i%2 == 1 {
			traceRequest(tr, &rec, start)
		}
		rec.cycle = time.Since(start)
		recs = append(recs, rec)
	}
	return recs
}

// broken returns a copy of a returned maximal independent set with one
// member dropped (no longer maximal: the dropped vertex has no neighbor in
// the set) or one non-member added (no longer independent: by maximality
// it has a neighbor in the set).
func broken(rng *rand.Rand, set returned) []uint32 {
	vs := append([]uint32(nil), set.vertices...)
	if rng.Intn(2) == 0 && len(vs) > 1 {
		i := rng.Intn(len(vs))
		vs[i] = vs[len(vs)-1]
		return vs[:len(vs)-1]
	}
	for {
		v := uint32(rng.Intn(len(set.inSet)))
		if !set.inSet[v] {
			return append(vs, v)
		}
	}
}

// solve sends one solve and checks the answer: want is the size every
// answer for this key must have, -1 when the key is new.
func (w *readWorkload) solve(ctx context.Context, c *client, req server.SolveRequest, want int) reqRecord {
	rec := reqRecord{route: "solve", graph: req.Graph, alg: req.Algorithm, vertices: req.IncludeVertices}
	var resp server.SolveResponse
	res := c.call(ctx, http.MethodPost, "/v1/solve", mustJSON(req), &resp)
	rec.status, rec.code, rec.latency = res.status, res.code, res.latency
	if res.status != http.StatusOK || res.err != nil {
		rec.failed = true
		if res.err != nil && rec.code == "" {
			rec.code = "transport"
		}
		return rec
	}
	rec.cache, rec.elapsedMS = resp.Cache, resp.ElapsedMS
	wrong := func(format string, args ...any) {
		rec.failed = true
		w.r.problem("serve-read solve %s %s: "+format, append([]any{req.Graph, req.Algorithm}, args...)...)
	}
	switch {
	case want >= 0 && resp.Size != want:
		wrong("size %d, expected %d", resp.Size, want)
	case req.Verify && !resp.Verified:
		wrong("verify requested but not reported")
	case resp.Size > w.refs[req.Graph].n || resp.Size <= 0:
		wrong("size %d out of range", resp.Size)
	case req.IncludeVertices:
		if len(resp.Vertices) != resp.Size {
			wrong("%d vertices for size %d", len(resp.Vertices), resp.Size)
		} else if err := w.checkOnce(req.Graph, resp.Vertices); err != nil {
			wrong("%v", err)
		}
	}
	return rec
}

// checkOnce checks a returned vertex list against the benchmark's copy of
// the graph, once per distinct list.
func (w *readWorkload) checkOnce(graph string, vs []uint32) error {
	h := fnv.New64a()
	h.Write([]byte(graph))
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	h.Write(buf)
	key := h.Sum64()
	w.mu.Lock()
	ok := w.checked[key]
	w.mu.Unlock()
	if ok {
		return nil
	}
	if _, err := w.refs[graph].checkVertices(vs); err != nil {
		return err
	}
	w.mu.Lock()
	w.checked[key] = true
	w.mu.Unlock()
	return nil
}

func (w *readWorkload) verify(ctx context.Context, c *client, g string, body []byte, wantOK bool) reqRecord {
	rec := reqRecord{route: "verify", graph: g}
	var resp server.VerifyResponse
	res := c.call(ctx, http.MethodPost, "/v1/verify", body, &resp)
	rec.status, rec.code, rec.latency = res.status, res.code, res.latency
	if res.status != http.StatusOK || res.err != nil {
		rec.failed = true
		return rec
	}
	rec.cache = resp.Cache
	if resp.OK != wantOK {
		rec.failed = true
		w.r.problem("serve-read verify %s: ok=%v, expected %v (%s)", g, resp.OK, wantOK, resp.Reason)
	}
	return rec
}

func (w *readWorkload) bound(ctx context.Context, c *client, g string) reqRecord {
	rec := reqRecord{route: "bound", graph: g}
	var resp server.BoundResponse
	res := c.call(ctx, http.MethodGet, "/v1/graphs/"+g+"/bound", nil, &resp)
	rec.status, rec.code, rec.latency = res.status, res.code, res.latency
	if res.status != http.StatusOK || res.err != nil {
		rec.failed = true
		return rec
	}
	rec.cache = resp.Cache
	if resp.Upper < uint64(w.maxSize[g]) {
		rec.failed = true
		w.r.problem("serve-read bound %s: upper bound %d below a returned set of %d", g, resp.Upper, w.maxSize[g])
	}
	return rec
}
