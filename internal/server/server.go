// Package server implements misd, the graph-solver daemon: a REST API over
// a unix or TCP socket that serves solve / verify / stat / bound / color
// requests for a registry of adjacency files to many concurrent clients.
//
// Three mechanisms turn the Solver library into a multi-tenant service:
//
//   - A result cache (internal/cache) keyed by (file content digest,
//     algorithm, options), with singleflight deduplication: concurrent
//     identical requests share one underlying solve, and repeated ones are
//     map lookups. The digest key makes invalidation automatic — a journal
//     compaction flips to a new base generation, whose digest differs, so
//     stale entries simply stop being addressed and age out of the LRU.
//   - Admission control: a bounded solve semaphore plus a bounded wait
//     queue; requests beyond both get 429 immediately. Only work that will
//     scan a file passes the gate — cache hits bypass it.
//   - Per-request deadlines riding the Solver's context plumbing: a
//     timeout_ms (or the daemon default) cancels a solve within one decoded
//     batch, and the expired request detaches from a shared solve without
//     killing it for the other waiters.
//
// Long solves can run as background operations with pollable status and an
// SSE event feed of per-round progress (GET /v1/operations/{id}/events).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	mis "repro"
	"repro/internal/cache"
)

// Config parameterizes New. The zero value of every knob selects a default.
type Config struct {
	// Registry holds the graphs the daemon serves. Required.
	Registry *mis.Registry
	// MaxSolves bounds concurrently executing solves (0 = GOMAXPROCS).
	MaxSolves int
	// MaxQueue bounds solves waiting for a slot (0 = 64, negative = none:
	// anything beyond MaxSolves is refused immediately).
	MaxQueue int
	// CacheEntries bounds the result cache (0 = 256).
	CacheEntries int
	// DefaultTimeout bounds requests that set no timeout_ms (0 = unlimited).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (0 = uncapped).
	MaxTimeout time.Duration
	// Workers is the per-solve scan parallelism (see mis.Workers; 0 = the
	// file's default).
	Workers int
	// MaxOps bounds retained background operations (0 = 128).
	MaxOps int
	// Logf, when set, receives daemon log lines (unclassified internal
	// errors, lifecycle events).
	Logf func(format string, args ...any)
}

// Server is the misd daemon core: an http.Handler plus the solve cache,
// admission gate and background-operation store behind it.
type Server struct {
	cfg      Config
	reg      *mis.Registry
	cache    *cache.Cache[any]
	adm      *admission
	ops      *opStore
	maxBody  int64 // POST body limit, see bodyLimit
	baseCtx  context.Context
	shutdown context.CancelFunc
	started  time.Time
	closed   atomic.Bool
}

// testSolveGate, when set, is called by every scanning stage — an executed
// (non-cached) solve, verify, color or bound, and the verify inside a solve
// — while it holds its admission slot: the test seam that lets the suite
// hold a stage open, or compact a journal between stages, deterministically.
// Atomic because a detached solve can still be running when the test that
// installed the gate clears it.
var testSolveGate atomic.Pointer[func(graph string)]

// New builds a Server over cfg.Registry. Call Close (or Shutdown) when
// done; it cancels every in-flight solve and background operation.
func New(cfg Config) *Server {
	if cfg.MaxSolves <= 0 {
		cfg.MaxSolves = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 64
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		cache:    cache.New[any](base, cfg.CacheEntries),
		adm:      newAdmission(cfg.MaxSolves, cfg.MaxQueue),
		ops:      newOpStore(cfg.MaxOps),
		maxBody:  bodyLimit(cfg.Registry),
		baseCtx:  base,
		shutdown: cancel,
		started:  time.Now(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraph)
	mux.HandleFunc("GET /v1/graphs/{name}/bound", s.handleBound)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/color", s.handleColor)
	mux.HandleFunc("GET /v1/operations", s.handleOps)
	mux.HandleFunc("GET /v1/operations/{id}", s.handleOp)
	mux.HandleFunc("GET /v1/operations/{id}/events", s.handleOpEvents)
	mux.HandleFunc("DELETE /v1/operations/{id}", s.handleOpCancel)
	return mux
}

// Serve runs an HTTP server for the daemon on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	go func() {
		<-s.baseCtx.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Close cancels every in-flight solve and operation and stops Serve loops.
// The registry is the caller's to close.
func (s *Server) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		s.shutdown()
	}
	return nil
}

// ---- request plumbing ----

// requestCtx applies the effective deadline: the client's timeout_ms,
// bounded by MaxTimeout, defaulting to DefaultTimeout.
func (s *Server) requestCtx(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

func (s *Server) entry(name string) (*mis.RegistryEntry, *APIError) {
	if name == "" {
		return nil, invalid("missing graph name")
	}
	e, ok := s.reg.Get(name)
	if !ok {
		return nil, notFound("graph", name)
	}
	return e, nil
}

// pin is one request's hold on the graph generation it serves. A request
// acquires its entry once and derives the cache key, runs the computation
// and verifies on that one generation, so a concurrent journal compaction
// can never split it across two. The request and every cache computation
// it starts each hold a reference: a computation runs detached and can
// outlive the request (see compute).
type pin struct {
	graph   string
	f       *mis.File
	refs    atomic.Int32
	release func()
}

// acquirePin pins e's current generation with one reference, the caller's.
func acquirePin(e *mis.RegistryEntry) *pin {
	f, release := e.Acquire()
	p := &pin{graph: e.Name(), f: f, release: release}
	p.refs.Store(1)
	return p
}

// hold adds a reference for a new holder.
func (p *pin) hold() { p.refs.Add(1) }

// drop releases one reference; the last releases the generation.
func (p *pin) drop() {
	if p.refs.Add(-1) == 0 {
		p.release()
	}
}

// run is one scanning stage on the pinned generation: it passes admission,
// then runs fn.
func (s *Server) run(ctx context.Context, p *pin, fn func(context.Context, *mis.File) (any, error)) (any, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()
	if gate := testSolveGate.Load(); gate != nil {
		(*gate)(p.graph)
	}
	return fn(ctx, p.f)
}

// compute answers key through the cache, running fn as a stage on p's
// generation on a miss. The computation holds its own reference on p until
// it returns: it runs on a detached goroutine that keeps going when this
// request leaves at its deadline while other requests still wait on it.
func (s *Server) compute(ctx context.Context, key string, p *pin, fn func(context.Context, *mis.File) (any, error)) (any, cache.Outcome, error) {
	p.hold()
	v, outcome, err := s.cache.Do(ctx, key, func(cctx context.Context) (any, error) {
		defer p.drop()
		return s.run(cctx, p, fn)
	})
	if outcome != cache.Miss {
		p.drop() // only a miss runs fn, which drops the computation's hold
	}
	return v, outcome, err
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) *APIError {
	body, ae := s.readBody(w, r)
	if ae != nil {
		return ae
	}
	return decodeJSON(body, v)
}

// ---- solve ----

var algorithms = map[string]bool{
	string(mis.AlgGreedy): true, string(mis.AlgBaseline): true,
	string(mis.AlgOneKSwap): true, string(mis.AlgTwoKSwap): true,
	string(mis.AlgDynamicUpdate): true, string(mis.AlgExternalMaximal): true,
	"randomized": true,
}

// solveKey builds the cache key: graph identity by content, algorithm, and
// every result-affecting option. Scan parallelism is deliberately excluded
// — results are bit-identical for any worker count.
func solveKey(digest string, req *SolveRequest) string {
	return fmt.Sprintf("solve|%s|%s|mr=%d|es=%d|seed=%d", digest, req.Algorithm, req.MaxRounds, req.EarlyStop, req.Seed)
}

// cachedSolve is the cache value for a solve key, computed on a generation
// with the key's digest. The result is shared by every request that hits
// the entry: treat it as immutable.
type cachedSolve struct {
	res       *mis.Result
	elapsedMS int64
	verified  atomic.Bool
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if ae := s.decodeBody(w, r, &req); ae != nil {
		s.writeError(w, r, ae)
		return
	}
	if !algorithms[req.Algorithm] {
		s.writeError(w, r, invalid("unknown algorithm %q", req.Algorithm))
		return
	}
	e, ae := s.entry(req.Graph)
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}

	p := acquirePin(e)
	if req.Async {
		s.startSolveOp(w, p, &req)
		return
	}
	defer p.drop()

	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	resp, res, err := s.solve(ctx, p, &req, nil)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !req.IncludeVertices {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	body, err := encodeSolveResponse(resp, members(res.InSet))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// solve answers one solve request on p's generation through the cache. The
// response carries no vertex list: the caller renders one from the
// returned result when the request asks for it. events, when non-nil,
// receives round/progress events if this request ends up executing the
// solve (a request deduplicated onto an in-flight solve only observes
// completion).
func (s *Server) solve(ctx context.Context, p *pin, req *SolveRequest, events func(Event)) (*SolveResponse, *mis.Result, error) {
	digest, err := p.f.ContentDigest(ctx)
	if err != nil {
		return nil, nil, err
	}
	fn := func(cctx context.Context, f *mis.File) (any, error) { return s.executeSolve(cctx, f, req, events) }

	var (
		v       any
		outcome cache.Outcome
	)
	if req.NoCache {
		v, err = s.run(ctx, p, fn)
		outcome = cache.Miss
	} else {
		v, outcome, err = s.compute(ctx, solveKey(digest, req), p, fn)
	}
	if err != nil {
		return nil, nil, err
	}
	cs := v.(*cachedSolve)

	// The result was computed on a generation with p's digest, so verifying
	// on p checks exactly the graph the response names.
	verified := cs.verified.Load()
	if req.Verify && !verified {
		_, err := s.run(ctx, p, func(ctx context.Context, f *mis.File) (any, error) {
			return nil, mis.NewSolver(f, mis.Workers(s.cfg.Workers)).Verify(ctx, cs.res)
		})
		if err != nil {
			return nil, nil, err
		}
		cs.verified.Store(true)
		verified = true
	}

	return &SolveResponse{
		Graph:       p.graph,
		Algorithm:   req.Algorithm,
		Digest:      digest,
		Size:        cs.res.Size,
		Rounds:      cs.res.Rounds,
		RoundGains:  cs.res.RoundGains,
		MemoryBytes: cs.res.MemoryBytes,
		IO:          ioStats(cs.res.IO),
		Verified:    verified && req.Verify,
		Cache:       outcome.String(),
		ElapsedMS:   cs.elapsedMS,
	}, cs.res, nil
}

// executeSolve is the cache-miss stage: the one goroutine that actually
// scans. It runs the algorithm on f with the solver's event hooks wired to
// the sink.
func (s *Server) executeSolve(ctx context.Context, f *mis.File, req *SolveRequest, events func(Event)) (any, error) {
	opts := []mis.SolverOption{
		mis.MaxRounds(req.MaxRounds),
		mis.EarlyStop(req.EarlyStop),
		mis.Workers(s.cfg.Workers),
	}
	if req.BaselineOnSorted {
		opts = append(opts, mis.BaselineOnSorted())
	}
	if events != nil {
		opts = append(opts,
			mis.OnRound(func(ev mis.RoundEvent) {
				events(Event{Type: "round", Round: ev.Round, Gain: ev.Gain, Size: ev.Size})
			}),
			mis.OnProgress(progressThrottle(events)),
		)
	}
	solver := mis.NewSolver(f, opts...)

	start := time.Now()
	var (
		res *mis.Result
		err error
	)
	if req.Algorithm == "randomized" {
		res, err = solver.RandomizedMaximal(ctx, req.Seed)
	} else {
		res, err = solver.Solve(ctx, mis.Algorithm(req.Algorithm))
	}
	if err != nil {
		return nil, err
	}
	return &cachedSolve{res: res, elapsedMS: time.Since(start).Milliseconds()}, nil
}

// progressThrottle converts scan progress to events at ~1% granularity so
// an SSE feed is a heartbeat, not a firehose.
func progressThrottle(events func(Event)) func(mis.ScanProgress) {
	var lastPct atomic.Int64
	return func(p mis.ScanProgress) {
		pct := int64(p.Percent())
		if prev := lastPct.Load(); pct != prev && lastPct.CompareAndSwap(prev, pct) {
			events(Event{Type: "progress", Records: p.Records, Total: p.Total})
		}
	}
}

// startSolveOp runs the solve as a background operation on p's generation;
// the operation drops p when it finishes.
func (s *Server) startSolveOp(w http.ResponseWriter, p *pin, req *SolveRequest) {
	ctx, cancel := s.requestCtx(s.baseCtx, req.TimeoutMS)
	op := s.ops.add("solve", p.graph, req.Algorithm, cancel)
	go func() {
		defer cancel()
		defer p.drop()
		resp, res, err := s.solve(ctx, p, req, op.emit)
		if err != nil {
			_, ae := apiError(err)
			if ae.Code == CodeInternal {
				s.logf("misd: operation %s: %v", op.id, err)
			}
			op.finish(nil, ae, errors.Is(err, context.Canceled))
			return
		}
		if req.IncludeVertices {
			resp.Vertices = res.Vertices()
		}
		op.finish(resp, nil, false)
	}()
	writeJSON(w, http.StatusAccepted, OperationRef{Operation: op.id})
}

// ---- verify ----

// cachedVerify is the cache value for a verify key: the verdict is
// deterministic for (digest, vertex set), failures included.
type cachedVerify struct {
	ok     bool
	reason string
}

// verifyKey names a (digest, vertex set) pair by the SHA-256 of the list's
// little-endian bytes, hashed in one buffered pass.
func verifyKey(digest string, vertices []uint32) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	for _, v := range vertices {
		buf = binary.LittleEndian.AppendUint32(buf, v)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return fmt.Sprintf("verify|%s|%s", digest, hex.EncodeToString(h.Sum(nil)))
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	body, ae := s.readBody(w, r)
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	req, ae := decodeVerifyRequest(body)
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	e, ae := s.entry(req.Graph)
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	p := acquirePin(e)
	defer p.drop()

	digest, err := p.f.ContentDigest(ctx)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	v, outcome, err := s.compute(ctx, verifyKey(digest, req.Vertices), p, func(cctx context.Context, f *mis.File) (any, error) {
		return s.executeVerify(cctx, f, req.Vertices)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	cv := v.(*cachedVerify)
	writeJSON(w, http.StatusOK, VerifyResponse{
		Graph:  e.Name(),
		Digest: digest,
		OK:     cv.ok,
		Reason: cv.reason,
		Cache:  outcome.String(),
	})
}

func (s *Server) executeVerify(ctx context.Context, f *mis.File, vertices []uint32) (any, error) {
	inSet := make([]bool, f.NumVertices())
	for _, v := range vertices {
		if int(v) >= len(inSet) {
			return nil, invalid("vertex %d out of range (graph has %d vertices)", v, len(inSet))
		}
		inSet[v] = true
	}
	res := &mis.Result{InSet: inSet, Size: len(vertices)}
	err := mis.NewSolver(f, mis.Workers(s.cfg.Workers)).Verify(ctx, res)
	if err == nil {
		return &cachedVerify{ok: true}, nil
	}
	// A deadline, cancellation or I/O failure is this request's problem; a
	// verification verdict is a cacheable fact about (graph, set).
	if _, ae := apiError(err); ae.Code != CodeInternal && ae.Code != CodeVerifyFailed {
		return nil, err
	}
	return &cachedVerify{ok: false, reason: err.Error()}, nil
}

// ---- color and bound ----

type cachedColor struct {
	col       *mis.Coloring
	elapsedMS int64
}

func (s *Server) handleColor(w http.ResponseWriter, r *http.Request) {
	var req ColorRequest
	if ae := s.decodeBody(w, r, &req); ae != nil {
		s.writeError(w, r, ae)
		return
	}
	e, ae := s.entry(req.Graph)
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), req.TimeoutMS)
	defer cancel()
	p := acquirePin(e)
	defer p.drop()

	digest, err := p.f.ContentDigest(ctx)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	key := fmt.Sprintf("color|%s|mc=%d", digest, req.MaxColors)
	v, outcome, err := s.compute(ctx, key, p, func(cctx context.Context, f *mis.File) (any, error) {
		start := time.Now()
		col, err := mis.NewSolver(f, mis.Workers(s.cfg.Workers)).ColorByIS(cctx, req.MaxColors)
		if err != nil {
			return nil, err
		}
		return &cachedColor{col: col, elapsedMS: time.Since(start).Milliseconds()}, nil
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	cc := v.(*cachedColor)
	writeJSON(w, http.StatusOK, ColorResponse{
		Graph:      e.Name(),
		Digest:     digest,
		NumColors:  cc.col.NumColors,
		ClassSizes: cc.col.ClassSizes,
		Cache:      outcome.String(),
		ElapsedMS:  cc.elapsedMS,
	})
}

type cachedBound struct {
	upper uint64
	wei   float64
}

func (s *Server) handleBound(w http.ResponseWriter, r *http.Request) {
	e, ae := s.entry(r.PathValue("name"))
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), 0)
	defer cancel()
	p := acquirePin(e)
	defer p.drop()

	digest, err := p.f.ContentDigest(ctx)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	v, outcome, err := s.compute(ctx, "bound|"+digest, p, func(cctx context.Context, f *mis.File) (any, error) {
		solver := mis.NewSolver(f, mis.Workers(s.cfg.Workers))
		upper, err := solver.UpperBound(cctx)
		if err != nil {
			return nil, err
		}
		wei, err := solver.WeiBound(cctx)
		if err != nil {
			return nil, err
		}
		return &cachedBound{upper: upper, wei: wei}, nil
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	cb := v.(*cachedBound)
	writeJSON(w, http.StatusOK, BoundResponse{
		Graph:  e.Name(),
		Digest: digest,
		Upper:  cb.upper,
		Wei:    cb.wei,
		Cache:  outcome.String(),
	})
}

// ---- stat and status ----

func (s *Server) graphInfo(ctx context.Context, e *mis.RegistryEntry) (*GraphInfo, error) {
	f, release := e.Acquire()
	defer release()
	digest, err := f.ContentDigest(ctx)
	if err != nil {
		return nil, err
	}
	size, err := f.SizeBytes()
	if err != nil {
		return nil, err
	}
	gi := &GraphInfo{
		Name:         e.Name(),
		Vertices:     f.NumVertices(),
		Edges:        f.NumEdges(),
		AvgDegree:    f.AvgDegree(),
		DegreeSorted: f.DegreeSorted(),
		SizeBytes:    size,
		Digest:       digest,
		IO:           ioStats(f.Stats()),
	}
	if j := e.Journal(); j != nil {
		st := j.Stats()
		gi.Journal = &JournalInfo{
			Generation:     st.Generation,
			DeltaEdges:     st.DeltaEdges,
			JournalEdges:   st.JournalEdges,
			DurableRecords: st.DurableRecords,
			SetSize:        st.SetSize,
			Dirty:          st.Dirty,
		}
	}
	if f.Sharded() {
		digests, err := f.ShardDigests(ctx)
		if err != nil {
			return nil, err
		}
		gi.Shards = &ShardInfo{
			Count:      f.NumShards(),
			TotalBytes: size,
			Digests:    digests,
		}
	}
	return gi, nil
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r.Context(), 0)
	defer cancel()
	var out []*GraphInfo
	for _, name := range s.reg.Names() {
		e, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		gi, err := s.graphInfo(ctx, e)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		out = append(out, gi)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	e, ae := s.entry(r.PathValue("name"))
	if ae != nil {
		s.writeError(w, r, ae)
		return
	}
	ctx, cancel := s.requestCtx(r.Context(), 0)
	defer cancel()
	gi, err := s.graphInfo(ctx, e)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, gi)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	writeJSON(w, http.StatusOK, StatusResponse{
		Graphs: s.reg.Names(),
		Cache: CacheStats{
			Entries: cs.Entries, Inflight: cs.Inflight,
			Hits: cs.Hits, Misses: cs.Misses, Shared: cs.Shared, Evictions: cs.Evictions,
		},
		Solves:     s.adm.stats(),
		Operations: s.ops.stats(),
		UptimeMS:   time.Since(s.started).Milliseconds(),
	})
}

// ---- operations ----

func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ops.list())
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) {
	op, ok := s.ops.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, notFound("operation", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, op.info())
}

func (s *Server) handleOpCancel(w http.ResponseWriter, r *http.Request) {
	op, ok := s.ops.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, notFound("operation", r.PathValue("id")))
		return
	}
	op.cancel()
	writeJSON(w, http.StatusOK, op.info())
}

// handleOpEvents streams the operation's event feed as SSE: buffered events
// replay first, then live ones until the terminal done/error event.
func (s *Server) handleOpEvents(w http.ResponseWriter, r *http.Request) {
	op, ok := s.ops.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, r, notFound("operation", r.PathValue("id")))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, invalid("streaming unsupported by transport"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	events, unsub := op.subscribe()
	defer unsub()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
