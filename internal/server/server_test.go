package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mis "repro"
	"repro/internal/cache"
	"repro/internal/shard"
)

// writeGraph builds a small degree-sorted adjacency file.
func writeGraph(t *testing.T, path string, edges [][2]uint32, n int) {
	t.Helper()
	b := mis.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	if err := b.WriteFile(path, true); err != nil {
		t.Fatal(err)
	}
}

// pathGraph is a 6-vertex path: its MIS is {0,2,4} or similar, size 3.
var pathEdges = [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}

type testDaemon struct {
	srv  *Server
	http *httptest.Server
	reg  *mis.Registry
}

// newTestDaemon serves graphs "a" and "b" (plain files) and "dyn" (a
// journal store) from a temp dir.
func newTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.adj")
	writeGraph(t, a, pathEdges, 6)
	b := filepath.Join(dir, "b.adj")
	writeGraph(t, b, [][2]uint32{{0, 1}, {0, 2}, {0, 3}}, 5)

	base := filepath.Join(dir, "base.adj")
	writeGraph(t, base, pathEdges, 6)
	jdir := filepath.Join(dir, "dyn")
	if err := mis.InitJournal(jdir, base); err != nil {
		t.Fatal(err)
	}

	reg, err := mis.OpenRegistry(context.Background(), map[string]string{
		"a": a, "b": b, "dyn": jdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	cfg.Logf = t.Logf
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		reg.Close()
	})
	return &testDaemon{srv: srv, http: hs, reg: reg}
}

func (d *testDaemon) post(t *testing.T, path string, req, resp any) (int, *APIError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(d.http.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	return decodeResponse(t, r, resp)
}

func (d *testDaemon) get(t *testing.T, path string, resp any) (int, *APIError) {
	t.Helper()
	r, err := http.Get(d.http.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	return decodeResponse(t, r, resp)
}

func decodeResponse(t *testing.T, r *http.Response, resp any) (int, *APIError) {
	t.Helper()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode >= 400 {
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == nil {
			t.Fatalf("status %d with undecodable error body %q", r.StatusCode, data)
		}
		return r.StatusCode, er.Error
	}
	if resp != nil {
		if err := json.Unmarshal(data, resp); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return r.StatusCode, nil
}

func solveReq(graph string) *SolveRequest {
	return &SolveRequest{Graph: graph, Algorithm: "greedy"}
}

// setGate installs fn as the solve gate for the test's lifetime.
func setGate(t *testing.T, fn func(graph string)) {
	t.Helper()
	testSolveGate.Store(&fn)
	t.Cleanup(func() { testSolveGate.Store(nil) })
}

func TestSolveAndCacheHit(t *testing.T) {
	d := newTestDaemon(t, Config{})

	var first SolveResponse
	if code, ae := d.post(t, "/v1/solve", solveReq("a"), &first); ae != nil {
		t.Fatalf("first solve: %d %v", code, ae)
	}
	if first.Cache != "miss" {
		t.Fatalf("first solve cache = %q, want miss", first.Cache)
	}
	if first.Size != 3 {
		t.Fatalf("path MIS size = %d, want 3", first.Size)
	}
	if first.Digest == "" {
		t.Fatal("no digest in response")
	}

	var gi GraphInfo
	d.get(t, "/v1/graphs/a", &gi)
	scansAfterFirst := gi.IO.Scans

	var second SolveResponse
	if _, ae := d.post(t, "/v1/solve", solveReq("a"), &second); ae != nil {
		t.Fatal(ae)
	}
	if second.Cache != "hit" {
		t.Fatalf("second solve cache = %q, want hit", second.Cache)
	}
	if second.Size != first.Size || second.Digest != first.Digest {
		t.Fatalf("cache hit disagrees with original: %+v vs %+v", second, first)
	}

	d.get(t, "/v1/graphs/a", &gi)
	if gi.IO.Scans != scansAfterFirst {
		t.Fatalf("cache hit scanned the file: %d scans, had %d", gi.IO.Scans, scansAfterFirst)
	}
}

// TestSingleflightDedup drives n identical concurrent requests into a held
// solve and asserts exactly one executed: one miss, n-1 shared, and the
// file's scan counter advanced by a single solve's worth.
func TestSingleflightDedup(t *testing.T) {
	d := newTestDaemon(t, Config{})

	// Baseline: how many scans does one greedy solve cost?
	var probe SolveResponse
	if _, ae := d.post(t, "/v1/solve", solveReq("b"), &probe); ae != nil {
		t.Fatal(ae)
	}
	scansPerSolve := probe.IO.Scans

	var gi GraphInfo
	d.get(t, "/v1/graphs/a", &gi)
	scansBefore := gi.IO.Scans

	release := make(chan struct{})
	setGate(t, func(graph string) {
		if graph == "a" {
			<-release
		}
	})

	const n = 8
	results := make([]*SolveResponse, n)
	errs := make([]*APIError, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp SolveResponse
			_, ae := d.post(t, "/v1/solve", solveReq("a"), &resp)
			results[i], errs[i] = &resp, ae
		}()
	}

	// Wait until all n have reached the cache (one leader, n-1 joined),
	// then let the solve finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatusResponse
		d.get(t, "/v1/status", &st)
		if st.Cache.Misses+st.Cache.Shared >= uint64(n)+1 { // +1: the probe solve
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never converged on one flight: %+v", st.Cache)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	var miss, shared int
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		switch results[i].Cache {
		case "miss":
			miss++
		case "shared":
			shared++
		default:
			t.Fatalf("request %d outcome %q", i, results[i].Cache)
		}
		if results[i].Size != 3 {
			t.Fatalf("request %d size %d, want 3", i, results[i].Size)
		}
	}
	if miss != 1 || shared != n-1 {
		t.Fatalf("dedup outcomes: %d miss + %d shared, want 1 + %d", miss, shared, n-1)
	}

	d.get(t, "/v1/graphs/a", &gi)
	if got := gi.IO.Scans - scansBefore; got != scansPerSolve {
		t.Fatalf("%d requests cost %d scans, want %d (one solve)", n, got, scansPerSolve)
	}
}

// TestShortDeadlineDetaches holds a solve past a request's deadline: the
// request must come back with code "timeout" and the daemon must keep
// serving afterwards.
func TestShortDeadlineDetaches(t *testing.T) {
	d := newTestDaemon(t, Config{})

	release := make(chan struct{})
	setGate(t, func(graph string) {
		if graph == "a" {
			<-release
		}
	})

	req := solveReq("a")
	req.TimeoutMS = 50
	code, ae := d.post(t, "/v1/solve", req, nil)
	if ae == nil {
		t.Fatal("expected timeout error")
	}
	if code != http.StatusGatewayTimeout || ae.Code != CodeTimeout {
		t.Fatalf("got %d %q, want 504 %q", code, ae.Code, CodeTimeout)
	}
	if strings.Contains(ae.Message, t.TempDir()[:5]) {
		t.Fatalf("error message leaks paths: %q", ae.Message)
	}

	// Daemon must not be wedged: an untouched graph still solves.
	close(release)
	var resp SolveResponse
	if code, ae := d.post(t, "/v1/solve", solveReq("b"), &resp); ae != nil {
		t.Fatalf("daemon wedged after timeout: %d %v", code, ae)
	}
}

// TestOverloaded fills the single solve slot and zero-length queue; the
// next distinct request must get 429.
func TestOverloaded(t *testing.T) {
	d := newTestDaemon(t, Config{MaxSolves: 1, MaxQueue: -1})

	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	setGate(t, func(graph string) {
		entered <- struct{}{}
		<-release
	})
	defer close(release)

	held, _ := json.Marshal(solveReq("a"))
	go http.Post(d.http.URL+"/v1/solve", "application/json", bytes.NewReader(held))
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first solve never started")
	}

	code, ae := d.post(t, "/v1/solve", solveReq("b"), nil)
	if ae == nil || code != http.StatusTooManyRequests || ae.Code != CodeOverloaded {
		t.Fatalf("got %d %v, want 429 %q", code, ae, CodeOverloaded)
	}
}

// TestCompactionInvalidatesCache mutates a journal graph and compacts; the
// digest flips, so the old cached result stops being addressed and the next
// solve misses.
func TestCompactionInvalidatesCache(t *testing.T) {
	d := newTestDaemon(t, Config{})
	ctx := context.Background()

	var first SolveResponse
	if _, ae := d.post(t, "/v1/solve", solveReq("dyn"), &first); ae != nil {
		t.Fatal(ae)
	}
	var again SolveResponse
	if _, ae := d.post(t, "/v1/solve", solveReq("dyn"), &again); ae != nil {
		t.Fatal(ae)
	}
	if again.Cache != "hit" || again.Digest != first.Digest {
		t.Fatalf("pre-compaction solve should hit: %+v", again)
	}

	e, _ := d.reg.Get("dyn")
	j := e.Journal()
	// Connect 0-2 and 0-4: the path's size-3 set {0,2,4} dies.
	if err := j.InsertEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.InsertEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(ctx); err != nil {
		t.Fatal(err)
	}

	var after SolveResponse
	if _, ae := d.post(t, "/v1/solve", solveReq("dyn"), &after); ae != nil {
		t.Fatal(ae)
	}
	if after.Cache != "miss" {
		t.Fatalf("post-compaction solve cache = %q, want miss", after.Cache)
	}
	if after.Digest == first.Digest {
		t.Fatal("digest unchanged across compaction that folded edges")
	}
	var gi GraphInfo
	d.get(t, "/v1/graphs/dyn", &gi)
	if gi.Digest != after.Digest {
		t.Fatalf("stat digest %s disagrees with solve digest %s", gi.Digest, after.Digest)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	d := newTestDaemon(t, Config{})

	var good VerifyResponse
	if _, ae := d.post(t, "/v1/verify", &VerifyRequest{Graph: "a", Vertices: []uint32{0, 2, 4}}, &good); ae != nil {
		t.Fatal(ae)
	}
	if !good.OK {
		t.Fatalf("valid MIS rejected: %q", good.Reason)
	}

	// 0-1 is an edge: not independent. The verdict is data, not an error.
	var bad VerifyResponse
	code, ae := d.post(t, "/v1/verify", &VerifyRequest{Graph: "a", Vertices: []uint32{0, 1}}, &bad)
	if ae != nil || code != http.StatusOK {
		t.Fatalf("failed verify must be 200 with ok=false, got %d %v", code, ae)
	}
	if bad.OK || bad.Reason == "" {
		t.Fatalf("want ok=false with reason, got %+v", bad)
	}
	if strings.Contains(bad.Reason, "/") {
		t.Fatalf("verify reason leaks a path: %q", bad.Reason)
	}

	// Same verdict again: cached.
	var cached VerifyResponse
	d.post(t, "/v1/verify", &VerifyRequest{Graph: "a", Vertices: []uint32{0, 1}}, &cached)
	if cached.Cache != "hit" || cached.OK {
		t.Fatalf("repeat verify: %+v, want cached ok=false", cached)
	}

	code, ae = d.post(t, "/v1/verify", &VerifyRequest{Graph: "a", Vertices: []uint32{99}}, nil)
	if ae == nil || code != http.StatusBadRequest || ae.Code != CodeInvalidArgument {
		t.Fatalf("out-of-range vertex: %d %v, want 400 %q", code, ae, CodeInvalidArgument)
	}
}

func TestRequestValidation(t *testing.T) {
	d := newTestDaemon(t, Config{})

	code, ae := d.post(t, "/v1/solve", solveReq("nope"), nil)
	if ae == nil || code != http.StatusNotFound || ae.Code != CodeNotFound {
		t.Fatalf("unknown graph: %d %v", code, ae)
	}

	req := solveReq("a")
	req.Algorithm = "quantum"
	code, ae = d.post(t, "/v1/solve", req, nil)
	if ae == nil || code != http.StatusBadRequest || ae.Code != CodeInvalidArgument {
		t.Fatalf("unknown algorithm: %d %v", code, ae)
	}

	r, err := http.Post(d.http.URL+"/v1/solve", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if code, ae := decodeResponse(t, r, nil); ae == nil || code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d %v", code, ae)
	}

	// Baseline on a degree-sorted file without the opt-in: stable 400, no
	// filesystem detail in the message.
	req = solveReq("a")
	req.Algorithm = "baseline"
	code, ae = d.post(t, "/v1/solve", req, nil)
	if ae == nil || code != http.StatusBadRequest || ae.Code != CodeInvalidArgument {
		t.Fatalf("baseline-on-sorted: %d %v", code, ae)
	}
	if strings.Contains(ae.Message, "/") {
		t.Fatalf("error message leaks a path: %q", ae.Message)
	}
}

func TestVerifyInSolveMemoized(t *testing.T) {
	d := newTestDaemon(t, Config{})

	req := solveReq("a")
	req.Verify = true
	var first SolveResponse
	if _, ae := d.post(t, "/v1/solve", req, &first); ae != nil {
		t.Fatal(ae)
	}
	if !first.Verified {
		t.Fatal("first solve not verified")
	}
	var gi GraphInfo
	d.get(t, "/v1/graphs/a", &gi)
	scans := gi.IO.Scans

	var second SolveResponse
	if _, ae := d.post(t, "/v1/solve", req, &second); ae != nil {
		t.Fatal(ae)
	}
	if second.Cache != "hit" || !second.Verified {
		t.Fatalf("repeat verified solve: %+v", second)
	}
	d.get(t, "/v1/graphs/a", &gi)
	if gi.IO.Scans != scans {
		t.Fatal("repeat verify of a cached result re-scanned the file")
	}
}

func TestBoundAndColorAndStatus(t *testing.T) {
	d := newTestDaemon(t, Config{})

	var bound BoundResponse
	if _, ae := d.get(t, "/v1/graphs/a/bound", &bound); ae != nil {
		t.Fatal(ae)
	}
	if bound.Upper < 3 || bound.Upper > 6 {
		t.Fatalf("upper bound %d outside [3,6]", bound.Upper)
	}
	var bound2 BoundResponse
	d.get(t, "/v1/graphs/a/bound", &bound2)
	if bound2.Cache != "hit" {
		t.Fatalf("repeat bound: %q, want hit", bound2.Cache)
	}

	var col ColorResponse
	if _, ae := d.post(t, "/v1/color", &ColorRequest{Graph: "a"}, &col); ae != nil {
		t.Fatal(ae)
	}
	if col.NumColors < 2 {
		t.Fatalf("path colored with %d colors", col.NumColors)
	}

	var st StatusResponse
	if _, ae := d.get(t, "/v1/status", &st); ae != nil {
		t.Fatal(ae)
	}
	if len(st.Graphs) != 3 {
		t.Fatalf("status graphs %v", st.Graphs)
	}
	if st.Cache.Misses == 0 {
		t.Fatal("status reports no cache activity after solves")
	}

	var graphs []*GraphInfo
	if _, ae := d.get(t, "/v1/graphs", &graphs); ae != nil {
		t.Fatal(ae)
	}
	if len(graphs) != 3 {
		t.Fatalf("graph listing has %d entries", len(graphs))
	}
	for _, gi := range graphs {
		if gi.Name == "dyn" && gi.Journal == nil {
			t.Fatal("journal entry missing journal info")
		}
	}
}

// TestAsyncOperation runs a background solve and follows its SSE feed to
// the terminal event.
func TestAsyncOperation(t *testing.T) {
	d := newTestDaemon(t, Config{})

	req := solveReq("a")
	req.Algorithm = "one-k-swap"
	req.Async = true
	var ref OperationRef
	if code, ae := d.post(t, "/v1/solve", req, &ref); ae != nil || code != http.StatusAccepted {
		t.Fatalf("async solve: %d %v", code, ae)
	}
	if ref.Operation == "" {
		t.Fatal("no operation id")
	}

	deadline := time.Now().Add(10 * time.Second)
	var info OperationInfo
	for {
		if _, ae := d.get(t, "/v1/operations/"+ref.Operation, &info); ae != nil {
			t.Fatal(ae)
		}
		if info.Status != opRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("operation stuck running: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.Status != opDone || info.Result == nil || info.Result.Size != 3 {
		t.Fatalf("operation finished badly: %+v", info)
	}

	// The event feed replays to the terminal event even after completion.
	r, err := http.Get(d.http.URL + "/v1/operations/" + ref.Operation + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, ev)
		}
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Fatalf("event feed %v does not end in done", types)
	}

	var ops []OperationInfo
	if _, ae := d.get(t, "/v1/operations", &ops); ae != nil {
		t.Fatal(ae)
	}
	if len(ops) != 1 || ops[0].ID != ref.Operation {
		t.Fatalf("operations listing %+v", ops)
	}
}

func TestOperationCancel(t *testing.T) {
	d := newTestDaemon(t, Config{})

	release := make(chan struct{})
	setGate(t, func(graph string) { <-release })
	defer close(release)

	req := solveReq("a")
	req.Async = true
	var ref OperationRef
	if _, ae := d.post(t, "/v1/solve", req, &ref); ae != nil {
		t.Fatal(ae)
	}

	var info OperationInfo
	if _, ae := d.get(t, "/v1/operations/"+ref.Operation, &info); ae != nil {
		t.Fatal(ae)
	}
	if info.Status != opRunning {
		t.Fatalf("operation %q, want running", info.Status)
	}

	hreq, _ := http.NewRequest(http.MethodDelete, d.http.URL+"/v1/operations/"+ref.Operation, nil)
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		d.get(t, "/v1/operations/"+ref.Operation, &info)
		if info.Status != opRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled operation still running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.Status != opCanceled {
		t.Fatalf("operation %q, want canceled", info.Status)
	}
}

// TestConcurrentClients is the race-detector stress: N clients hammering M
// graphs with mixed algorithms and verifies, while the journal graph
// compacts underneath them.
func TestConcurrentClients(t *testing.T) {
	d := newTestDaemon(t, Config{MaxSolves: 4})
	algs := []string{"greedy", "one-k-swap", "external-maximal", "randomized"}
	graphs := []string{"a", "b", "dyn"}

	var wg sync.WaitGroup
	for c := range 12 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				req := solveReq(graphs[(c+i)%len(graphs)])
				req.Algorithm = algs[(c+3*i)%len(algs)]
				req.Seed = int64(c)
				req.Verify = i%3 == 0
				var resp SolveResponse
				code, ae := d.post(t, "/v1/solve", req, &resp)
				if ae != nil {
					t.Errorf("client %d req %d: %d %v", c, i, code, ae)
					return
				}
				if resp.Size == 0 {
					t.Errorf("client %d req %d: empty set", c, i)
				}
			}
		}()
	}
	// Concurrent compactions flip the journal generation mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e, _ := d.reg.Get("dyn")
		j := e.Journal()
		for i := range 4 {
			if err := j.InsertEdge(uint32(i), uint32(i+2)%6); err != nil {
				t.Error(err)
				return
			}
			if err := j.Compact(context.Background()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestNoCacheBypasses(t *testing.T) {
	d := newTestDaemon(t, Config{})

	if _, ae := d.post(t, "/v1/solve", solveReq("a"), nil); ae != nil {
		t.Fatal(ae)
	}
	req := solveReq("a")
	req.NoCache = true
	var resp SolveResponse
	if _, ae := d.post(t, "/v1/solve", req, &resp); ae != nil {
		t.Fatal(ae)
	}
	if resp.Cache != "miss" {
		t.Fatalf("no_cache solve reported %q", resp.Cache)
	}
}

func TestUnknownErrorStaysGeneric(t *testing.T) {
	status, ae := apiError(fmt.Errorf("open /var/lib/secret/graph.adj: permission denied"))
	if status != http.StatusInternalServerError || ae.Code != CodeInternal {
		t.Fatalf("got %d %q", status, ae.Code)
	}
	if strings.Contains(ae.Message, "/var/lib") {
		t.Fatalf("internal error leaked detail: %q", ae.Message)
	}
}

// TestShardedGraphInfo: a manifest-backed graph serves like any other, and
// its GraphInfo carries the shard layout — count, total bytes, per-shard
// digests.
func TestShardedGraphInfo(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "g.adj")
	writeGraph(t, single, pathEdges, 6)
	shardDir := filepath.Join(dir, "sharded")
	if _, err := shard.SplitFile(context.Background(), single, shardDir, shard.SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	reg, err := mis.OpenRegistry(context.Background(), map[string]string{"sh": shardDir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg, Logf: t.Logf})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
		reg.Close()
	}()
	d := &testDaemon{srv: srv, http: hs, reg: reg}

	var gi GraphInfo
	if code, ae := d.get(t, "/v1/graphs/sh", &gi); ae != nil {
		t.Fatalf("graph info: %d %v", code, ae)
	}
	if gi.Shards == nil {
		t.Fatal("sharded graph info has no shard metadata")
	}
	if gi.Shards.Count != 3 || len(gi.Shards.Digests) != 3 {
		t.Fatalf("shard metadata %+v, want 3 shards with 3 digests", gi.Shards)
	}
	if gi.Shards.TotalBytes != gi.SizeBytes {
		t.Errorf("shard total bytes %d != size %d", gi.Shards.TotalBytes, gi.SizeBytes)
	}
	for i, dgst := range gi.Shards.Digests {
		if len(dgst) != 64 {
			t.Errorf("shard %d digest %q is not a sha256 hex", i, dgst)
		}
	}
	if gi.Vertices != 6 {
		t.Errorf("vertices = %d, want 6", gi.Vertices)
	}

	// Solves work against the sharded entry, and the cache keys on the
	// combined digest: the second solve is a hit.
	var first, second SolveResponse
	if code, ae := d.post(t, "/v1/solve", solveReq("sh"), &first); ae != nil {
		t.Fatalf("solve: %d %v", code, ae)
	}
	if first.Size != 3 {
		t.Fatalf("path MIS size = %d, want 3", first.Size)
	}
	if _, ae := d.post(t, "/v1/solve", solveReq("sh"), &second); ae != nil {
		t.Fatalf("second solve: %v", ae)
	}
	if second.Cache != "hit" {
		t.Errorf("second solve cache = %q, want hit", second.Cache)
	}
	if first.Digest == "" || first.Digest != second.Digest {
		t.Errorf("digests %q vs %q", first.Digest, second.Digest)
	}
}

// TestGenerationPinnedPerRequest compacts the journal graph inside every
// scanning stage of a request — between deriving the cache key and
// computing, and between computing and verifying — each time connecting two
// members of the path's independent set. The request must still answer for
// the generation it started on: its digest, its set, its verification and
// its verdict are that generation's.
func TestGenerationPinnedPerRequest(t *testing.T) {
	// setup serves a fresh daemon and returns the journal graph's starting
	// digest, the path's greedy set (from the identical plain graph "a",
	// uncached: "a" and "dyn" share a digest, so a cached result would be a
	// hit for "dyn"), and the number of compactions the gate has run.
	setup := func(t *testing.T) (d *testDaemon, digest string, set []uint32, compactions *atomic.Int32) {
		t.Helper()
		d = newTestDaemon(t, Config{})
		var ref SolveResponse
		req := solveReq("a")
		req.IncludeVertices = true
		req.NoCache = true
		if _, ae := d.post(t, "/v1/solve", req, &ref); ae != nil {
			t.Fatal(ae)
		}
		if len(ref.Vertices) != 3 {
			t.Fatalf("path greedy set %v, want 3 vertices", ref.Vertices)
		}
		var gi GraphInfo
		if _, ae := d.get(t, "/v1/graphs/dyn", &gi); ae != nil {
			t.Fatal(ae)
		}

		e, _ := d.reg.Get("dyn")
		j := e.Journal()
		set = ref.Vertices
		pairs := [][2]uint32{{set[0], set[1]}, {set[1], set[2]}, {set[0], set[2]}}
		compactions = new(atomic.Int32)
		setGate(t, func(graph string) {
			if graph != "dyn" {
				return
			}
			i := compactions.Add(1) - 1
			if int(i) >= len(pairs) {
				t.Errorf("stage %d: more stages than edges to insert", i)
				return
			}
			if err := j.InsertEdge(pairs[i][0], pairs[i][1]); err != nil {
				t.Error(err)
			}
			if err := j.Compact(context.Background()); err != nil {
				t.Error(err)
			}
		})
		return d, gi.Digest, set, compactions
	}
	// unscanned checks that the generations the gate installed were never
	// scanned: every stage ran on the request's own.
	unscanned := func(t *testing.T, d *testDaemon, digest string) {
		t.Helper()
		var gi GraphInfo
		if _, ae := d.get(t, "/v1/graphs/dyn", &gi); ae != nil {
			t.Fatal(ae)
		}
		if gi.Digest == digest {
			t.Fatal("the journal graph did not move to a new generation")
		}
		if gi.IO.Scans != 0 {
			t.Errorf("the current generation was scanned %d times, want 0", gi.IO.Scans)
		}
	}
	checkSolve := func(t *testing.T, resp *SolveResponse, digest string, set []uint32) {
		t.Helper()
		if resp.Digest != digest {
			t.Errorf("digest %s, want the request's generation %s", resp.Digest, digest)
		}
		if !resp.Verified {
			t.Error("solve not verified")
		}
		if !slices.Equal(resp.Vertices, set) {
			t.Errorf("set %v, want the path's %v", resp.Vertices, set)
		}
	}

	t.Run("solve", func(t *testing.T) {
		d, digest, set, compactions := setup(t)
		req := &SolveRequest{Graph: "dyn", Algorithm: "greedy", Verify: true, IncludeVertices: true}
		var resp SolveResponse
		if code, ae := d.post(t, "/v1/solve", req, &resp); ae != nil {
			t.Fatalf("solve: %d %v", code, ae)
		}
		if n := compactions.Load(); n != 2 {
			t.Fatalf("%d compactions, want one before the solve and one before the verify", n)
		}
		checkSolve(t, &resp, digest, set)
		unscanned(t, d, digest)
	})

	t.Run("solve-async", func(t *testing.T) {
		d, digest, set, compactions := setup(t)
		req := &SolveRequest{Graph: "dyn", Algorithm: "greedy", Verify: true, IncludeVertices: true, Async: true}
		var ref OperationRef
		if code, ae := d.post(t, "/v1/solve", req, &ref); ae != nil {
			t.Fatalf("async solve: %d %v", code, ae)
		}
		var info OperationInfo
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if _, ae := d.get(t, "/v1/operations/"+ref.Operation, &info); ae != nil {
				t.Fatal(ae)
			}
			if info.Status != opRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("operation stuck running")
			}
		}
		if info.Status != opDone || info.Result == nil {
			t.Fatalf("operation finished %q: %+v", info.Status, info.Error)
		}
		if n := compactions.Load(); n != 2 {
			t.Fatalf("%d compactions, want 2", n)
		}
		checkSolve(t, info.Result, digest, set)
		unscanned(t, d, digest)
	})

	t.Run("verify", func(t *testing.T) {
		d, digest, set, compactions := setup(t)
		var resp VerifyResponse
		if code, ae := d.post(t, "/v1/verify", &VerifyRequest{Graph: "dyn", Vertices: set}, &resp); ae != nil {
			t.Fatalf("verify: %d %v", code, ae)
		}
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions, want 1", n)
		}
		if resp.Digest != digest || !resp.OK {
			t.Errorf("verdict ok=%v (%s) on %s, want ok on the request's generation %s", resp.OK, resp.Reason, resp.Digest, digest)
		}
		unscanned(t, d, digest)
	})

	// pathSolver runs the library on the plain copy of the starting graph.
	pathSolver := func(t *testing.T, d *testDaemon) *mis.Solver {
		t.Helper()
		e, _ := d.reg.Get("a")
		f, release := e.Acquire()
		t.Cleanup(release)
		return mis.NewSolver(f)
	}

	t.Run("color", func(t *testing.T) {
		d, digest, _, compactions := setup(t)
		want, err := pathSolver(t, d).ColorByIS(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var resp ColorResponse
		if code, ae := d.post(t, "/v1/color", &ColorRequest{Graph: "dyn"}, &resp); ae != nil {
			t.Fatalf("color: %d %v", code, ae)
		}
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions, want 1", n)
		}
		if resp.Digest != digest {
			t.Errorf("digest %s, want the request's generation %s", resp.Digest, digest)
		}
		if resp.NumColors != want.NumColors || !slices.Equal(resp.ClassSizes, want.ClassSizes) {
			t.Errorf("coloring %d %v, want the path's %d %v", resp.NumColors, resp.ClassSizes, want.NumColors, want.ClassSizes)
		}
		unscanned(t, d, digest)
	})

	t.Run("bound", func(t *testing.T) {
		d, digest, _, compactions := setup(t)
		solver := pathSolver(t, d)
		upper, err := solver.UpperBound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wei, err := solver.WeiBound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var resp BoundResponse
		if code, ae := d.get(t, "/v1/graphs/dyn/bound", &resp); ae != nil {
			t.Fatalf("bound: %d %v", code, ae)
		}
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions, want 1", n)
		}
		if resp.Digest != digest {
			t.Errorf("digest %s, want the request's generation %s", resp.Digest, digest)
		}
		if resp.Upper != upper || resp.Wei != wei {
			t.Errorf("bounds %d %g, want the path's %d %g", resp.Upper, resp.Wei, upper, wei)
		}
		unscanned(t, d, digest)
	})
}

// TestComputationHoldsItsOwnPin: a cache computation keeps the request's
// generation pinned after the request that started it has detached, until
// the computation returns; a request answered from the cache leaves no
// reference behind.
func TestComputationHoldsItsOwnPin(t *testing.T) {
	d := newTestDaemon(t, Config{})
	e, _ := d.reg.Get("dyn")
	f, release := e.Acquire()
	released := make(chan struct{})
	p := &pin{graph: "dyn", f: f, release: func() { release(); close(released) }}
	p.refs.Store(1)

	started, finish := make(chan struct{}), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := d.srv.compute(ctx, "pin-test", p, func(context.Context, *mis.File) (any, error) {
			close(started)
			<-finish
			return "done", nil
		})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached request: %v, want context.Canceled", err)
	}
	p.drop() // the request's own reference
	select {
	case <-released:
		t.Fatal("generation released while the computation still runs")
	default:
	}
	close(finish)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the computation never released its reference")
	}

	// A request answered from the cache runs nothing and keeps no extra
	// reference. A miss that returns has run its computation to the end.
	f2, release2 := e.Acquire()
	defer release2()
	p2 := &pin{graph: "dyn", f: f2, release: func() {}}
	p2.refs.Store(1)
	fill := func(context.Context, *mis.File) (any, error) { return "v", nil }
	for _, want := range []cache.Outcome{cache.Miss, cache.Hit} {
		_, outcome, err := d.srv.compute(context.Background(), "hit-test", p2, fill)
		if err != nil || outcome != want {
			t.Fatalf("compute: %v %v, want %v", outcome, err, want)
		}
		if n := p2.refs.Load(); n != 1 {
			t.Fatalf("%d references after a %v, want the request's 1", n, outcome)
		}
	}
}

// TestBodyLimit: POST bodies are bounded by the longest vertex list the
// largest graph can need plus the envelope allowance. A body one byte over
// is refused with invalid_argument naming the limit before any of it is
// parsed, whether or not the client declared its length.
func TestBodyLimit(t *testing.T) {
	d := newTestDaemon(t, Config{})
	limit := d.srv.maxBody
	if want := int64(11*6 + envelopeBytes); limit != want {
		t.Fatalf("limit %d, want %d: 11 bytes per vertex of the largest graph plus %d", limit, want, envelopeBytes)
	}

	post := func(path string, body io.Reader) (int, *APIError) {
		t.Helper()
		r, err := http.Post(d.http.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		return decodeResponse(t, r, nil)
	}
	// json.Decoder never reads past the first value, so padding after it
	// keeps a body valid at any length.
	pad := func(body string, n int64) string { return body + strings.Repeat(" ", int(n)-len(body)) }
	unsized := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) }

	atLimit := pad(`{"graph":"a","vertices":[0,2,4]}`, limit)
	if code, ae := post("/v1/verify", strings.NewReader(atLimit)); ae != nil {
		t.Fatalf("body at the limit: %d %v", code, ae)
	}
	if code, ae := post("/v1/verify", unsized(atLimit)); ae != nil {
		t.Fatalf("unsized body at the limit: %d %v", code, ae)
	}

	over := pad(`{nope`, limit+1)
	for _, tc := range []struct {
		name string
		path string
		body io.Reader
	}{
		{"verify", "/v1/verify", strings.NewReader(over)},
		{"verify without Content-Length", "/v1/verify", unsized(over)},
		{"solve", "/v1/solve", strings.NewReader(over)},
		{"color without Content-Length", "/v1/color", unsized(over)},
	} {
		code, ae := post(tc.path, tc.body)
		if ae == nil || code != http.StatusBadRequest || ae.Code != CodeInvalidArgument {
			t.Fatalf("%s: one byte over the limit: %d %v, want 400 %q", tc.name, code, ae, CodeInvalidArgument)
		}
		if !strings.Contains(ae.Message, strconv.FormatInt(limit, 10)) {
			t.Errorf("%s: message %q does not name the %d-byte limit", tc.name, ae.Message, limit)
		}
	}
}
