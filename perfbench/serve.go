package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	mis "repro"
	"repro/internal/server"
)

// daemon is an in-process misd: server.New over mis.OpenRegistry with the
// daemon's defaults, serving HTTP on a unix socket.
type daemon struct {
	reg  *mis.Registry
	srv  *server.Server
	sock string
	done chan error
	log  *daemonLog
}

// daemonLog keeps the daemon's log lines (unclassified internal errors).
type daemonLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (l *daemonLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if len(l.first) < 3 {
		l.first = append(l.first, fmt.Sprintf(format, args...))
	}
}

// startDaemon opens the registry and serves it, returning once the socket
// answers GET /v1/status. The returned duration is the set-up a daemon
// user pays: registry open (journal recovery included) until the socket
// accepts.
func startDaemon(ctx context.Context, graphs map[string]string, sock string) (*daemon, time.Duration, error) {
	start := time.Now()
	reg, err := mis.OpenRegistry(ctx, graphs)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{reg: reg, sock: sock, done: make(chan error, 1), log: &daemonLog{}}
	d.srv = server.New(server.Config{Registry: reg, Logf: d.log.logf})
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		reg.Close()
		return nil, 0, err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		reg.Close()
		return nil, 0, err
	}
	go func() { d.done <- d.srv.Serve(l) }()
	c := newClient(sock)
	defer c.close()
	var st server.StatusResponse
	if res := c.call(ctx, http.MethodGet, "/v1/status", nil, &st); res.status != http.StatusOK {
		d.stop()
		return nil, 0, fmt.Errorf("daemon status: %d %s %v", res.status, res.code, res.err)
	}
	return d, time.Since(start), nil
}

// stop shuts the server down, waits for Serve to return and closes the
// registry.
func (d *daemon) stop() error {
	d.srv.Close()
	err := <-d.done
	if cerr := d.reg.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(d.sock); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop client with one connection.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient(sock string) *client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// callResult is the outcome of one request.
type callResult struct {
	status  int
	code    string // API error code of a non-2xx answer
	latency time.Duration
	err     error // transport or decoding failure
}

// call sends one request with a pre-encoded body (nil for GET) and decodes
// a 2xx answer into out. The latency runs from sending the request to the
// decoded answer; encoding the request body is the caller's, untimed.
func (c *client) call(ctx context.Context, method, path string, body []byte, out any) callResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://misd"+path, rd)
	if err != nil {
		return callResult{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return callResult{err: err, latency: time.Since(start)}
	}
	defer resp.Body.Close()
	res := callResult{status: resp.StatusCode}
	if resp.StatusCode/100 == 2 {
		res.err = json.NewDecoder(resp.Body).Decode(out)
	} else {
		var e struct {
			Error server.APIError `json:"error"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&e); derr == nil {
			res.code = e.Error.Code
		} else {
			res.code = "undecodable"
		}
	}
	res.latency = time.Since(start)
	return res
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are encoded
	}
	return b
}

// reqRecord is one daemon request as the client saw it.
type reqRecord struct {
	kind      string // the request kind of the workload's mix
	route     string // solve, verify, bound
	graph     string
	alg       string
	cache     string
	status    int
	code      string
	latency   time.Duration
	cycle     time.Duration // the client's whole turn: request, check and span
	elapsedMS int64
	vertices  bool
	failed    bool // non-2xx, transport failure, or a wrong answer
	traced    bool
}

// traceRequest records a request span with its attributes and marks the
// record traced.
func traceRequest(tr *tracer, rec *reqRecord, start time.Time) {
	if tr == nil {
		return
	}
	rec.traced = true
	tr.interval("http."+rec.route, nil, start, start.Add(rec.latency), map[string]any{
		"route": rec.route, "graph": rec.graph, "alg": rec.alg, "cache": rec.cache,
		"status": rec.status, "elapsed_ms": rec.elapsedMS,
	})
}

// traceOverhead is the traced requests' p50 client turn minus the
// untraced ones', in ms, from one phase in which they alternate; n counts
// the traced requests.
func traceOverhead(recs []reqRecord) (overhead float64, n int) {
	var on, off samples
	for _, rec := range recs {
		if rec.traced {
			on.addDur(rec.cycle, time.Millisecond)
		} else {
			off.addDur(rec.cycle, time.Millisecond)
		}
	}
	return on.median() - off.median(), len(on)
}

// serveMetrics computes the request metrics shared by both daemon
// workloads from a phase that lasted seconds.
func serveMetrics(r *report, recs []reqRecord, seconds float64) {
	var lat, hit, missOverhead, verts samples
	failures := map[string]int{}
	completed, failed, rejected := 0, 0, 0
	for _, rec := range recs {
		lat.addDur(rec.latency, time.Millisecond)
		if rec.failed {
			failed++
			code := rec.code
			if code == "" {
				code = "wrong_answer"
			}
			failures[code]++
			if rec.status == http.StatusTooManyRequests {
				rejected++
			}
			continue
		}
		completed++
		switch {
		case rec.cache == "hit" && rec.vertices:
			verts.addDur(rec.latency, time.Millisecond)
		case rec.cache == "hit":
			hit.addDur(rec.latency, time.Millisecond)
		case rec.cache == "miss" && rec.route == "solve":
			missOverhead.add(float64(rec.latency)/float64(time.Millisecond) - float64(rec.elapsedMS))
		}
	}
	r.e2e("req_per_s", float64(completed)/seconds, "1/s", completed, "completed requests per second")
	r.e2e("p50_ms", lat.median(), "ms", len(lat), "request latency")
	if p99, ok := lat.tail(); ok {
		r.e2e("p99_ms", p99, "ms", len(lat), "request latency")
	} else {
		r.e2e("p99_ms", lat.quantile(0.99), "ms", len(lat), "fewer than 10 samples beyond the p99")
	}
	r.e2e("fail_ratio", float64(failed)/float64(max(len(recs), 1)), "ratio", len(recs), "non-2xx or wrong answer, over attempted")
	r.Attempted, r.Failed = len(recs), failed

	r.layer("server.hit_p50_ms", hit.median(), "ms", len(hit), "responses reporting cache: hit")
	r.layer("server.miss_overhead_ms", missOverhead.median(), "ms", len(missOverhead), "solve misses: latency − elapsed_ms")
	r.layer("server.vertices_ms", verts.median(), "ms", len(verts), "include_vertices hits")
	r.layer("server.rejected", float64(rejected), "count", 0, "429 answers")
	codes := make([]string, 0, len(failures))
	for c := range failures {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		if c != "internal" {
			r.layer("server.fail."+c, float64(failures[c]), "count", 0, "")
		}
	}
	r.layer("server.fail.internal", float64(failures["internal"]), "count", 0, "")
}

// cacheDelta reports the change in the daemon's cache counters.
func cacheDelta(r *report, before, after server.CacheStats) {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	shared := after.Shared - before.Shared
	r.layer("cache.hit_ratio", float64(hits)/float64(max(hits+misses+shared, 1)), "ratio", 0, "")
	r.layer("cache.hits", float64(hits), "count", 0, "")
	r.layer("cache.misses", float64(misses), "count", 0, "")
	r.layer("cache.shared", float64(shared), "count", 0, "")
	r.layer("cache.evictions", float64(after.Evictions-before.Evictions), "count", 0, "")
}

func status(ctx context.Context, sock string) (server.StatusResponse, error) {
	c := newClient(sock)
	defer c.close()
	var st server.StatusResponse
	res := c.call(ctx, http.MethodGet, "/v1/status", nil, &st)
	if res.status != http.StatusOK {
		return st, fmt.Errorf("status: %d %s %v", res.status, res.code, res.err)
	}
	return st, nil
}

// algMetric turns a wire algorithm name into a metric suffix.
func algMetric(alg string) string { return strings.ReplaceAll(alg, "-", "_") }
