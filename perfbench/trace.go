package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer.
// Spans stay in memory until the run ends (see write). A nil *tracer is the
// untraced run: every method is then a no-op, so the measured code paths of
// both runs are the same apart from the recording itself.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Spans of one request or iteration share
// Trace; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Trace  uint64         `json:"trace"`
	Name   string         `json:"name"`
	Start  float64        `json:"start_s"`
	End    float64        `json:"end_s"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; nil when tracing is off.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (nil for a new trace root).
func (t *tracer) begin(name string, parent *active) *active {
	if t == nil {
		return nil
	}
	a := &active{t: t, start: time.Now()}
	a.s.ID = t.ids.Add(1)
	a.s.Name = name
	if parent != nil {
		a.s.Parent = parent.s.ID
		a.s.Trace = parent.s.Trace
	} else {
		a.s.Trace = a.s.ID
	}
	return a
}

func (a *active) set(key string, v any) {
	if a == nil {
		return
	}
	if a.s.Attrs == nil {
		a.s.Attrs = map[string]any{}
	}
	a.s.Attrs[key] = v
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.t.add(a.s, a.start, time.Now())
}

// interval records a child span of parent whose bounds were observed
// elsewhere, such as a swap round delimited by two OnRound callbacks.
func (t *tracer) interval(name string, parent *active, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	s := span{ID: t.ids.Add(1), Name: name, Attrs: attrs}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	} else {
		s.Trace = s.ID
	}
	t.add(s, start, end)
}

func (t *tracer) add(s span, start, end time.Time) {
	s.Start = start.Sub(t.t0).Seconds()
	s.End = end.Sub(t.t0).Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time — each span's
// duration minus the part of it its children cover — and the span count.
func (t *tracer) selfTimes() (names []string, self map[string]float64, n map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self = make(map[string]float64)
	n = make(map[string]int)
	for _, s := range t.spans {
		covered := unionLength(children[s.ID], s.Start, s.End)
		if _, seen := n[s.Name]; !seen {
			names = append(names, s.Name)
		}
		self[s.Name] += (s.End - s.Start) - covered
		n[s.Name]++
	}
	sort.Strings(names)
	return names, self, n
}

// unionLength is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLength(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE, open := 0.0, 0.0, 0.0, false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
