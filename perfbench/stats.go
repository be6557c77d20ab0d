package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// samples collects one quantity's observations in one run.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile by linear interpolation between closest
// ranks; NaN for an empty sample.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tail returns the p99 when at least ten samples lie beyond it, as the
// metric definitions require; ok is false when the sample is too small.
func (s samples) tail() (v float64, ok bool) {
	if len(s) < 1000 {
		return math.NaN(), false
	}
	return s.quantile(0.99), true
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// metric is one named figure of a run: its value, unit, and the number of
// samples it summarizes (0 for exact counts and computed values). Alias is
// the result-line name the same figure goes by, if any.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Note  string
	Alias string
}

// report is everything one workload run prints: the host and input record,
// every end-to-end and per-layer metric, and the answer-check verdict.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Record    []string // host and input lines
	EndToEnd  []metric
	PerLayer  []metric
	Attempted int
	Failed    int
	Problems  []string // wrong answers and check failures; any fails the run
}

func (r *report) record(format string, args ...any) {
	r.Record = append(r.Record, fmt.Sprintf(format, args...))
}

func (r *report) e2e(name string, v float64, unit string, n int, note string) {
	r.EndToEnd = append(r.EndToEnd, metric{name, v, unit, n, note, ""})
}

func (r *report) layer(name string, v float64, unit string, n int, note string) {
	r.PerLayer = append(r.PerLayer, metric{name, v, unit, n, note, ""})
}

// alias makes the end-to-end metric name stand for the result-line metric
// as as well, so that one measurement is printed once.
func (r *report) alias(name, as string) {
	for i := range r.EndToEnd {
		if r.EndToEnd[i].Name == name {
			r.EndToEnd[i].Alias = as
		}
	}
}

// problem records a wrong answer: the run then reports correct=false and
// exits non-zero.
func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// find returns the metric named name, or the one that stands for it.
func (r *report) find(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name || m.Alias == name {
			return m, true
		}
	}
	return metric{}, false
}

// text renders the human-readable report.
func (r *report) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench workload=%s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	for _, line := range r.Record {
		fmt.Fprintf(&b, "# %s\n", line)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(&b, "## %s\n", title)
		for _, m := range ms {
			n := "exact"
			if m.N > 0 {
				n = fmt.Sprintf("n=%d", m.N)
			}
			v := fmt.Sprintf("%.6g", m.Value)
			if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
				v = fmt.Sprintf("%d", int64(m.Value))
			}
			note := m.Note
			if m.Alias != "" {
				note = strings.TrimSpace("(result line: " + m.Alias + ") " + note)
			}
			fmt.Fprintf(&b, "%-36s %16s %-9s %-9s %s\n", m.Name, v, m.Unit, n, note)
		}
	}
	section("end-to-end (tracing off)", r.EndToEnd)
	section("per-layer", r.PerLayer)
	fmt.Fprintf(&b, "## checks: attempted=%d failed=%d wrong_answers=%d\n", r.Attempted, r.Failed, len(r.Problems))
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "WRONG: %s\n", p)
	}
	return b.String()
}
