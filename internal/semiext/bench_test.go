package semiext

import (
	"math/rand"
	"testing"
)

// statesSink keeps the benchmarked reads live.
var statesSink int

// BenchmarkStatesGet reads the packed state array along two index streams:
// "sequential" is the order a scan visits its own records in, "random" the
// order a record's neighbour IDs come in, where which nibble a read lands on
// is a coin flip. One op is one pass over the stream; ns/get is per read.
func BenchmarkStatesGet(b *testing.B) {
	const n = 1 << 18 // 128 KiB packed: the state array of a 262k-vertex graph
	rng := rand.New(rand.NewSource(1))
	st := NewStates(n)
	for v := uint32(0); v < n; v++ {
		st.Set(v, State(rng.Intn(int(StateRetrograde)+1)))
	}
	random, sequential := make([]uint32, n), make([]uint32, n)
	for i := range random {
		random[i] = uint32(rng.Intn(n))
		sequential[i] = uint32(i)
	}
	for _, stream := range []struct {
		name string
		idx  []uint32
	}{{"random", random}, {"sequential", sequential}} {
		b.Run(stream.name, func(b *testing.B) {
			sum := 0
			for b.Loop() {
				sum += sumStates(st, stream.idx)
			}
			statesSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/get")
		})
	}
}

// sumStates reads st at every index of idx. It sits outside the b.Loop body,
// whose calls the compiler does not inline, so Get inlines here as it does
// in the algorithms' scan loops.
func sumStates(st States, idx []uint32) int {
	sum := 0
	for _, v := range idx {
		sum += int(st.Get(v))
	}
	return sum
}

// BenchmarkStatesWholeArray times the word-at-a-time operations over the
// state array of a 262k-vertex graph with random states, beside the
// per-vertex Get loop that Count replaced. One op is one pass over the
// array; ns/vertex is per vertex.
func BenchmarkStatesWholeArray(b *testing.B) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(1))
	st := NewStates(n)
	in := make([]bool, n)
	for v := uint32(0); v < n; v++ {
		st.Set(v, State(rng.Intn(int(StateRetrograde)+1)))
		in[v] = rng.Intn(2) == 0
	}
	fill := NewStates(n)
	for _, op := range []struct {
		name string
		run  func() int
	}{
		{"fill", func() int { fill.Fill(in, StateIS, StateNonIS); return 0 }},
		{"count", func() int { return st.Count(StateIS) }},
		{"count-per-vertex", func() int { return countPerVertex(st, StateIS) }},
		{"expand", func() int { _, c := st.Expand(StateIS); return c }},
		{"foreach-in", func() int {
			c := 0
			st.ForEachIn(StateProtected, StateRetrograde, func(uint32, State) { c++ })
			return c
		}},
	} {
		b.Run(op.name, func(b *testing.B) {
			sum := 0
			for b.Loop() {
				sum += op.run()
			}
			statesSink = sum
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vertex")
		})
	}
}

// countPerVertex is Count's per-vertex reference: one Get per vertex.
func countPerVertex(st States, s State) int {
	c := 0
	for v := range st.Len() {
		if st.Get(uint32(v)) == s {
			c++
		}
	}
	return c
}
