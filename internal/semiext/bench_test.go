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
