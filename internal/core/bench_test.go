package core

import (
	"path/filepath"
	"testing"

	"repro/internal/gio"
	"repro/internal/plrg"
)

// swapSink keeps the benchmarked results live.
var swapSink *Result

// BenchmarkSwap times OneKSwap and TwoKSwap from a Greedy seed on a
// ≈150k-vertex power-law graph (β = 2.0) written degree-sorted and scanned
// through the mmap zero-copy engine. A warm mapped scan of this graph takes
// a few milliseconds, so an op is mostly the algorithms' per-record work.
func BenchmarkSwap(b *testing.B) {
	path := filepath.Join(b.TempDir(), "plrg.adj")
	if err := gio.WriteGraphSorted(path, plrg.PowerLawN(150000, 2.0, 1), nil); err != nil {
		b.Fatal(err)
	}
	f, err := gio.OpenMmap(path, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	seed, err := Greedy(f)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []struct {
		name string
		run  func(Source, []bool, SwapOptions) (*Result, error)
	}{{"one-k-swap", OneKSwap}, {"two-k-swap", TwoKSwap}} {
		b.Run(alg.name, func(b *testing.B) {
			for b.Loop() {
				res, err := alg.run(f, seed.InSet, SwapOptions{})
				if err != nil {
					b.Fatal(err)
				}
				swapSink = res
			}
		})
	}
}
