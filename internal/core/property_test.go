package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/plrg"
)

// The randomized cross-algorithm property harness: rather than trusting the
// two tiny checked-in fixtures, it drives the generator models the paper
// evaluates on — the power-law P(α,β) model and the uniform (Erdős–Rényi)
// model — across a seed sweep and holds every algorithm to the properties
// the paper claims, on every graph:
//
//   - the returned set is independent AND maximal (core.VerifyBoth, itself
//     a fused pair of scan passes);
//   - fused and unfused schedules produce bit-identical results (the
//     cross-round carry, the sweep fusion and the classic dedicated scans
//     are different executions of the same algorithm);
//   - the parallel partitioned executor at workers 2 and 4 reproduces the
//     sequential result exactly;
//   - the scan accounting stays sane (PhysicalScans ≤ Scans, fused logical
//     count equal to unfused);
//   - every algorithm's result is bit-identical to the one recorded in
//     testdata/result_identity.golden (see resultDigest), so a change that
//     claims to leave results untouched is checked against the recorded
//     outputs, not only against itself.

var updateGolden = flag.Bool("update", false, "rewrite "+identityGolden+" from this run")

// identityGolden holds one line per (case, algorithm): "<case> <alg> <digest>".
const identityGolden = "testdata/result_identity.golden"

// propertyGraphs yields the generator sweep: one power-law and one uniform
// graph per seed. Sizes are kept small enough that the whole matrix (seeds ×
// models × algorithms × schedules × workers) stays in test-suite budget
// while still producing multi-round swap runs on many seeds.
func propertyGraphs(seed int64) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"plrg":    plrg.PowerLawN(150, 2.0, seed),
		"uniform": plrg.ErdosRenyi(120, 300, seed),
	}
}

// writeSorted writes g degree-sorted (the paper's preprocessing) and opens
// it with fresh stats.
func writeSorted(t *testing.T, g *graph.Graph) *gio.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prop.adj")
	if err := gio.WriteGraphSorted(path, g, nil); err != nil {
		t.Fatal(err)
	}
	stats := &gio.Counters{}
	f, err := gio.Open(path, 0, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// requireSameResult asserts two runs of the same algorithm produced
// bit-identical sets and round traces.
func requireSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.InSet, b.InSet) || a.Size != b.Size {
		t.Fatalf("%s: sets differ (%d vs %d vertices)", label, a.Size, b.Size)
	}
	if a.Rounds != b.Rounds || !reflect.DeepEqual(a.RoundGains, b.RoundGains) {
		t.Fatalf("%s: round traces differ: %d/%v vs %d/%v",
			label, a.Rounds, a.RoundGains, b.Rounds, b.RoundGains)
	}
	if a.SCHighWater != b.SCHighWater {
		t.Fatalf("%s: SC high water differs: %d vs %d", label, a.SCHighWater, b.SCHighWater)
	}
}

// TestPropertyAllAlgorithms is the seed sweep over all six algorithms, plus
// two larger power-law graphs whose hubs and multi-round swaps reach code
// paths the 150-vertex sweep rarely does.
func TestPropertyAllAlgorithms(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		if *updateGolden {
			t.Fatal("-update needs the full sweep; drop -short")
		}
		seeds = seeds[:3]
	}
	var golden map[string]string
	if !*updateGolden {
		golden = readIdentityGolden(t)
	}
	got := make(map[string]string)
	multiround, cases := 0, 0
	runCase := func(name string, g *graph.Graph) {
		cases++
		t.Run(name, func(t *testing.T) {
			mr, digests := runPropertyCase(t, g)
			multiround += mr
			for _, alg := range slices.Sorted(maps.Keys(digests)) {
				key := name + " " + alg
				got[key] = digests[alg]
				if *updateGolden {
					continue
				}
				if want, ok := golden[key]; !ok {
					t.Errorf("%s: no entry in %s (record it with -update)", key, identityGolden)
				} else if want != digests[alg] {
					t.Errorf("%s: result digest %s, golden %s", key, digests[alg], want)
				}
			}
		})
	}
	for _, seed := range seeds {
		for model, g := range propertyGraphs(seed) {
			runCase(fmt.Sprintf("%s-seed%d", model, seed), g)
		}
	}
	for _, beta := range []float64{1.8, 2.2} {
		runCase(fmt.Sprintf("plrg20k-beta%.1f", beta), plrg.PowerLawN(20000, beta, 1))
	}
	// The sweep must actually exercise the cross-round carry: demand that a
	// reasonable share of the generated graphs took ≥ 2 swap rounds.
	if min := len(seeds) / 3; multiround < min {
		t.Errorf("only %d of %d cases ran multi-round swaps (want ≥ %d); regenerate the sweep parameters",
			multiround, cases, min)
	}
	if *updateGolden {
		writeIdentityGolden(t, got)
	}
}

// resultDigest is a SHA-256 over every output a run reports that a
// result-preserving change must leave bit-identical: the set, its size, the
// round trace, the SC high-water mark, the memory accounting and the
// logical, physical and carried scan counts.
func resultDigest(r *Result) string {
	b := make([]byte, 0, len(r.InSet)+128)
	for _, in := range r.InSet {
		if in {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	put := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	put(uint64(len(r.InSet)))
	put(uint64(r.Size))
	put(uint64(r.Rounds))
	put(uint64(len(r.RoundGains)))
	for _, g := range r.RoundGains {
		put(uint64(g))
	}
	put(uint64(r.SCHighWater))
	put(r.MemoryBytes)
	put(uint64(r.IO.Scans))
	put(uint64(r.IO.PhysicalScans))
	put(uint64(r.IO.CarriedScans))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readIdentityGolden loads identityGolden as "<case> <alg>" → digest.
func readIdentityGolden(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	data, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatal(err)
	}
	for line := range strings.Lines(string(data)) {
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", identityGolden, line)
		}
		out[fields[0]+" "+fields[1]] = fields[2]
	}
	return out
}

// writeIdentityGolden rewrites identityGolden from got, one sorted line per
// (case, algorithm).
func writeIdentityGolden(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, key := range slices.Sorted(maps.Keys(got)) {
		fmt.Fprintf(&b, "%s %s\n", key, got[key])
	}
	if err := os.WriteFile(identityGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runPropertyCase checks every property on one graph and reports whether
// the swap algorithms ran more than one round (i.e. the cross-round carry
// was exercised in steady state), along with each algorithm's resultDigest.
func runPropertyCase(t *testing.T, g *graph.Graph) (multiround int, digests map[string]string) {
	t.Helper()
	f := writeSorted(t, g)
	digests = make(map[string]string)

	// Greedy seeds the swaps and must itself be independent + maximal.
	seed, err := Greedy(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBoth(f, seed.InSet); err != nil {
		t.Fatalf("greedy: %v", err)
	}
	digests["greedy"] = resultDigest(seed)

	base, err := Baseline(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBoth(f, base.InSet); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	digests["baseline"] = resultDigest(base)

	ext, err := ExternalMaximal(f, ExternalMaximalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBoth(f, ext.InSet); err != nil {
		t.Fatalf("external-maximal: %v", err)
	}
	digests["external-maximal"] = resultDigest(ext)

	// DynamicUpdate is the in-memory competitor; verify against the graph.
	dyn := DynamicUpdate(g)
	if err := VerifyIndependentGraph(g, dyn.InSet); err != nil {
		t.Fatalf("dynamic-update: %v", err)
	}
	if err := VerifyMaximalGraph(g, dyn.InSet); err != nil {
		t.Fatalf("dynamic-update: %v", err)
	}
	digests["dynamic-update"] = resultDigest(dyn)

	// Swap algorithms: fused vs unfused parity, verification, monotone
	// improvement over the seed, and workers parity.
	type swapAlg struct {
		name string
		run  func(src Source, opts SwapOptions) (*Result, error)
	}
	for _, alg := range []swapAlg{
		{"one-k-swap", func(src Source, opts SwapOptions) (*Result, error) {
			return OneKSwap(src, seed.InSet, opts)
		}},
		{"two-k-swap", func(src Source, opts SwapOptions) (*Result, error) {
			return TwoKSwap(src, seed.InSet, opts)
		}},
	} {
		fused, err := alg.run(f, SwapOptions{})
		if err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if err := VerifyBoth(f, fused.InSet); err != nil {
			t.Fatalf("%s: %v", alg.name, err)
		}
		if fused.Size < seed.Size {
			t.Fatalf("%s: shrank the seed set: %d < %d", alg.name, fused.Size, seed.Size)
		}
		if fused.Rounds > 1 {
			multiround = 1
		}
		digests[alg.name] = resultDigest(fused)

		unfused, err := alg.run(f, SwapOptions{Unfused: true})
		if err != nil {
			t.Fatalf("%s unfused: %v", alg.name, err)
		}
		requireSameResult(t, alg.name+" fused-vs-unfused", fused, unfused)
		if unfused.IO.PhysicalScans != unfused.IO.Scans {
			t.Fatalf("%s: unfused run fused something: %d physical of %d logical",
				alg.name, unfused.IO.PhysicalScans, unfused.IO.Scans)
		}
		if fused.IO.Scans != unfused.IO.Scans {
			t.Fatalf("%s: fused logical scans %d != unfused %d",
				alg.name, fused.IO.Scans, unfused.IO.Scans)
		}
		if fused.IO.PhysicalScans > fused.IO.Scans {
			t.Fatalf("%s: physical %d > logical %d", alg.name, fused.IO.PhysicalScans, fused.IO.Scans)
		}

		for _, workers := range []int{2, 4} {
			par, err := alg.run(exec.New(f, workers), SwapOptions{})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", alg.name, workers, err)
			}
			requireSameResult(t, fmt.Sprintf("%s workers=%d", alg.name, workers), fused, par)
		}
	}

	// Workers parity for the scan-only algorithms.
	for _, workers := range []int{2, 4} {
		pg, err := Greedy(exec.New(f, workers))
		if err != nil {
			t.Fatalf("greedy workers=%d: %v", workers, err)
		}
		requireSameResult(t, fmt.Sprintf("greedy workers=%d", workers), seed, pg)
		pe, err := ExternalMaximal(exec.New(f, workers), ExternalMaximalOptions{})
		if err != nil {
			t.Fatalf("external-maximal workers=%d: %v", workers, err)
		}
		requireSameResult(t, fmt.Sprintf("external-maximal workers=%d", workers), ext, pe)
	}
	return multiround, digests
}
