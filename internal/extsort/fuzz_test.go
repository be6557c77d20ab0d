package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gio"
)

// FuzzSortByDegree sorts small random graphs at fuzzed budgets and fan-ins,
// optionally with one injected defect. A valid input must come out byte for
// byte as gio.WriteGraphSorted writes it; a defective one must fail with
// gio.ErrBadFormat, never panic, and an injected out-of-range neighbor must
// be named with its vertex.
func FuzzSortByDegree(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(40), uint16(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(63), uint8(200), uint16(64), uint8(2), uint8(4))
	f.Add(int64(3), uint8(10), uint8(15), uint16(16), uint8(3), uint8(1))
	f.Add(int64(4), uint8(10), uint8(15), uint16(0), uint8(0), uint8(2))
	f.Add(int64(5), uint8(10), uint8(15), uint16(100), uint8(1), uint8(3))
	f.Add(int64(6), uint8(0), uint8(0), uint16(16), uint8(0), uint8(6))
	f.Add(int64(7), uint8(30), uint8(60), uint16(64), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw uint8, budget uint16, fanIn, mode uint8) {
		defect := mode % 4 // 0 none, 1 duplicate ID, 2 missing ID, 3 neighbor ≥ n
		n := int(nRaw%64) + 1
		if defect == 1 {
			n = max(n, 2) // a duplicate replaces another vertex's record
		}
		g := randomGraph(seed, n, int(mRaw))
		flags := uint32(0)
		if mode&4 != 0 {
			flags = gio.FlagCompressed
		}
		rng := rand.New(rand.NewSource(seed))
		victim := uint32(rng.Intn(n))
		other := (victim + 1) % uint32(n)
		var want string // the error an injected neighbor must produce

		dir := t.TempDir()
		src := filepath.Join(dir, "in.adj")
		w, err := gio.NewWriter(src, flags, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.SetVertexCount(uint64(n))
		for _, v := range rng.Perm(n) {
			id := uint32(v)
			ns := append([]uint32(nil), g.Neighbors(id)...)
			rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
			// A record past the header's vertex count would be ignored as
			// trailing bytes, so the duplicate takes another vertex's place.
			switch {
			case id == other && defect == 1:
				id, ns = victim, g.Neighbors(victim)
			case id == victim && defect == 2:
				continue
			case id == victim && defect == 3:
				ns = append(ns, uint32(n+rng.Intn(3)))
				want = fmt.Sprintf("vertex %d has out-of-range neighbor %d", id, ns[len(ns)-1])
				if len(ns) >= n {
					// A degree of |V| fails before the neighbors are read.
					want = fmt.Sprintf("vertex %d has impossible degree %d", id, len(ns))
				}
			}
			if err := w.Append(id, ns); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		dst := filepath.Join(dir, "out.adj")
		err = SortByDegree(src, dst, Options{MemoryBudget: int(budget), MaxFanIn: int(fanIn % 8)})
		if defect != 0 {
			if !errors.Is(err, gio.ErrBadFormat) || !strings.Contains(err.Error(), want) {
				t.Fatalf("defect %d on vertex %d: got %v, want gio.ErrBadFormat with %q", defect, victim, err, want)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, dst, sortedReference(t, g))
	})
}
