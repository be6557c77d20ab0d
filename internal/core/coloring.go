package core

import (
	"context"
	"fmt"

	"repro/internal/gio"
	"repro/internal/pipeline"
	"repro/internal/semiext"
)

// NoColor marks an uncolored vertex in a Coloring.
const NoColor = ^uint32(0)

// Coloring is a proper vertex coloring: Colors[v] is v's color class and no
// edge joins two vertices of the same class.
type Coloring struct {
	// Colors maps vertex ID to color (0-based).
	Colors []uint32
	// NumColors is the number of classes used.
	NumColors int
	// ClassSizes[c] is the population of color c.
	ClassSizes []int
	// IO is the I/O the construction performed.
	IO gio.Stats
}

// ColorByISCtx builds a proper coloring by repeatedly extracting a maximal
// independent set from the still-uncolored vertices and assigning it the
// next color — the classic reduction the paper's conclusion points at for
// future work ("other graph problems like minimum vertex covers and graph
// coloring for massive graphs with a single commodity PC").
//
// Each color class costs one sequential scan (the greedy of Algorithm 1
// restricted to uncolored vertices), so the total I/O is O(χ_greedy ·
// scan(|V|+|E|)) with O(|V|) memory. On a degree-sorted file the extraction
// order mirrors the Greedy algorithm, which keeps early classes large and
// the class count close to the greedy chromatic number. ctx cancels between
// batches and between color classes; hooks.OnScan observes per-batch
// progress.
func ColorByISCtx(ctx context.Context, f Source, maxColors int, h Hooks) (*Coloring, error) {
	n := f.NumVertices()
	if maxColors <= 0 {
		maxColors = n + 1
	}
	rn := newRun(ctx, h)
	snap := snapshot(f.Stats())
	colors := make([]uint32, n)
	for v := range colors {
		colors[v] = NoColor
	}
	states := semiext.NewStates(n)
	remaining := n

	c := uint32(0)
	for remaining > 0 {
		if int(c) >= maxColors {
			return nil, fmt.Errorf("core: coloring: exceeded %d colors with %d vertices uncolored",
				maxColors, remaining)
		}
		if err := rn.err(); err != nil {
			return nil, fmt.Errorf("core: coloring: class %d: %w", c, err)
		}
		// One scan: greedy maximal IS over uncolored vertices.
		for v := 0; v < n; v++ {
			if colors[v] == NoColor {
				states.Set(uint32(v), semiext.StateInitial)
			} else {
				states.Set(uint32(v), semiext.StateNonIS)
			}
		}
		s := pipeline.New(f, rn.sopts(false))
		s.Add(pipeline.Pass{
			Name:          "color-class-greedy",
			MutatesStates: true,
			Batch: func(batch []gio.Record) error {
				for i := range batch {
					r := &batch[i]
					u := r.ID
					if states.Get(u) != semiext.StateInitial {
						continue
					}
					states.Set(u, semiext.StateIS)
					for _, nb := range r.Neighbors {
						if states.Get(nb) == semiext.StateInitial {
							states.Set(nb, semiext.StateConflict) // excluded this round only
						}
					}
				}
				return nil
			},
		})
		if err := s.Run(); err != nil {
			return nil, fmt.Errorf("core: coloring: %w", err)
		}
		assigned := 0
		for v := 0; v < n; v++ {
			if states.Get(uint32(v)) == semiext.StateIS {
				colors[v] = c
				assigned++
			}
		}
		if assigned == 0 {
			return nil, fmt.Errorf("core: coloring: empty class %d with %d vertices uncolored", c, remaining)
		}
		remaining -= assigned
		c++
	}

	col := &Coloring{Colors: colors, NumColors: int(c), ClassSizes: make([]int, c)}
	for _, cc := range colors {
		col.ClassSizes[cc]++
	}
	col.IO = statsDelta(f.Stats(), snap)
	return col, nil
}

// VerifyColoringCtx checks with one sequential scan that no edge joins two
// vertices of the same color and that every vertex is colored. Like the
// other verify passes it records only the first violation in scan order and
// opts out of the rest of the stream.
func VerifyColoringCtx(ctx context.Context, f Source, col *Coloring, h Hooks) error {
	if len(col.Colors) != f.NumVertices() {
		return fmt.Errorf("core: verify coloring: %d entries for %d vertices",
			len(col.Colors), f.NumVertices())
	}
	for v, c := range col.Colors {
		if c == NoColor {
			return fmt.Errorf("core: vertex %d uncolored", v)
		}
		if int(c) >= col.NumColors {
			return fmt.Errorf("core: vertex %d has out-of-range color %d", v, c)
		}
	}
	var firstErr error
	s := pipeline.New(f, newRun(ctx, h).sopts(false))
	s.Add(pipeline.Pass{
		Name: "verify-coloring",
		Batch: func(batch []gio.Record) error {
			for i := range batch {
				r := &batch[i]
				for _, nb := range r.Neighbors {
					if col.Colors[r.ID] == col.Colors[nb] {
						firstErr = fmt.Errorf("core: edge {%d,%d} monochromatic (color %d)",
							r.ID, nb, col.Colors[r.ID])
						return pipeline.ErrStopScan
					}
				}
			}
			return nil
		},
		Done: func() error { return firstErr },
	})
	return s.Run()
}
