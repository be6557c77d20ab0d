// Map labeling: one of the paper's motivating applications (Strijk et al.).
// Each map feature gets a candidate label rectangle; two labels conflict
// when their rectangles overlap. A maximum independent set of the conflict
// graph is a maximum set of labels that can be drawn without overlap.
//
// This example places candidate labels at random positions, builds the
// intersection graph, and lets the swap algorithms recover more labels than
// plain greedy placement.
//
//	go run ./examples/maplabeling
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	mis "repro"
)

// label is an axis-aligned rectangle on the map.
type label struct {
	x, y, w, h float64
}

func (a label) overlaps(b label) bool {
	return a.x < b.x+b.w && b.x < a.x+a.w && a.y < b.y+b.h && b.y < a.y+a.h
}

func main() {
	if err := run(os.Stdout, 4000); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, nLabels int) error {
	const mapSize = 100.0
	rng := rand.New(rand.NewSource(2015))

	// Candidate labels: random positions, sizes between 1×0.5 and 3×1.5.
	labels := make([]label, nLabels)
	for i := range labels {
		labels[i] = label{
			x: rng.Float64() * mapSize,
			y: rng.Float64() * mapSize,
			w: 1 + 2*rng.Float64(),
			h: 0.5 + rng.Float64(),
		}
	}

	// Conflict graph: an edge for every overlapping pair. A spatial grid
	// keeps this near-linear instead of quadratic.
	b := mis.NewBuilder(nLabels)
	cell := 4.0
	grid := make(map[[2]int][]uint32)
	for i, l := range labels {
		key := [2]int{int(l.x / cell), int(l.y / cell)}
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[[2]int{key[0] + dx, key[1] + dy}] {
					if labels[j].overlaps(l) {
						b.AddEdge(uint32(i), j)
					}
				}
			}
		}
		grid[key] = append(grid[key], uint32(i))
	}

	dir, err := os.MkdirTemp("", "mis-maplabel")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "conflicts.adj")
	if err := b.WriteFile(path, true); err != nil {
		return err
	}

	f, err := mis.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(out, "conflict graph: %d candidate labels, %d overlaps\n",
		f.NumVertices(), f.NumEdges())

	ctx := context.Background()
	solver := mis.NewSolver(f)
	greedy, err := solver.Greedy(ctx)
	if err != nil {
		return err
	}
	two, err := solver.TwoKSwap(ctx, greedy)
	if err != nil {
		return err
	}
	bound, err := solver.UpperBound(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "greedy placement:     %d labels\n", greedy.Size)
	fmt.Fprintf(out, "after two-k-swap:     %d labels (+%d, %d rounds)\n",
		two.Size, two.Size-greedy.Size, two.Rounds)
	fmt.Fprintf(out, "upper bound:          %d labels → ratio %.3f\n", bound, two.Ratio(bound))

	if err := solver.VerifyIndependent(ctx, two); err != nil {
		return err
	}
	fmt.Fprintln(out, "verified: no two placed labels overlap")
	return nil
}
