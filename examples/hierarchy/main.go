// Independent-set hierarchy: the paper's first motivating application.
// Shortest-path labeling schemes such as IS-Label (Fu et al., cited as
// [11]) build a vertex hierarchy by *repeatedly* extracting an independent
// set and contracting the rest — which is why a fast, memory-lean MIS
// subroutine matters: it runs once per level.
//
// This example builds such a hierarchy over a power-law graph: each level
// takes a two-k-swap independent set of the residual graph, removes it, and
// recurses on what remains until the residual fits trivially. It reports
// the level sizes and how quickly the graph collapses.
//
//	go run ./examples/hierarchy [-n 100000]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	mis "repro"

	"repro/internal/gio"
	"repro/internal/graph"
)

func main() {
	n := flag.Int("n", 100000, "vertices in the synthetic road-network-like graph")
	flag.Parse()
	if err := run(os.Stdout, *n); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, n int) error {
	dir, err := os.MkdirTemp("", "mis-hierarchy")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	base := filepath.Join(dir, "level0.adj")
	if err := mis.GeneratePowerLawFile(base, n, 2.3, 17, true); err != nil {
		return err
	}

	// The hierarchy loop: solve MIS on the current level, then build the
	// next level as the induced subgraph on the non-IS vertices.
	ctx := context.Background()
	level := 0
	cur := base
	fmt.Fprintf(out, "%5s %12s %12s %12s\n", "level", "|V|", "|E|", "|IS| taken")
	for {
		f, err := mis.Open(cur)
		if err != nil {
			return err
		}
		nv := f.NumVertices()
		ne := f.NumEdges()
		if nv == 0 {
			f.Close()
			break
		}
		solver := mis.NewSolver(f, mis.EarlyStop(3))
		greedy, err := solver.Greedy(ctx)
		if err != nil {
			f.Close()
			return err
		}
		set, err := solver.TwoKSwap(ctx, greedy)
		if err != nil {
			f.Close()
			return err
		}
		if err := solver.VerifyIndependent(ctx, set); err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(out, "%5d %12d %12d %12d\n", level, nv, ne, set.Size)

		// Residual: the induced subgraph on vertices outside the set.
		g, err := gio.LoadGraph(cur, nil)
		f.Close()
		if err != nil {
			return err
		}
		var keep []uint32
		for v := 0; v < g.NumVertices(); v++ {
			if !set.InSet[v] {
				keep = append(keep, uint32(v))
			}
		}
		if len(keep) == 0 {
			level++
			break
		}
		sub, _ := g.Subgraph(keep)
		next := filepath.Join(dir, fmt.Sprintf("level%d.adj", level+1))
		if err := writeSorted(next, sub); err != nil {
			return err
		}
		cur = next
		level++
		if level > 64 {
			return fmt.Errorf("hierarchy did not collapse — bug")
		}
	}
	fmt.Fprintf(out, "\nhierarchy of %d levels: an IS-Label index would store one label array per level\n", level)
	return nil
}

func writeSorted(path string, g *graph.Graph) error {
	return gio.WriteGraphSorted(path, g, nil)
}
