package mis

import "repro/internal/core"

// VertexCover returns the complement of the result as a vertex cover: every
// edge has at least one endpoint in it. The cover is minimal when the
// independent set is maximal.
func (r *Result) VertexCover() []bool {
	return core.VertexCover(r.InSet)
}

// Coloring is a proper vertex coloring produced by Solver.ColorByIS.
type Coloring struct {
	// Colors maps vertex ID to its 0-based color class.
	Colors []uint32
	// NumColors is the number of classes used.
	NumColors int
	// ClassSizes is the population of each class.
	ClassSizes []int
}
