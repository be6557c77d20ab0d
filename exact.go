package mis

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// MaxExactVertices is the largest graph Exact accepts (the solver packs the
// vertex set into one machine word).
const MaxExactVertices = core.MaxExactVertices

// Exact computes the exact independence number and one maximum independent
// set of a small graph file (≤ 64 vertices) by branch and bound. It exists
// for calibration and testing — the exponential-time exact algorithms the
// paper cites (Robson, Xiao) only ever handle toy instances, which is the
// entire motivation for its scalable approximations.
func Exact(f *File) (*Result, error) {
	if f.NumVertices() > MaxExactVertices {
		return nil, fmt.Errorf("mis: exact solver supports ≤ %d vertices, got %d",
			MaxExactVertices, f.NumVertices())
	}
	g, err := core.LoadGraphSource(context.Background(), f.runSource(1), core.Hooks{})
	if err != nil {
		return nil, err
	}
	in, size, err := core.ExactSet(g)
	if err != nil {
		return nil, err
	}
	return &Result{InSet: in, Size: size}, nil
}
