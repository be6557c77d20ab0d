package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/plrg"
	"repro/internal/semiext"
)

// TestSwapsRespectFigure3 runs both swap algorithms under the Figure 3
// transition checker: every state change observed between phases must be an
// edge of the paper's state-transition diagram (as extended in
// internal/semiext/transitions.go).
func TestSwapsRespectFigure3(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, beta := range []float64{1.8, 2.4} {
			g := plrg.PowerLawN(600, beta, seed)
			f := writeFile(t, g, true)
			greedy, err := GreedyCtx(context.Background(), f, Hooks{})
			if err != nil {
				t.Fatal(err)
			}

			var tc semiext.TransitionChecker
			var violation error
			hook := func(round int, phase string, states []semiext.State) {
				if violation != nil {
					return
				}
				if err := tc.Check(fmt.Sprintf("round %d %s", round, phase), states); err != nil {
					violation = err
				}
			}
			if _, err := OneKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{OnPhase: hook}, Hooks{}); err != nil {
				t.Fatal(err)
			}
			if violation != nil {
				t.Fatalf("one-k seed=%d beta=%.1f: %v", seed, beta, violation)
			}

			tc = semiext.TransitionChecker{}
			violation = nil
			if _, err := TwoKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{OnPhase: hook}, Hooks{}); err != nil {
				t.Fatal(err)
			}
			if violation != nil {
				t.Fatalf("two-k seed=%d beta=%.1f: %v", seed, beta, violation)
			}
		}
	}
}

// TestCascadeRespectsFigure3 exercises the R-heavy cascade path under the
// checker, where every round demotes exactly one IS vertex.
func TestCascadeRespectsFigure3(t *testing.T) {
	g := plrg.Cascade(12)
	f := writeFile(t, g, true)
	init := members(36, plrg.CascadeCenters(12)...)
	var tc semiext.TransitionChecker
	var violation error
	hook := func(round int, phase string, states []semiext.State) {
		if violation != nil {
			return
		}
		if err := tc.Check(fmt.Sprintf("round %d %s", round, phase), states); err != nil {
			violation = err
		}
	}
	if _, err := OneKSwapCtx(context.Background(), f, init, SwapOptions{OnPhase: hook}, Hooks{}); err != nil {
		t.Fatal(err)
	}
	if violation != nil {
		t.Fatal(violation)
	}
}
