package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/plrg"
	"repro/internal/semiext"
)

// snapshotTrace records every phase callback.
type snapshotTrace struct {
	rounds []int
	phases []string
	states [][]semiext.State
}

func (tr *snapshotTrace) hook(round int, phase string, states []semiext.State) {
	tr.rounds = append(tr.rounds, round)
	tr.phases = append(tr.phases, phase)
	cp := make([]semiext.State, len(states))
	copy(cp, states)
	tr.states = append(tr.states, cp)
}

func (tr *snapshotTrace) at(round int, phase string) []semiext.State {
	for i := range tr.phases {
		if tr.rounds[i] == round && tr.phases[i] == phase {
			return tr.states[i]
		}
	}
	return nil
}

func count(states []semiext.State, want semiext.State) int {
	c := 0
	for _, s := range states {
		if s == want {
			c++
		}
	}
	return c
}

// TestExample1Trace replays the paper's Example 1 on the Figure 2 graph,
// checking the state machine phase by phase: the setup marks all four
// non-IS vertices A with their ISN; the first pre-swap fires exactly one of
// the two conflicting 1-2 swap skeletons (P vertices appear, one IS vertex
// turns R, and the competing swap's vertices are blocked); the swap phase
// realizes the exchange; the final set has size 3.
func TestExample1Trace(t *testing.T) {
	g := plrg.Figure2()
	f := writeFile(t, g, true)
	var tr snapshotTrace
	r, err := OneKSwapCtx(context.Background(), f, members(6, 0, 3), SwapOptions{OnPhase: tr.hook}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	setup := tr.at(0, "setup")
	if setup == nil {
		t.Fatal("no setup snapshot")
	}
	if got := count(setup, semiext.StateAdjacent); got != 4 {
		t.Fatalf("setup: %d A vertices, want 4 (v2, v3, v5, v6)", got)
	}
	if got := count(setup, semiext.StateIS); got != 2 {
		t.Fatalf("setup: %d IS vertices, want 2 (v1, v4)", got)
	}

	pre := tr.at(1, "pre-swap")
	if pre == nil {
		t.Fatal("no round-1 pre-swap snapshot")
	}
	// Scan-order preemption: both initial IS vertices may leave only if
	// their swaps don't conflict — in Figure 2 they do conflict through the
	// edge v3–v6, so P vertices exist and at least one C appeared or one
	// skeleton was suppressed entirely.
	if got := count(pre, semiext.StateProtected); got == 0 {
		t.Fatal("pre-swap: no vertex was promoted to P")
	}
	if got := count(pre, semiext.StateRetrograde); got == 0 {
		t.Fatal("pre-swap: no IS vertex was marked R")
	}

	swap := tr.at(1, "swap")
	if count(swap, semiext.StateProtected) != 0 || count(swap, semiext.StateRetrograde) != 0 {
		t.Fatal("swap phase must clear all P and R marks")
	}

	if r.Size != 3 {
		t.Fatalf("final size %d, want 3", r.Size)
	}
	mustIndependent(t, f, r.InSet)
	mustMaximal(t, f, r.InSet)
}

// TestExample3Trace replays Example 3 on the Figure 7 graph through
// two-k-swap: the 2-3 swap skeleton fires (two IS vertices turn R, at least
// three vertices turn P), the conflicting v7 is blocked, and the final set
// is {v1, v4, v5, v6, v8}.
func TestExample3Trace(t *testing.T) {
	g := plrg.Figure7()
	f := writeFile(t, g, true)
	var tr snapshotTrace
	r, err := TwoKSwapCtx(context.Background(), f, members(8, 0, 1, 2), SwapOptions{OnPhase: tr.hook}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	setup := tr.at(0, "setup")
	// v4, v5, v6, v8 have ISN {v2, v3}; v7 has ISN {v1}: five A vertices.
	if got := count(setup, semiext.StateAdjacent); got != 5 {
		t.Fatalf("setup: %d A vertices, want 5", got)
	}

	pre := tr.at(1, "pre-swap")
	if got := count(pre, semiext.StateRetrograde); got != 2 {
		t.Fatalf("pre-swap: %d R vertices, want 2 (v2 and v3 leave together)", got)
	}
	if got := count(pre, semiext.StateProtected); got < 3 {
		t.Fatalf("pre-swap: %d P vertices, want ≥ 3 (a 2-3 skeleton plus joiners)", got)
	}

	if r.Size != 5 {
		t.Fatalf("final size %d, want 5", r.Size)
	}
	if r.InSet[6] {
		t.Fatal("v7 must be blocked by its conflict and its IS neighbor v1")
	}
	for _, v := range []uint32{0, 3, 4, 5, 7} {
		if !r.InSet[v] {
			t.Fatalf("vertex %d missing from the Example 3 result %v", v+1, r.Vertices())
		}
	}
}

// TestTracePhaseOrder checks the hook contract: phases arrive in round
// order, each round contributing pre-swap, swap, post-swap.
func TestTracePhaseOrder(t *testing.T) {
	g := plrg.PowerLawN(300, 2.0, 9)
	f := writeFile(t, g, true)
	greedy, err := GreedyCtx(context.Background(), f, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var tr snapshotTrace
	r, err := OneKSwapCtx(context.Background(), f, greedy.InSet, SwapOptions{OnPhase: tr.hook}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.phases[0] != "setup" || tr.phases[len(tr.phases)-1] != "sweep" {
		t.Fatalf("trace must start with setup and end with sweep: %v", tr.phases)
	}
	wantLen := 2 + 3*r.Rounds // setup + rounds×3 + sweep
	if len(tr.phases) != wantLen {
		t.Fatalf("got %d phase callbacks, want %d for %d rounds", len(tr.phases), wantLen, r.Rounds)
	}
	for i := 0; i < r.Rounds; i++ {
		base := 1 + 3*i
		if tr.phases[base] != "pre-swap" || tr.phases[base+1] != "swap" || tr.phases[base+2] != "post-swap" {
			t.Fatalf("round %d phases wrong: %v", i+1, tr.phases[base:base+3])
		}
		if tr.rounds[base] != i+1 {
			t.Fatalf("round numbering wrong at %d: %d", base, tr.rounds[base])
		}
	}
}

// TestTwoKPassengerConflict pins the one P neighbor an A vertex can meet in
// two-k-swap's pre-swap: a skeleton passenger, which unlike a promoted
// vertex does not demote its A neighbors. IS vertices 0 and 1 are shared by
// 2, 3 and 4; scanned in ID order, 3 records the SC pair (3, 2) and 4 fires
// it with 2 and 3 as passengers. 5 is adjacent to the passenger 2 and
// shares its IS neighbor 6 with 7, a 1-2 swap that must not fire: 5 turns C
// and 7, left without a witness, stays A.
func TestTwoKPassengerConflict(t *testing.T) {
	g := graph.FromEdges(8, [][2]uint32{
		{2, 0}, {2, 1}, {3, 0}, {3, 1}, {4, 0}, {4, 1}, {2, 5}, {5, 6}, {7, 6},
	})
	f := writeFile(t, g, false)
	for _, unfused := range []bool{false, true} {
		var tr snapshotTrace
		r, err := TwoKSwapCtx(context.Background(), f, members(8, 0, 1, 6), SwapOptions{Unfused: unfused, OnPhase: tr.hook}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		const (
			I, A, P = semiext.StateIS, semiext.StateAdjacent, semiext.StateProtected
			C, R    = semiext.StateConflict, semiext.StateRetrograde
		)
		want := []semiext.State{R, R, P, P, P, C, I, A}
		if got := tr.at(1, "pre-swap"); !slices.Equal(got, want) {
			t.Fatalf("unfused=%v: round-1 pre-swap states %v, want %v", unfused, got, want)
		}
		if got := r.Vertices(); !slices.Equal(got, []uint32{2, 3, 4, 6}) {
			t.Fatalf("unfused=%v: set %v, want [2 3 4 6]", unfused, got)
		}
	}
}
