package mis_test

import (
	"context"
	"errors"
	"testing"

	mis "repro"
)

// TestNilArgumentsReturnTypedErrors pins the daemon-facing contract: every
// public entry point that takes a client-supplied pointer rejects nil with
// an error wrapping mis.ErrNilArgument instead of panicking.
func TestNilArgumentsReturnTypedErrors(t *testing.T) {
	f := openTiny(t)
	defer f.Close()
	ctx := context.Background()
	s := mis.NewSolver(f)

	checks := []struct {
		name string
		call func() error
	}{
		{"Solver.Verify", func() error { return s.Verify(ctx, nil) }},
		{"Solver.VerifyIndependent", func() error { return s.VerifyIndependent(ctx, nil) }},
		{"Solver.VerifyMaximal", func() error { return s.VerifyMaximal(ctx, nil) }},
		{"Solver.VerifyColoring", func() error { return s.VerifyColoring(ctx, nil) }},
		{"Solver.OneKSwap", func() error { _, err := s.OneKSwap(ctx, nil); return err }},
		{"Solver.TwoKSwap", func() error { _, err := s.TwoKSwap(ctx, nil); return err }},
		{"NewMaintainer", func() error { _, err := mis.NewMaintainer(f, nil); return err }},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s panicked on nil: %v", c.name, p)
				}
			}()
			err := c.call()
			if err == nil {
				t.Fatalf("%s accepted nil", c.name)
			}
			if !errors.Is(err, mis.ErrNilArgument) {
				t.Fatalf("%s error %v does not wrap ErrNilArgument", c.name, err)
			}
			var na *mis.NilArgumentError
			if !errors.As(err, &na) {
				t.Fatalf("%s error %v is not a *NilArgumentError", c.name, err)
			}
		})
	}
}

func openTiny(t *testing.T) *mis.File {
	t.Helper()
	f, err := mis.Open("testdata/tiny.adj")
	if err != nil {
		t.Fatal(err)
	}
	return f
}
