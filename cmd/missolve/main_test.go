package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gio"
	"repro/internal/plrg"
	"repro/internal/shard"
)

func testGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.adj")
	if err := gio.WriteGraphSorted(path, plrg.PowerLawN(2000, 2.0, 3), nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSolveEveryAlgorithm(t *testing.T) {
	path := testGraph(t)
	// The baseline competitor must run on the unsorted input: missolve
	// refuses it on a degree-sorted file (see mis.ErrBaselineOnSorted).
	unsortedPath := filepath.Join(t.TempDir(), "unsorted.adj")
	if err := gio.WriteGraph(unsortedPath, plrg.PowerLawN(2000, 2.0, 3), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{
		"greedy", "baseline", "one-k-swap", "two-k-swap",
		"dynamic-update", "external-maximal", "randomized",
	} {
		input := path
		if alg == "baseline" {
			input = unsortedPath
		}
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-alg", alg, "-verify", "-bound", input}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %s", alg, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "|IS| =") || !strings.Contains(out, "verified") ||
			!strings.Contains(out, "upper bound") {
			t.Fatalf("%s: incomplete output:\n%s", alg, out)
		}
	}
}

func TestSolveColoring(t *testing.T) {
	path := testGraph(t)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-color", "-verify", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "proper coloring") {
		t.Fatalf("output: %s", stdout.String())
	}
}

func TestSolveEarlyStopFlag(t *testing.T) {
	path := testGraph(t)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-alg", "one-k-swap", "-early-stop", "2", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "rounds = ") {
		t.Fatal("missing rounds in output")
	}
}

func TestSolveErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{}, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"/does/not/exist.adj"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	path := testGraph(t)
	if code := run(context.Background(), []string{"-alg", "made-up", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad algorithm: exit %d, want 1", code)
	}
}

// TestSolveRejectsOutOfRangeNeighbor: on a raw file whose vertex 1 lists
// neighbor 7 of 3 vertices, every algorithm exits 1 with the decoder's
// format error instead of panicking or reporting a verified set.
func TestSolveRejectsOutOfRangeNeighbor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.adj")
	w, err := gio.NewWriter(path, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, nbrs := range [][]uint32{{1}, {0, 7}, {}} {
		if err := w.Append(uint32(v), nbrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{
		"greedy", "baseline", "one-k-swap", "two-k-swap",
		"dynamic-update", "external-maximal", "randomized",
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-alg", alg, "-verify", path}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1; stdout %s stderr %s", alg, code, stdout.String(), stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "vertex 1 has out-of-range neighbor 7") {
			t.Errorf("%s: stderr does not name the bad neighbor: %s", alg, stderr.String())
		}
	}
}

// TestTimeoutPartialStats: -timeout expiry exits with status 1 and reports
// the partial I/O statistics instead of a fabricated result.
func TestTimeoutPartialStats(t *testing.T) {
	path := testGraph(t)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-timeout", "1ns", "-alg", "two-k-swap", path}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "deadline exceeded") {
		t.Fatalf("stderr does not name the deadline: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "partial stats") {
		t.Fatalf("no partial stats on timeout:\n%s", stdout.String())
	}
}

// TestSigintCancellation: a canceled parent context (what SIGINT feeds
// through signal.NotifyContext) ends the run gracefully with partial stats.
func TestSigintCancellation(t *testing.T) {
	path := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal arrived
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{"-alg", "greedy", path}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "partial stats") {
		t.Fatalf("no partial stats on cancellation:\n%s", stdout.String())
	}
}

func TestSolveSharded(t *testing.T) {
	src := testGraph(t)
	shardDir := filepath.Join(t.TempDir(), "sharded")
	if _, err := shard.SplitFile(context.Background(), src, shardDir, shard.SplitOptions{Shards: 3}); err != nil {
		t.Fatal(err)
	}

	solve := func(path string, extra ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append(extra, "-alg", "two-k-swap", "-verify", path)
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	single := solve(src)
	sharded := solve(shardDir, "-workers", "3")
	pick := func(out string) string {
		t.Helper()
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "|IS| =") {
				return line[:strings.Index(line, "time =")]
			}
		}
		t.Fatalf("no result line in:\n%s", out)
		return ""
	}
	if pick(single) != pick(sharded) {
		t.Fatalf("sharded solve diverged:\nsingle:  %s\nsharded: %s", pick(single), pick(sharded))
	}
	if !strings.Contains(sharded, "verified: independent and maximal") {
		t.Fatalf("sharded solve not verified:\n%s", sharded)
	}
}
