package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The answer checker must reject a set that is not independent and one
// that is not maximal, and accept one that is both.
func TestCheckerRejectsBadSets(t *testing.T) {
	// The path 0-1-2-3 and an isolated vertex 4.
	g := &refGraph{n: 5, off: []uint32{0, 1, 3, 5, 6, 6}, adj: []uint32{1, 0, 2, 1, 3, 2}}
	for _, tc := range []struct {
		name string
		set  []uint32
		want string // "" for a valid set, else an error substring
	}{
		{"valid", []uint32{0, 2, 4}, ""},
		{"valid other", []uint32{1, 3, 4}, ""},
		{"not independent", []uint32{0, 1, 3, 4}, "not independent"},
		{"not maximal", []uint32{0, 4}, "not maximal"},
		{"isolated vertex left out", []uint32{0, 2}, "not maximal"},
		{"duplicate", []uint32{0, 2, 2, 4}, "twice"},
		{"out of range", []uint32{0, 2, 5}, "out of range"},
	} {
		_, err := g.checkVertices(tc.set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a valid set: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// definedMetrics lists, per workload, every metric README.md defines for
// it; the report of a traced run must name each.
var definedMetrics = map[string][]string{
	"solve-batch": join(
		[]string{"setup_s", "greedy_s", "one_k_swap_s", "two_k_swap_s", "verify_s", "is_size", "mem_mb",
			"op_p50_ms", "ops_per_s", "gio.scan_s", "gio.blocks_per_scan", "gio.blocks_model", "exec.scan_s",
			"extsort.sort_s", "server.digest_s", "core.sc_high_water", "trace.overhead_ms", "trace.spans"},
		cross([]string{"pipeline.physical_scans.", "pipeline.logical_scans.", "pipeline.carried_scans.", "gio.blocks_per_scan."},
			[]string{"greedy", "one_k_swap", "two_k_swap", "verify"}),
		cross([]string{"core.rounds.", "core.round_s.", "core.self_s.", "core.memory_bytes."}, []string{"one_k_swap", "two_k_swap"}),
		[]string{"core.memory_bytes.greedy"},
	),
	"serve-read": join(
		[]string{"setup_s", "req_per_s", "p50_ms", "p99_ms", "fail_ratio", "is_size", "mem_mb", "op_p50_ms", "ops_per_s",
			"gio.scan_s", "gio.scan_varint_s", "shard.scan_s", "exec.scan_s", "gio.blocks_per_scan", "gio.blocks_model",
			"extsort.sort_s", "server.digest_s", "trace.overhead_ms", "trace.spans"},
		serveMetricNames,
		perAlgorithm,
	),
	"serve-write": join(
		[]string{"setup_s", "req_per_s", "p50_ms", "p99_ms", "fail_ratio", "is_size", "mem_mb", "op_p50_ms", "ops_per_s",
			"write_per_s", "write_p99_ms", "compact_s", "gio.scan_s", "exec.scan_s", "gio.blocks_per_scan", "gio.blocks_model",
			"extsort.sort_s", "server.digest_s", "wal.insert_p50_us", "wal.insert_p99_us", "wal.bytes_per_update",
			"wal.updates", "wal.fence_wait_s", "dynamic.delta_edges", "trace.overhead_ms", "trace.spans"},
		serveMetricNames,
		perAlgorithm,
	),
}

var (
	serveMetricNames = []string{"server.hit_p50_ms", "server.miss_overhead_ms", "server.vertices_ms", "server.rejected",
		"server.fail.internal", "cache.hit_ratio", "cache.hits", "cache.misses", "cache.shared", "cache.evictions"}
	perAlgorithm = join(
		cross([]string{"pipeline.physical_scans.", "pipeline.logical_scans.", "pipeline.carried_scans.", "core.memory_bytes."},
			[]string{"greedy", "one_k_swap", "two_k_swap"}),
		cross([]string{"core.rounds."}, []string{"one_k_swap", "two_k_swap"}),
	)
)

func cross(prefixes, suffixes []string) []string {
	var out []string
	for _, p := range prefixes {
		for _, s := range suffixes {
			out = append(out, p+s)
		}
	}
	return out
}

func join(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

// runTiny runs one workload at a tiny size and returns its report lines
// and decoded result line.
func runTiny(t *testing.T, workload, trace string) ([]string, result) {
	t.Helper()
	defer func(s float64, w string) { scale, workdir = s, w }(scale, workdir)
	scale, workdir = 0.01, t.TempDir()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace}
	if code := run(args, &out); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: result %+v", workload, res)
	}
	return lines[:len(lines)-1], res
}

func keys(m map[string]json.RawMessage) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

func set(names []string) map[string]bool {
	out := map[string]bool{}
	for _, n := range names {
		out[n] = true
	}
	return out
}

// A tiny run of every workload, traced and untraced: the report names
// every metric defined for the workload, and the result line carries
// exactly the metrics BENCHMARK.json lists.
func TestTinyRunsNameEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all three workloads")
	}
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			report, res := runTiny(t, w, "1")
			named := map[string]bool{}
			for _, line := range report {
				if f := strings.Fields(line); len(f) > 0 {
					named[f[0]] = true
				}
				if _, alias, ok := strings.Cut(line, "(result line: "); ok {
					named[strings.TrimSuffix(strings.Fields(alias)[0], ")")] = true
				}
			}
			for _, m := range definedMetrics[w] {
				if !named[m] {
					t.Errorf("report does not name %s", m)
				}
			}
			if got := keys(res.Metrics); !reflect.DeepEqual(got, set(perLayerJSON)) {
				t.Errorf("traced result metrics %v, want %v", got, perLayerJSON)
			}
			_, res = runTiny(t, w, "0")
			if got := keys(res.Metrics); !reflect.DeepEqual(got, set(endToEndJSON)) {
				t.Errorf("untraced result metrics %v, want %v", got, endToEndJSON)
			}
		})
	}
}

// BENCHMARK.json lists the workloads and the result-line metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ Name string }) []string {
		var out []string
		for _, x := range list {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, workloadOrder) {
		t.Errorf("workloads %v, want %v", got, workloadOrder)
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndJSON) {
		t.Errorf("end_to_end %v, want %v", got, endToEndJSON)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayerJSON) {
		t.Errorf("per_layer %v, want %v", got, perLayerJSON)
	}
}
