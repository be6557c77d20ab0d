// Command misconvert converts between graph formats and runs the external
// degree-sort preprocessing.
//
// Usage:
//
//	misconvert -import edges.txt -o graph.adj          # text edge list → sorted adjacency
//	misconvert -sort unsorted.adj -o sorted.adj        # external merge sort by degree
//	misconvert -export graph.adj -o edges.txt          # adjacency → text edge list
//	misconvert -compress graph.adj -o graph.cadj       # varint/delta compression
//	misconvert -import edges.txt -shards 4 -o sharded/ # … → sharded layout
//
// -mem bounds the external sort's in-memory buffer in bytes, demonstrating
// the semi-external preprocessing on arbitrarily large files.
//
// With -shards N, -o names a directory: the conversion result is split into
// N vertex-range shards plus a MANIFEST.shards (the layout cmd/missplit
// produces and mis.OpenSharded consumes). -shards combines with -import,
// -sort and -compress, not with -export.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/extsort"
	"repro/internal/gio"
	"repro/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		imp    = fs.String("import", "", "text edge list to import")
		srt    = fs.String("sort", "", "adjacency file to degree-sort")
		exp    = fs.String("export", "", "adjacency file to export as text")
		comp   = fs.String("compress", "", "adjacency file to varint/delta compress")
		out    = fs.String("o", "", "output path (required); a directory with -shards")
		mem    = fs.Int("mem", 0, "external sort memory budget in bytes (0 = 64 MiB)")
		shards = fs.Int("shards", 0, "split the result into this many vertex-range shards under -o (not with -export)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "misconvert: -o is required")
		return 2
	}
	set := 0
	for _, s := range []string{*imp, *srt, *exp, *comp} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		fmt.Fprintln(stderr, "misconvert: exactly one of -import, -sort, -export, -compress required")
		return 2
	}
	if *shards < 0 || (*shards > 0 && *exp != "") {
		fmt.Fprintln(stderr, "misconvert: -shards needs a positive count and does not combine with -export")
		return 2
	}

	var stats gio.Counters
	fail := func(err error) int {
		fmt.Fprintf(stderr, "misconvert: %v\n", err)
		return 1
	}
	// With -shards the conversion lands in a temp file next to the output
	// directory, which is then split and the temp removed.
	target := *out
	if *shards > 0 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
		target = filepath.Join(*out, ".convert.tmp.adj")
		defer os.Remove(target)
	}
	switch {
	case *imp != "":
		if err := gio.ImportEdgeListFile(*imp, target, &stats); err != nil {
			return fail(err)
		}
	case *srt != "":
		if err := extsort.SortByDegree(*srt, target, extsort.Options{MemoryBudget: *mem, Stats: &stats}); err != nil {
			return fail(err)
		}
	case *comp != "":
		if err := gio.CompressFile(*comp, target, &stats); err != nil {
			return fail(err)
		}
	case *exp != "":
		g, err := gio.LoadGraph(*exp, &stats)
		if err != nil {
			return fail(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		if err := gio.WriteEdgeListText(f, g); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if *shards > 0 {
		man, err := shard.SplitFile(context.Background(), target, *out, shard.SplitOptions{Shards: *shards})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s: %d shards, %d vertices, %d edges (%s)\n",
			*out, len(man.Shards), man.Vertices, man.Edges, stats.String())
		return 0
	}
	fmt.Fprintf(stdout, "wrote %s (%s)\n", *out, stats.String())
	return 0
}
