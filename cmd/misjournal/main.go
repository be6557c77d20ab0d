// Command misjournal manages a durable edge journal over an adjacency
// file: initialize a journal directory, stream edge updates into it,
// inspect its durability state, verify the recovered set, and compact the
// journal into a fresh base generation.
//
// Usage:
//
//	misjournal init -dir updates.wal graph.adj
//	misjournal apply -dir updates.wal -sync-every 64 < ops.txt
//	misjournal stat -dir updates.wal
//	misjournal verify -dir updates.wal
//	misjournal compact -dir updates.wal
//
// apply reads one operation per line from stdin: "i U V" inserts the
// undirected edge {U, V}, "d U V" deletes it; blank lines and lines
// starting with '#' are skipped. Every acknowledged operation is journaled
// with group commit (-sync-every / -sync-interval) before it is applied,
// so a crash — or a SIGINT mid-stream — loses at most the updates an fsync
// had not yet covered, and recovery on the next open replays a clean
// acknowledged prefix. The journal is segmented (-segment-size sets the
// rotation threshold) and compact folds only the sealed segments into a new
// base generation crash-safely: interrupted at any step, the store reopens
// to either the old or the new generation, whole. stat is read-only — it
// never writes to the store and is safe while another process has it open.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	mis "repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: misjournal <init|apply|stat|verify|compact> [flags]

  init    -dir <store> <graph.adj>   create a journal store over a base file
  apply   -dir <store> [flags]       journal edge ops from stdin ("i U V" / "d U V")
  stat    -dir <store>               print manifest and journal state (read-only)
  verify  -dir <store>               recover, repair, and verify the set
  compact -dir <store>               fold the journal into a new generation`)
	return 2
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, args := args[0], args[1:]

	fs := flag.NewFlagSet("misjournal "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir          = fs.String("dir", "", "journal store directory")
		syncEvery    = fs.Int("sync-every", 1, "group-commit size trigger: updates acknowledged per fsync")
		syncInterval = fs.Duration("sync-interval", 0, "group-commit time trigger (0 = off)")
		keep         = fs.Int("keep-generations", 2, "compacted base generations to retain")
		segSize      = fs.Int64("segment-size", 0, "journal segment rotation threshold in bytes (0 = 16MiB default, negative = never rotate on size)")
		timeout      = fs.Duration("timeout", 0, "abort after this long (0 = no limit)")
		repair       = fs.Bool("repair", true, "restore maximality before reporting (apply/verify)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "misjournal: -dir is required")
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := []mis.JournalOption{
		mis.SyncEvery(*syncEvery),
		mis.SyncInterval(*syncInterval),
		mis.KeepGenerations(*keep),
		mis.SegmentSize(*segSize),
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "misjournal %s: %v\n", cmd, err)
		return 1
	}

	switch cmd {
	case "init":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "usage: misjournal init -dir <store> <graph.adj>")
			return 2
		}
		if err := mis.InitJournal(*dir, fs.Arg(0), opts...); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "initialized %s over %s (generation 1)\n", *dir, fs.Arg(0))
		return 0

	case "apply":
		j, err := mis.OpenJournal(ctx, *dir, opts...)
		if err != nil {
			return fail(err)
		}
		applied, err := applyStream(ctx, j, stdin)
		if err != nil {
			// Everything acknowledged so far is journaled; report and keep it.
			fmt.Fprintf(stderr, "misjournal apply: after %d updates: %v\n", applied, err)
			if serr := j.Sync(); serr == nil {
				fmt.Fprintf(stdout, "acknowledged %d updates (durable)\n", applied)
			}
			j.Close()
			return 1
		}
		if *repair {
			if _, err := j.Repair(ctx); err != nil {
				j.Close()
				return fail(err)
			}
		}
		st := j.Stats()
		// Under -sync-every > 1 the final group commit happens inside Close:
		// the acknowledged tail is durable only once it returns nil, so a
		// failed last fsync must fail the command, not print success.
		if err := j.Close(); err != nil {
			return fail(fmt.Errorf("final commit: %w", err))
		}
		fmt.Fprintf(stdout, "applied %d updates: journal %d edges (%d records, %s), |IS| = %d, delta = %d\n",
			applied, st.JournalEdges, st.JournalRecords, formatBytes(uint64(st.JournalBytes)), st.SetSize, st.DeltaEdges)
		return 0

	case "stat":
		// Read-only: StatJournal walks the manifest and journal segments
		// without opening the store for writes — no checkpoint stamping, no
		// torn-tail truncation, no recovery repair scan — so stat is
		// O(journal) and safe on a store another process has open.
		st, err := mis.StatJournal(*dir, opts...)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "generation: %d\nbase: %s\nhorizon: %d edge records folded\n", st.Generation, st.BasePath, st.Horizon)
		fmt.Fprintf(stdout, "segments: %d live, active #%d, folded through #%d\n",
			st.Segments, st.ActiveSegment, st.FoldedSegment)
		fmt.Fprintf(stdout, "journal: %d records (%d edges, %d durable), %s\n",
			st.JournalRecords, st.JournalEdges, st.DurableRecords, formatBytes(uint64(st.JournalBytes)))
		if st.TornBytesOnOpen > 0 {
			fmt.Fprintf(stdout, "torn tail: %d bytes (truncated by the next open)\n", st.TornBytesOnOpen)
		}
		fmt.Fprintf(stdout, "delta: %d edges journaled since the last fold\n", st.DeltaEdges)
		if st.Err != nil {
			fmt.Fprintf(stdout, "error: %v\n", st.Err)
		}
		return 0

	case "verify":
		j, err := mis.OpenJournal(ctx, *dir, opts...)
		if err != nil {
			return fail(err)
		}
		defer j.Close()
		if *repair {
			if _, err := j.Repair(ctx); err != nil {
				return fail(err)
			}
		}
		if err := j.Verify(ctx); err != nil {
			return fail(err)
		}
		st := j.Stats()
		fmt.Fprintf(stdout, "verified: independent set of %d vertices over generation %d + %d journaled edges\n",
			st.SetSize, st.Generation, st.JournalEdges)
		return 0

	case "compact":
		j, err := mis.OpenJournal(ctx, *dir, opts...)
		if err != nil {
			return fail(err)
		}
		defer j.Close()
		before := j.Stats()
		start := time.Now()
		if err := j.Compact(ctx); err != nil {
			return fail(err)
		}
		st := j.Stats()
		fmt.Fprintf(stdout, "compacted %d edge records into generation %d (%s) in %v\n",
			before.JournalEdges, st.Generation, st.BasePath, time.Since(start).Round(time.Millisecond))
		return 0

	default:
		fmt.Fprintf(stderr, "misjournal: unknown command %q\n", cmd)
		return usage(stderr)
	}
}

// applyStream journals ops from r until EOF, an error, or ctx cancellation.
func applyStream(ctx context.Context, j *mis.Journal, r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	applied := 0
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var op string
		var u, v uint32
		if _, err := fmt.Sscanf(line, "%1s %d %d", &op, &u, &v); err != nil {
			return applied, fmt.Errorf("bad op line %q: %w", line, err)
		}
		var err error
		switch op {
		case "i":
			err = j.InsertEdge(u, v)
		case "d":
			err = j.DeleteEdge(u, v)
		default:
			err = fmt.Errorf("bad op %q (want i or d)", op)
		}
		if err != nil {
			return applied, err
		}
		applied++
	}
	return applied, sc.Err()
}

func formatBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%cB", float64(n)/float64(div), "KMGTPE"[exp])
}
