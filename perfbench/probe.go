package main

import (
	"context"
	"fmt"
	"time"

	mis "repro"
	"repro/internal/exec"
	"repro/internal/gio"
	"repro/internal/shard"
)

// The layer probes time the benchmark's own calls into one layer's public
// functions. Each pass folds every record ID and neighbor into sink, the
// access pattern of an algorithm pass, so an engine that skips
// materializing neighbors is still charged for delivering them.
var sink uint64

func fold(batch []gio.Record) error {
	s := uint64(0)
	for _, r := range batch {
		s += uint64(r.ID)
		for _, v := range r.Neighbors {
			s += uint64(v)
		}
	}
	sink += s
	return nil
}

// batchSource is the scan entry point gio.File, exec.Executor and
// shard.Source share.
type batchSource interface {
	ForEachBatchCtx(ctx context.Context, fn func([]gio.Record) error) error
}

// timePasses runs one untimed warm-up pass (page faults, lazy partition
// planning) and then passes timed ones, each under its own span.
func timePasses(ctx context.Context, tr *tracer, name string, passes int, src func(*gio.Counters) batchSource) (samples, gio.Stats, error) {
	if err := src(nil).ForEachBatchCtx(ctx, fold); err != nil {
		return nil, gio.Stats{}, fmt.Errorf("%s: %w", name, err)
	}
	var out samples
	var last gio.Stats
	for i := 0; i < passes; i++ {
		c := &gio.Counters{}
		s := src(c)
		sp := tr.begin(name, nil)
		start := time.Now()
		err := s.ForEachBatchCtx(ctx, fold)
		out.addDur(time.Since(start), time.Second)
		sp.end()
		if err != nil {
			return nil, gio.Stats{}, fmt.Errorf("%s: %w", name, err)
		}
		last = c.Snapshot()
	}
	return out, last, nil
}

// probeFile opens path with the given engine for a probe.
func probeFile(path string, mmap bool) (*gio.File, error) {
	if mmap {
		return gio.OpenMmap(path, 0, nil)
	}
	return gio.Open(path, 0, nil)
}

// probeScan is gio: one bare single-stream pass.
func probeScan(ctx context.Context, tr *tracer, name, path string, mmap bool, passes int) (samples, gio.Stats, error) {
	f, err := probeFile(path, mmap)
	if err != nil {
		return nil, gio.Stats{}, err
	}
	defer f.Close()
	return timePasses(ctx, tr, name, passes, func(c *gio.Counters) batchSource { return f.WithCounters(c) })
}

// probeExec is exec: the same pass through the parallel partitioned
// executor with in-order merge.
func probeExec(ctx context.Context, tr *tracer, path string, mmap bool, workers, passes int) (samples, error) {
	f, err := probeFile(path, mmap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, _, err := timePasses(ctx, tr, "probe.exec.scan", passes, func(c *gio.Counters) batchSource {
		return exec.New(f.WithCounters(c), workers)
	})
	return s, err
}

// probeShards is shard: one merged pass over a shard set.
func probeShards(ctx context.Context, tr *tracer, dir string, workers, passes int) (samples, error) {
	set, err := shard.Open(dir, shard.Options{})
	if err != nil {
		return nil, err
	}
	defer set.Close()
	s, _, err := timePasses(ctx, tr, "probe.shard.scan", passes, func(c *gio.Counters) batchSource {
		return set.Source(c, workers)
	})
	return s, err
}

// probeDigest times File.ContentDigest on freshly opened files, as the
// daemon pays it on the first request for a new graph generation.
func probeDigest(ctx context.Context, tr *tracer, path string, reps int) (samples, string, error) {
	var out samples
	var digest string
	for i := 0; i < reps; i++ {
		d, dur, err := freshDigest(ctx, tr, path)
		if err != nil {
			return nil, "", err
		}
		out.addDur(dur, time.Second)
		digest = d
	}
	return out, digest, nil
}

func freshDigest(ctx context.Context, tr *tracer, path string) (string, time.Duration, error) {
	f, err := mis.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	sp := tr.begin("probe.server.digest", nil)
	start := time.Now()
	d, err := f.ContentDigest(ctx)
	dur := time.Since(start)
	sp.end()
	return d, dur, err
}

// blocksModel is the paper's I/O cost model for one scan, ⌈(|V|+|E|)/B⌉,
// with |V|+|E| counted in this format's 8-byte units: a raw record is an
// ID and a degree word plus one word per directed edge, so a file holds
// 8·(|V|+|E|) payload bytes.
func blocksModel(vertices int, edges uint64, blockSize int) uint64 {
	bytes := 8 * (uint64(vertices) + edges)
	return (bytes + uint64(blockSize) - 1) / uint64(blockSize)
}
