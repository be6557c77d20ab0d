package shard

import (
	"repro/internal/exec"
	"repro/internal/gio"
)

// Source returns the merged scan engine over the set: an exec.Executor over
// the shard files that merges their batches back into the merged graph's
// exact scan order on the calling goroutine, accounting into stats (which may
// be nil). workers ≤ 0 selects GOMAXPROCS; 1 decodes shards sequentially on
// the calling goroutine. Construct one Source per concurrent run (they are
// cheap); an executor itself must not be used concurrently.
//
// The engine never captures a plan: its units come from metadata persisted
// at write time (footers and the manifest), so a cold open performs zero
// planning scans by construction.
func (s *Set) Source(stats *gio.Counters, workers int) *exec.Executor {
	return exec.NewMerged(s.files, s.NumVertices(), stats, workers, s.units)
}

// units builds a run's work list from persisted metadata only: unit order
// (by shard, then by offset) is the merged scan order. Shards with a loaded
// partition plan (footered files) split into byte-proportional record-aligned
// partitions; shards without one become a single unit whose bounds come from
// the manifest — either way, no planning scan runs.
func (s *Set) units(workers int) []exec.Unit {
	var out []exec.Unit
	target := workers * exec.PartitionsPerWorker
	total := s.man.TotalBytes()
	for i, f := range s.files {
		e := s.man.Shards[i]
		if workers > 1 && f.HasPartitionPlan() {
			parts := 1
			if total > 0 {
				parts = int((int64(target)*e.Bytes + total/2) / total)
			}
			if ps, err := f.Partitions(max(parts, 1)); err == nil && len(ps) > 0 {
				for _, p := range ps {
					out = append(out, exec.Unit{File: i, Part: p})
				}
				continue
			}
		}
		out = append(out, exec.Unit{File: i, Part: gio.Partition{
			StartRecord: 0,
			Records:     e.Records,
			StartOffset: gio.HeaderSize,
			EndOffset:   f.PayloadEnd(),
		}})
	}
	return out
}
