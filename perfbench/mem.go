package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// heapWatch tracks the peak live heap over a measured phase — the heap
// each garbage collection found reachable — relative to the live heap when
// the phase starts, after a forced collection so that garbage from input
// generation does not count. Live bytes, not allocated bytes, so that the
// figure does not depend on how far garbage piled up between collections.
type heapWatch struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	runtime.GC()
	h := &heapWatch{base: heapBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(h.base)
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := heapBytes(); v > h.peak.Load() {
					h.peak.Store(v)
				}
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak growth in MiB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()-h.base) / (1 << 20)
}

// livePeak is the peak of the exact live heap over chosen quiescent points
// of a phase, relative to the live heap when it was made. A sampled peak
// (heapWatch) depends on when collections happen to end, which on small
// working sets or beside large transient buffers does not repeat from run
// to run; forcing the collections at fixed points does.
type livePeak struct{ base, peak uint64 }

func newLivePeak() *livePeak {
	b := exactLive()
	return &livePeak{base: b, peak: b}
}

// exactLive collects twice and returns the live heap: the second
// collection empties sync.Pool victim caches, whose contents would
// otherwise count or not depending on when the last collection ran.
func exactLive() uint64 {
	runtime.GC()
	runtime.GC()
	return heapBytes()
}

// sample raises the peak to the live heap now; a nil livePeak ignores it.
func (p *livePeak) sample() {
	if p != nil {
		p.peak = max(p.peak, exactLive())
	}
}

// mib returns the peak growth in MiB.
func (p *livePeak) mib() float64 { return float64(p.peak-p.base) / (1 << 20) }
