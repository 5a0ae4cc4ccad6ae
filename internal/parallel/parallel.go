// Package parallel is the simulator's deterministic fan-out engine.
// Every Monte-Carlo sweep in the repository is an independent grid of
// (point, trial) work items whose randomness is derived from an
// explicit per-index seed, so the only thing concurrency may change is
// wall-clock time — never results. The contract enforced here:
//
//   - Work is identified by index. Each fn(i) derives everything it
//     needs (seed, config, output slot) from i alone and writes into a
//     caller-owned slice element, so output layout is fixed before any
//     goroutine starts.
//   - Reduction happens on the caller's goroutine, in index order,
//     after the pool drains. Floating-point accumulation order is
//     therefore identical for every worker count, making results
//     bit-identical between workers=1 and workers=N.
//   - workers=1 runs fn on the calling goroutine in strict index
//     order, reproducing the historical sequential execution exactly.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"backfi/internal/obs"
)

// poolMetrics caches instrument handles so the dispatch loop never
// touches the registry. Metrics here are pure observers of wall-clock
// time: they cannot perturb results, which stay index-derived.
type poolMetrics struct {
	item    *obs.Histogram
	busy    *obs.Histogram
	batch   obs.Stage
	workers *obs.Gauge
}

var metrics atomic.Pointer[poolMetrics]

// SetRegistry installs a metrics registry for every subsequent batch:
// per-item wall clock, per-worker busy seconds, batch wall clock, and
// an effective-worker-count gauge. Passing nil (the default) restores
// the uninstrumented fast path, whose only cost is one atomic load per
// batch. ForEach's signature is used throughout the repository, so
// this is package state rather than a parameter; set it once at
// process start, before pools run.
func SetRegistry(r *obs.Registry) {
	if r == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		item:    r.Histogram(obs.MetricParallelItem, "Wall-clock seconds per parallel work item.", obs.DurationBuckets),
		busy:    r.Histogram(obs.MetricParallelBusy, "Per-worker busy seconds within one batch (sum of its item durations).", obs.DurationBuckets),
		batch:   obs.NewStage("parallel_batch", r.Histogram(obs.MetricParallelBatch, "Wall-clock seconds per ForEach batch.", obs.DurationBuckets)),
		workers: r.Gauge(obs.MetricParallelWorkers, "Effective worker count of the most recent batch."),
	})
}

// DefaultWorkers is the worker count used when a caller passes 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize maps a Workers option to an effective worker count:
// 0 means DefaultWorkers, negative values clamp to 1.
func Normalize(workers int) int {
	if workers == 0 {
		return DefaultWorkers()
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ForEach invokes fn(i) exactly once for every i in [0, n) using up to
// `workers` goroutines (0 = DefaultWorkers) and returns when all calls
// have completed. With workers <= 1 the calls run sequentially on the
// calling goroutine in index order. fn must write its result into a
// pre-indexed slot; ForEach guarantees completion, not call order.
// A panic in any fn is re-raised on the calling goroutine after the
// pool drains.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	m := metrics.Load()
	if m != nil {
		m.workers.Set(float64(workers))
	}
	if workers <= 1 {
		if m == nil {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		sp := m.batch.Start(obs.TraceCtx{})
		var busy time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			d := time.Since(t0)
			busy += d
			m.item.Observe(d.Seconds())
		}
		m.busy.Observe(busy.Seconds())
		sp.End()
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
		sp       obs.StageSpan
	)
	if m != nil {
		sp = m.batch.Start(obs.TraceCtx{})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var busy time.Duration
			if m != nil {
				defer func() { m.busy.Observe(busy.Seconds()) }()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, r)
						}
					}()
					if m == nil {
						fn(i)
						return
					}
					t0 := time.Now()
					fn(i)
					d := time.Since(t0)
					busy += d
					m.item.Observe(d.Seconds())
				}()
			}
		}()
	}
	wg.Wait()
	sp.End()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// ForEachErr is ForEach for work items that can fail. All indices run
// (workers > 1) or the loop stops at the first failure (workers <= 1);
// either way the returned error is the lowest-index one, so the value
// is independent of the worker count.
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Normalize(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
