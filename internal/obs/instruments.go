package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing integer. All methods are safe
// on a nil receiver (no-ops / zero), which is how disabled metrics cost
// nothing on the hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced at runtime).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds v (CAS loop).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histShards is the number of independent accumulation slots per
// histogram. Observations pick a shard from a hash of the value bits,
// so concurrent writers of differing values rarely contend on the
// sum/count words; per-bucket counts are separate atomics regardless.
// Power of two, so the shard index is a mask.
const histShards = 8

// histShard is one accumulation slot, padded to its own cache lines so
// shards don't false-share.
type histShard struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
	_       [48]byte      // pad to 64 bytes
}

// Histogram is a fixed-bucket, lock-free histogram: observation does
// two atomic adds plus one CAS loop and never blocks. Bucket semantics
// follow Prometheus: counts[i] counts observations v <= bounds[i], with
// one extra +Inf bucket at the end.
type Histogram struct {
	bounds []float64
	// counts are cumulative-izable per-bucket tallies; they are shared
	// across shards because distinct buckets are already distinct words.
	counts []atomic.Int64
	shards [histShards]histShard
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// shardIndex spreads observations across shards by a 64-bit mix of the
// value bits. Identical repeated values share a shard, which is still
// lock-free — they only retry each other's sum CAS — while the common
// case (continuously varying durations, dB levels, BERs) spreads.
func shardIndex(v float64) int {
	h := math.Float64bits(v)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & (histShards - 1))
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	s := &h.shards[shardIndex(v)]
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	var s float64
	for i := range h.shards {
		s += math.Float64frombits(h.shards[i].sumBits.Load())
	}
	return s
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinBuckets returns n linearly spaced bucket bounds starting at start
// with the given width.
func LinBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Shared bucket layouts for the simulator's standard quantities.
var (
	// DurationBuckets covers 1 µs to ~30 s, the span from a single DSP
	// kernel to a full figure harness.
	DurationBuckets = ExpBuckets(1e-6, math.Sqrt(10), 16)
	// DBBuckets covers -130..+95 dB(m) in 5 dB steps — SIC residuals,
	// cancellation depths, and SNRs all land here.
	DBBuckets = LinBuckets(-130, 5, 46)
	// BERBuckets covers 1e-6..1 per decade.
	BERBuckets = ExpBuckets(1e-6, 10, 7)
	// CountBuckets covers small integer tallies (corrected bits, offsets)
	// 1..4096 in powers of two; 0 falls in the first (≤1) bucket.
	CountBuckets = ExpBuckets(1, 2, 13)
	// LatencyBuckets resolves serve-path latencies on both sides of the
	// binary-protocol switch: DurationBuckets' half-decade steps were
	// laid out for the 125 ms JSON regime and put the binary path's
	// whole 1–10 ms operating range (p99 ≈ 8.3 ms) inside two buckets.
	// These bounds give sub-millisecond resolution through the tail
	// that matters while still covering the JSON-era 100 ms+ regime.
	LatencyBuckets = []float64{
		50e-6, 100e-6, 200e-6, 500e-6,
		1e-3, 2e-3, 3e-3, 5e-3, 8e-3, 12e-3, 20e-3, 35e-3,
		60e-3, 125e-3, 250e-3, 500e-3, 1,
	}
)
