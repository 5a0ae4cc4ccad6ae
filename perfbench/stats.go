package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule may report, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// supports reports whether n samples leave at least minBeyond samples
// above the q-quantile.
func supports(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// tailQuantile picks the highest candidate percentile that n samples
// support, or false when not even the median is supported.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailCandidates {
		if supports(q, n) {
			return q, true
		}
	}
	return 0, false
}

// p99 is the 99th percentile of an ascending sample; it refuses
// samples too small to hold minBeyond values above it (fewer than
// 1000).
func p99(sorted []float64) (float64, error) {
	if !supports(0.99, len(sorted)) {
		return 0, fmt.Errorf("p99 needs at least %d samples beyond it; have %d samples", minBeyond, len(sorted))
	}
	return quantile(sorted, 0.99), nil
}

// latWindows is how many windows a latency sample is split into; the
// reported p50 and p90 are the medians over windows, so a burst of
// outside load in one window does not set the run's figure.
const latWindows = 5

// latSummary is a windowed latency sample: the median over windows of
// each window's p50 and p90, and the p99 of the pooled sample (with the
// refusal text when the pool holds fewer than 1000 samples).
type latSummary struct {
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	P99    float64 `json:"pooled_p99_ms"`
	P99Err string  `json:"pooled_p99_refused,omitempty"`
	N      int     `json:"samples"`
}

func summarize(windows [][]float64) (latSummary, error) {
	var p50s, p90s, all []float64
	for _, w := range windows {
		s := sorted(w)
		if !supports(0.9, len(s)) {
			return latSummary{}, fmt.Errorf("a latency window of %d samples cannot support p90", len(s))
		}
		p50s = append(p50s, quantile(s, 0.5))
		p90s = append(p90s, quantile(s, 0.9))
		all = append(all, w...)
	}
	out := latSummary{P50: median(p50s), P90: median(p90s), N: len(all)}
	if q, err := p99(sorted(all)); err != nil {
		out.P99Err = err.Error()
	} else {
		out.P99 = q
	}
	return out, nil
}

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects any metric name outside metricName.
func checkNames(m map[string]metric) error {
	for name := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	return nil
}

// span is one timed interval. Parent is the index of the enclosing
// span in the same slice, or -1; Frame groups the spans of one frame.
type span struct {
	Name   string `json:"name"`
	Frame  uint64 `json:"frame"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its direct children. Children may overlap each
// other and may stick out of the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(0)
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// nestByContainment sets each span's Parent to the shortest span of
// the same frame whose interval contains it (ties go to the earlier
// index), for spans recorded without parent links.
func nestByContainment(spans []span) {
	byFrame := map[uint64][]int{}
	for i := range spans {
		byFrame[spans[i].Frame] = append(byFrame[spans[i].Frame], i)
	}
	for _, idx := range byFrame {
		for _, i := range idx {
			s := &spans[i]
			s.Parent = -1
			best := int64(math.MaxInt64)
			for _, j := range idx {
				if j == i {
					continue
				}
				p := spans[j]
				d := p.End - p.Start
				if p.Start > s.Start || p.End < s.End {
					continue
				}
				// Identical intervals: the earlier index is the parent.
				if p.Start == s.Start && p.End == s.End && j > i {
					continue
				}
				if d < best {
					best, s.Parent = d, j
				}
			}
		}
	}
}
