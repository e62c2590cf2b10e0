// Package stats provides the small statistical toolkit the experiments
// use: streaming collectors with percentiles, and rate (throughput)
// accounting.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/des"
)

// Collector accumulates samples (typically response times in
// microseconds). Mean is maintained online, so it is O(1) at read time
// and never triggers a sort; Percentile shares one lazily-built sorted copy
// of the samples, leaving the insertion-order sample slice untouched.
type Collector struct {
	vals []float64
	// sorted is the cached sorted view, built on first demand and
	// invalidated by Add; it is always a copy, never c.vals itself.
	sorted []float64
	// mean is the running mean (Welford's update).
	mean float64
}

// Add records one sample.
func (c *Collector) Add(v des.Time) {
	c.vals = append(c.vals, float64(v))
	c.sorted = nil
	c.mean += (float64(v) - c.mean) / float64(len(c.vals))
}

// N returns the sample count.
func (c *Collector) N() int { return len(c.vals) }

// Mean returns the sample mean.
func (c *Collector) Mean() des.Time {
	return des.Time(c.mean)
}

// sortedView returns the shared sorted copy of the samples, building it
// if an Add invalidated the cache.
func (c *Collector) sortedView() []float64 {
	if c.sorted == nil {
		c.sorted = append([]float64(nil), c.vals...)
		sort.Float64s(c.sorted)
	}
	return c.sorted
}

// Percentile returns the p-th percentile by nearest-rank. p must satisfy
// 0 < p <= 100; anything else (including NaN) is a caller bug and panics
// rather than being silently clamped to a valid rank.
func (c *Collector) Percentile(p float64) des.Time {
	if math.IsNaN(p) || p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile(%v) outside (0, 100]", p))
	}
	if len(c.vals) == 0 {
		return 0
	}
	s := c.sortedView()
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1 // p so small the ceil underflows to 0
	}
	return des.Time(s[rank-1])
}

// NearestRank returns the num/den quantile of vals by nearest rank — the
// element at 1-based position ceil(num*n/den) of the sorted sample, in
// integer arithmetic so every caller picks the same element — or the zero
// value for an empty sample. It sorts a copy; vals keeps its order.
func NearestRank[T cmp.Ordered](vals []T, num, den int) T {
	n := len(vals)
	if n == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[min(max((num*n+den-1)/den, 1), n)-1]
}

// Max returns the largest sample.
func (c *Collector) Max() des.Time {
	if len(c.vals) == 0 {
		return 0
	}
	if c.sorted != nil {
		return des.Time(c.sorted[len(c.sorted)-1])
	}
	best := c.vals[0]
	for _, v := range c.vals[1:] {
		if v > best {
			best = v
		}
	}
	return des.Time(best)
}

// Throughput converts a completion count over a simulated interval into
// I/Os per second.
func Throughput(completed int, elapsed des.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(completed) / elapsed.Seconds()
}

// TrimWarmup is the one place measurement windows are derived: it clips
// the first warmup of [start, end] and returns the interval completions
// should be counted over. Every caller that excludes warmup (today the
// experiments' measuredRate, which degraded-rebuild uses) must go through
// here, so a window can never start before the run or extend past its
// end. A warmup longer than the run collapses the window to [end,
// end], which Throughput then reports as rate 0 rather than a negative or
// inflated figure. Negative warmup and end < start are caller bugs and
// panic.
func TrimWarmup(start, end, warmup des.Time) (des.Time, des.Time) {
	if warmup < 0 {
		panic(fmt.Sprintf("stats: negative warmup %v", warmup))
	}
	if end < start {
		panic(fmt.Sprintf("stats: TrimWarmup window ends (%v) before it starts (%v)", end, start))
	}
	ws := start + warmup
	if ws > end {
		ws = end
	}
	return ws, end
}
