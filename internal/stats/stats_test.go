package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

func TestCollectorBasics(t *testing.T) {
	var c Collector
	for _, v := range []des.Time{10, 20, 30, 40, 50} {
		c.Add(v)
	}
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Mean() != 30 {
		t.Fatalf("Mean = %v", c.Mean())
	}
	if c.Max() != 50 {
		t.Fatalf("Max = %v", c.Max())
	}
	if got := c.Percentile(50); got != 30 {
		t.Fatalf("P50 = %v", got)
	}
	if got := c.Percentile(100); got != 50 {
		t.Fatalf("P100 = %v", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	var c Collector
	if c.Mean() != 0 || c.Percentile(50) != 0 || c.Max() != 0 {
		t.Fatal("empty collector should return zeros")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Collector
		for i := 0; i < 100; i++ {
			c.Add(des.Time(rng.Float64() * 1000))
		}
		prev := des.Time(-1)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			v := c.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return c.Percentile(100) == c.Max() && float64(c.Percentile(0.0001)) == slices.Min(c.vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAfterPercentile(t *testing.T) {
	var c Collector
	c.Add(10)
	_ = c.Percentile(50)
	c.Add(5)
	if c.Percentile(1) != 5 {
		t.Fatal("collector stale after Add following Percentile")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(500, des.Second); got != 500 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput with zero elapsed = %v", got)
	}
}

// TestAddOrderSurvivesSummary is the regression test for the in-place
// Percentile sort: order statistics must work on a copy, leaving the
// caller-visible insertion order intact.
func TestAddOrderSurvivesSummary(t *testing.T) {
	in := []des.Time{50, 10, 40, 20, 30}
	var c Collector
	for _, v := range in {
		c.Add(v)
	}
	_, _ = c.Percentile(50), c.Max()
	for i, v := range in {
		if c.vals[i] != float64(v) {
			t.Fatalf("Percentile reordered samples: vals[%d] = %v, want %v", i, c.vals[i], v)
		}
	}
	if got := c.Percentile(50); got != 30 {
		t.Fatalf("P50 after Summary = %v", got)
	}
}

func TestPercentileRejectsInvalid(t *testing.T) {
	var c Collector
	c.Add(1)
	for _, p := range []float64{0, -5, 100.001, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			c.Percentile(p)
		}()
	}
}

// TestWelfordMatchesTwoPass checks the online mean against the naive
// two-pass computation.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Collector
		var vals []float64
		for i := 0; i < 200; i++ {
			v := rng.Float64()*1e6 - 5e5
			c.Add(des.Time(v))
			vals = append(vals, v)
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		mean := sum / float64(len(vals))
		return math.Abs(float64(c.Mean())-mean) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTrimWarmup(t *testing.T) {
	ms := des.Millisecond
	cases := []struct {
		name               string
		start, end, warmup des.Time
		wantStart, wantEnd des.Time
	}{
		{"zero warmup", 10 * ms, 100 * ms, 0, 10 * ms, 100 * ms},
		{"normal trim", 10 * ms, 100 * ms, 30 * ms, 40 * ms, 100 * ms},
		{"warmup to edge", 10 * ms, 100 * ms, 90 * ms, 100 * ms, 100 * ms},
		{"warmup past end clamps", 10 * ms, 100 * ms, 200 * ms, 100 * ms, 100 * ms},
		{"empty window", 50 * ms, 50 * ms, 10 * ms, 50 * ms, 50 * ms},
		{"nonzero origin", des.Hour, des.Hour + 100*ms, 40 * ms, des.Hour + 40*ms, des.Hour + 100*ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, we := TrimWarmup(tc.start, tc.end, tc.warmup)
			if ws != tc.wantStart || we != tc.wantEnd {
				t.Fatalf("TrimWarmup(%v, %v, %v) = (%v, %v), want (%v, %v)",
					tc.start, tc.end, tc.warmup, ws, we, tc.wantStart, tc.wantEnd)
			}
			if r := Throughput(0, we-ws); r != 0 {
				t.Fatalf("zero completions gave rate %v", r)
			}
		})
	}
	for _, bad := range []struct {
		name               string
		start, end, warmup des.Time
	}{
		{"negative warmup", 0, 100, -1},
		{"inverted window", 100, 50, 0},
	} {
		t.Run(bad.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			TrimWarmup(bad.start, bad.end, bad.warmup)
		})
	}
}

// TestNearestRankMatchesReplacedFormulas holds NearestRank to the three
// hand-written percentiles it replaced — the p99 of the SLO controller and
// the experiments' windows, (99n+99)/100 clamped to n, and the fail-slow
// experiment's ceil(q*n) for q = 0.5, 0.99, 0.999 — at every sample size
// those callers can reach in a short run.
func TestNearestRankMatchesReplacedFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		orig := append([]int64(nil), vals...)
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		if n == 0 {
			if got := NearestRank(vals, 99, 100); got != 0 {
				t.Fatalf("empty sample: got %d, want the zero value", got)
			}
			continue
		}
		k := (99*n + 99) / 100
		if k > n {
			k = n
		}
		if got := NearestRank(vals, 99, 100); got != sorted[k-1] {
			t.Fatalf("n=%d: p99 = %d, integer formula picks %d", n, got, sorted[k-1])
		}
		for _, q := range []struct {
			num, den int
			f        float64
		}{{1, 2, 0.50}, {99, 100, 0.99}, {999, 1000, 0.999}} {
			i := int(math.Ceil(q.f*float64(n))) - 1
			if i < 0 {
				i = 0
			}
			if i >= n {
				i = n - 1
			}
			if got := NearestRank(vals, q.num, q.den); got != sorted[i] {
				t.Fatalf("n=%d q=%v: got %d, ceil(q*n) picks %d", n, q.f, got, sorted[i])
			}
		}
		for i := range vals {
			if vals[i] != orig[i] {
				t.Fatalf("n=%d: NearestRank reordered its input", n)
			}
		}
	}
}
