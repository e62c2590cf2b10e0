package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/des"
)

// recorder tallies one run's completions. Drivers call issued once per
// attempt and exactly one of done or refused for it. All simulator-side
// drivers are single-goroutine; the HTTP tenants serialize through mu.
type recorder struct {
	mu    sync.Mutex
	limit des.Time
	n     int // logical requests the run will finish

	// ramp completions are excluded from the max-load halves (a closed
	// loop starting on an empty array sees short queues first).
	ramp int

	attempted int // submissions, retries included
	finished  int // logical requests completed or given up
	ok        int
	okLimit   int
	failed    int // completed with an error
	refused   int // rejected at submit
	half      [2]half

	reads, writes []float64 // simulated ms, synchronous requests that succeeded
	asyncSum      float64
	asyncN        int
	lateMax       des.Time // open loop: generator lateness

	simStart, simEnd des.Time
	// echoIn/echoOut checksum (op, offset, count) of what was submitted
	// and what the completions reported: every request must come back as
	// itself, exactly once.
	echoIn, echoOut uint64

	// stamps holds the host time of every n/segments-th completion.
	stamps   []time.Time
	segEvery int
	// onLast runs inside the completion of the last logical request, so
	// the host counters it reads exclude the post-run drain.
	onLast func()

	// abortOnFail ends a max-load rung as soon as more than 1% of either
	// half has missed the limit: the rung has failed whatever follows, and
	// an overloaded stack only gets slower to simulate.
	abortOnFail bool
	aborted     bool
	keepLat     bool
}

// half is one half of a max-load rung after its ramp: attempts, attempts
// that completed OK within the limit, attempts that did not, and (for a
// rung, which asks for them with keepLat) every attempt's latency in ms,
// +Inf for one that failed or was refused.
type half struct {
	n, good, bad int
	lat          []float64
}

func newRecorder(n int, limit des.Time, timed bool) *recorder {
	r := &recorder{limit: limit, n: n}
	r.reads = make([]float64, 0, n)
	r.writes = make([]float64, 0, n)
	if timed {
		r.segEvery = n / segments
		if r.segEvery < 1 {
			r.segEvery = 1
		}
		r.stamps = make([]time.Time, 0, segments)
	}
	return r
}

func echo(op core.Op, off int64, count int) uint64 {
	return (uint64(off)*2+uint64(op))*0x9e3779b97f4a7c15 + uint64(count)
}

// issued records one submission attempt that the layer accepted.
func (r *recorder) issued(op core.Op, off int64, count int) {
	r.attempted++
	r.echoIn += echo(op, off, count)
}

// refuse records a submission the layer rejected synchronously. final
// reports that the driver gives the logical request up (no retry).
func (r *recorder) refuse(final bool) {
	r.attempted++
	r.refused++
	h := r.halfNow()
	if h != nil {
		h.n++
	}
	r.miss(h)
	if final {
		r.finish()
	}
}

// done records one completion.
func (r *recorder) done(res core.Result) {
	r.echoOut += echo(res.Op, res.Off, res.Count)
	r.complete(res.Op, res.Async, res.Submit, res.Done, res.Failed)
}

// complete is done without the echo check, for drivers whose completions
// do not carry the request (HTTP responses).
func (r *recorder) complete(op core.Op, async bool, submit, done des.Time, failed bool) {
	if done > r.simEnd {
		r.simEnd = done
	}
	h := r.halfNow()
	if h != nil {
		h.n++
	}
	if failed {
		r.failed++
		r.miss(h)
		r.finish()
		return
	}
	r.ok++
	lat := done - submit
	ms := lat.Milliseconds()
	if lat <= r.limit {
		r.okLimit++
		if h != nil {
			h.good++
			if r.keepLat {
				h.lat = append(h.lat, ms)
			}
		}
	} else {
		r.miss(h)
		if h != nil && r.keepLat {
			h.lat[len(h.lat)-1] = ms
		}
	}
	switch {
	case async:
		r.asyncSum += ms
		r.asyncN++
	case op == core.Read:
		r.reads = append(r.reads, ms)
	default:
		r.writes = append(r.writes, ms)
	}
	r.finish()
}

// halfNow is the max-load half the next outcome belongs to, nil during
// the ramp.
func (r *recorder) halfNow() *half {
	switch {
	case r.finished < r.ramp:
		return nil
	case r.finished < r.ramp+(r.n-r.ramp)/2:
		return &r.half[0]
	}
	return &r.half[1]
}

func (r *recorder) miss(h *half) {
	if h == nil {
		return
	}
	h.bad++
	if r.keepLat {
		h.lat = append(h.lat, math.Inf(1))
	}
	if r.abortOnFail && h.bad*100 > (r.n-r.ramp)/2 {
		r.aborted = true
	}
}

// rungPassed reports whether at least 99% of the attempts of each half
// completed OK within the limit.
func (r *recorder) rungPassed() bool {
	if r.aborted {
		return false
	}
	for _, h := range r.half {
		if h.n == 0 || h.good*100 < h.n*99 {
			return false
		}
	}
	return true
}

// rungP99 is the larger of the two halves' 99th-percentile latencies in
// ms, a failed or refused attempt counting as +Inf; the rung passed iff it
// is within the limit. Needs keepLat.
func (r *recorder) rungP99() float64 {
	worst := 0.0
	for i := range r.half {
		lat := r.half[i].lat
		sort.Float64s(lat)
		if p := percentile(lat, 99); !(p <= worst) {
			worst = p
		}
	}
	return worst
}

func (r *recorder) finish() {
	r.finished++
	if r.segEvery > 0 && r.finished%r.segEvery == 0 && len(r.stamps) < cap(r.stamps) {
		r.stamps = append(r.stamps, time.Now())
	}
	if r.finished == r.n && r.onLast != nil {
		r.onLast()
	}
}

// over reports that the run need not continue.
func (r *recorder) over() bool { return r.finished >= r.n || r.aborted }

// reconcile checks the output accounting of a completed run.
func (r *recorder) reconcile(echoed bool) error {
	if r.attempted != r.ok+r.failed+r.refused {
		return fmt.Errorf("issued %d != completed %d + failed %d + refused %d", r.attempted, r.ok, r.failed, r.refused)
	}
	if r.finished != r.n {
		return fmt.Errorf("finished %d of %d requests", r.finished, r.n)
	}
	if echoed && r.echoIn != r.echoOut {
		return fmt.Errorf("completions do not echo the submitted (op, offset, count) set")
	}
	if r.simEnd <= r.simStart {
		return fmt.Errorf("simulated clock did not advance (%v..%v)", r.simStart, r.simEnd)
	}
	return nil
}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p / 100 * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// quartiles returns the quartiles of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the benchmark's acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// segmentRates turns the completion stamps into per-segment request rates.
func segmentRates(start time.Time, stamps []time.Time, every int) []float64 {
	rates := make([]float64, 0, len(stamps))
	prev := start
	for _, t := range stamps {
		rates = append(rates, float64(every)/t.Sub(prev).Seconds())
		prev = t
	}
	return rates
}

// simMetrics are the simulated end-to-end statistics of one run: exact
// functions of (code, seed, request count), never of the host.
type simMetrics struct {
	okShare, sloOKShare, simIOPS         float64
	readP50, readP99, writeP50, writeP99 float64
	eventsPerOp                          float64
}

func (r *recorder) sim(events uint64) simMetrics {
	sort.Float64s(r.reads)
	sort.Float64s(r.writes)
	return simMetrics{
		okShare:     float64(r.ok) / float64(r.attempted),
		sloOKShare:  float64(r.okLimit) / float64(r.attempted),
		simIOPS:     float64(r.ok) / (r.simEnd - r.simStart).Seconds(),
		readP50:     percentile(r.reads, 50),
		readP99:     percentile(r.reads, 99),
		writeP50:    percentile(r.writes, 50),
		writeP99:    percentile(r.writes, 99),
		eventsPerOp: float64(events) / float64(r.n),
	}
}
