// Package workload drives a core.Array with the two load shapes the paper
// evaluates: an Iometer-style closed loop (fixed number of outstanding
// requests, fixed read fraction and request size — the micro-benchmarks of
// Section 4.2 and the validation of Section 3.5) and an open-loop trace
// replayer (the macro-benchmarks of Section 4.1).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Iometer is a closed-loop generator: it keeps Outstanding requests in
// flight, each a ReadFrac-weighted read or write of Sectors sectors at a
// position drawn with seek locality Locality.
type Iometer struct {
	ReadFrac    float64
	Sectors     int
	Outstanding int
	// Locality is the seek-locality index (the paper's micro-benchmarks
	// use 3); 1 = uniform random.
	Locality float64
	Seed     int64
}

// Result aggregates a run.
type Result struct {
	Completed int
	Elapsed   des.Time
	IOPS      float64
	Latency   stats.Collector
}

// Run issues `total` requests and returns throughput and latency results.
func (w Iometer) Run(sim *des.Sim, a *core.Array, total int) (*Result, error) {
	if w.Outstanding < 1 {
		return nil, fmt.Errorf("workload: need at least one outstanding request")
	}
	if w.Sectors < 1 {
		w.Sectors = 1
	}
	loc := w.Locality
	if loc < 1 {
		loc = 1
	}
	rng := rand.New(rand.NewSource(w.Seed))
	res := &Result{}
	n := float64(a.DataSectors() - int64(w.Sectors))
	win := n / 256
	pl := (n/3 - n/(3*loc)) / (n/3 - win/4)
	if pl < 0 {
		pl = 0
	}
	cur := rng.Int63n(int64(n))
	nextOff := func() int64 {
		if rng.Float64() < pl {
			cur += int64((rng.Float64() - 0.5) * win)
			if cur < 0 {
				cur = -cur
			}
			if cur >= int64(n) {
				cur = int64(n) - 1
			}
		} else {
			cur = rng.Int63n(int64(n))
		}
		return cur
	}

	start := sim.Now()
	issued := 0
	finished := 0
	errs := []error{}
	// One completion closure for the whole run: the per-request state lives
	// in the captured counters, so the hot loop allocates nothing per I/O.
	var issue func()
	onDone := func(r core.Result) {
		res.Latency.Add(r.Latency())
		finished++
		issue()
	}
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op := core.Read
		if rng.Float64() >= w.ReadFrac {
			op = core.Write
		}
		off := nextOff()
		if err := a.Submit(op, off, w.Sectors, false, onDone); err != nil {
			errs = append(errs, err)
			finished++
		}
	}
	prime := w.Outstanding
	if total < prime {
		prime = total
	}
	for i := 0; i < prime; i++ {
		issue()
	}
	for finished < total {
		if !sim.Step() {
			return nil, fmt.Errorf("workload: simulation stalled with %d/%d finished", finished, total)
		}
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	res.Completed = finished
	res.Elapsed = sim.Now() - start
	res.IOPS = stats.Throughput(finished, res.Elapsed)
	return res, nil
}

// ReplayResult aggregates a trace replay.
type ReplayResult struct {
	Submitted int
	Completed int
	// Sync collects response times of reads and synchronous writes — the
	// population the paper reports. Async collects the rest.
	Sync  stats.Collector
	Async stats.Collector
	// MaxQueue is the largest per-drive foreground queue seen.
	MaxQueue int
	// Saturated reports that replay was cut short because a drive queue
	// exceeded SaturationQueue — the offered load is beyond the array's
	// sustainable throughput.
	Saturated bool
}

// SaturationQueue is the per-drive queue length at which Replay gives up:
// response times this deep in overload carry no information beyond
// "saturated", and scheduling costs grow with queue length.
const SaturationQueue = 2000

// MeanResponse is the reported mean (sync requests only).
func (r *ReplayResult) MeanResponse() des.Time { return r.Sync.Mean() }

// Replay plays a trace open-loop against an array: each record is
// submitted at its arrival timestamp regardless of completions. It returns
// once every record has completed.
func Replay(sim *des.Sim, a *core.Array, tr *trace.Trace) (*ReplayResult, error) {
	if tr.DataSectors > a.DataSectors() {
		return nil, fmt.Errorf("workload: trace volume %d exceeds array volume %d", tr.DataSectors, a.DataSectors())
	}
	res := &ReplayResult{}
	finished := 0
	// Arrivals self-schedule one ahead to keep the event queue small; only
	// one arrival event is ever outstanding, so a single event closure and a
	// shared cursor replace the per-record closures of the old driver.
	base := sim.Now()
	onDone := func(cr core.Result) {
		if cr.Async {
			res.Async.Add(cr.Latency())
		} else {
			res.Sync.Add(cr.Latency())
		}
		finished++
	}
	submitOne := func(r trace.Record) error {
		op := core.Read
		if r.Write {
			op = core.Write
		}
		count := r.Count
		if count < 1 {
			count = 1
		}
		off := r.Off
		if off+int64(count) > a.DataSectors() {
			off = a.DataSectors() - int64(count)
		}
		return a.Submit(op, off, count, r.Async, onDone)
	}
	stopped := false
	next := 0
	var arriveEvt func()
	schedule := func() {
		if next >= len(tr.Records) || stopped {
			return
		}
		at := base + tr.Records[next].At
		if at < sim.Now() {
			at = sim.Now()
		}
		sim.At(at, arriveEvt)
	}
	arriveEvt = func() {
		rec := tr.Records[next]
		next++
		if err := submitOne(rec); err != nil {
			panic(err)
		}
		res.Submitted++
		for d := 0; d < a.Disks(); d++ {
			if q := a.QueueLen(d); q > res.MaxQueue {
				res.MaxQueue = q
			}
		}
		if res.MaxQueue > SaturationQueue {
			res.Saturated = true
			stopped = true
			return
		}
		schedule()
	}
	schedule()
	for finished < res.Submitted || !stopped && finished < len(tr.Records) {
		if !sim.Step() {
			if res.Saturated && finished >= res.Submitted {
				break
			}
			return nil, fmt.Errorf("workload: replay stalled at %d/%d", finished, len(tr.Records))
		}
	}
	res.Completed = finished
	return res, nil
}
