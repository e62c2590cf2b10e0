package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	workload  string
	seed      int64
	ops       int
	attempted int
	failed    int
	metrics   map[string]float64
	spansPath string
	// notes are the raw host timings behind the estimators (the three
	// set-ups, the forty segment rates), printed before the result line:
	// when a host metric moves they show whether one slow stretch or the
	// whole run did it.
	notes []string
}

// hostPhase is the host-side cost of one measured phase.
type hostPhase struct {
	start, end time.Time
	events     uint64
	mem0, mem1 runtime.MemStats
	cpu0, cpu1 time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// measure runs requests [from, from+n) on st with the host counters read
// immediately around them: the closing read happens inside the last
// request's completion, before any post-run drain.
func measure(st stack, from, n int, rec *recorder) (hostPhase, error) {
	var h hostPhase
	runtime.GC()
	ev0 := st.events()
	runtime.ReadMemStats(&h.mem0)
	h.cpu0 = cpuTime()
	rec.onLast = func() {
		h.end = time.Now()
		h.cpu1 = cpuTime()
		runtime.ReadMemStats(&h.mem1)
		h.events = st.events() - ev0
	}
	h.start = time.Now()
	err := st.run(from, n, rec, true)
	if err == nil && h.end.IsZero() {
		err = fmt.Errorf("run returned before its last request completed")
	}
	return h, err
}

// upperQuartile is the nearest-rank 75th percentile.
func upperQuartile(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 75)
}

// warmed sets a stack up the way every measured phase finds it:
// constructed, inputs generated, and a warm-up pass of a tenth of the
// request count driven through it.
func warmed(sp *spec, cfg runCfg, warm int) (stack, error) {
	st, err := sp.setup(cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(warm, sp.limit, false)
	if err := st.run(0, warm, rec, false); err != nil {
		st.discard()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := rec.reconcile(!sp.noEcho); err != nil {
		st.discard()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// runE2E measures the twelve end-to-end metrics of one workload.
func runE2E(sp *spec, seed int64, ops int) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := ops / warmShare
	if warm < 1 {
		warm = 1
	}
	cfg := runCfg{seed: seed, ops: warm + ops, load: sp.baseLoad}

	// Set-up, three times back to back; the timed phase runs on the third
	// instance. Single set-ups on the reference box ranged 2.5x; over fifty
	// runs the median of three spread less than the fastest of three on
	// every workload (3-5% against 4-7% between quartiles; 11% against 15%
	// on trace-open, where the generator's cost depends on the seed).
	var st stack
	setups := make([]float64, 3)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		s, err := warmed(sp, cfg, warm)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		if i < len(setups)-1 {
			s.discard()
			continue
		}
		st = s
	}
	sort.Float64s(setups)

	rec := newRecorder(ops, sp.limit, true)
	h, err := measure(st, warm, ops, rec)
	if err != nil {
		st.discard()
		return nil, err
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	if err := rec.reconcile(!sp.noEcho); err != nil {
		return nil, err
	}
	rates := segmentRates(h.start, rec.stamps, rec.segEvery)
	if len(rates) < segments {
		return nil, fmt.Errorf("host_ops_per_s: %d of %d segment stamps", len(rates), segments)
	}
	sm := rec.sim(h.events)

	x, err := maxLoad(sp, seed, ops, st.inputs())
	if err != nil {
		return nil, fmt.Errorf("sim_max_load_x: %w", err)
	}

	m := map[string]float64{
		"setup_s":            setups[1],
		"host_ops_per_s":     upperQuartile(rates),
		"host_allocs_per_op": float64(h.mem1.Mallocs-h.mem0.Mallocs) / float64(ops),
		"host_events_per_op": sm.eventsPerOp,
		"sim_max_load_x":     x,
	}
	sm.into(m)
	for _, d := range e2eMetrics {
		v, ok := m[d.name]
		if !ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: value %v is missing, zero or not finite", d.name, v)
		}
	}
	return &result{
		workload: sp.name, seed: seed, ops: ops,
		attempted: rec.attempted, failed: rec.failed + rec.refused, metrics: m,
		notes: []string{
			fmt.Sprintf("set-ups, sorted (s): %.4f", setups),
			fmt.Sprintf("segment rates (1/s): %.0f", rates),
			fmt.Sprintf("timed phase: %.3f s host, %.3f s simulated", h.end.Sub(h.start).Seconds(), (rec.simEnd - rec.simStart).Seconds()),
		},
	}, nil
}

// into stores the simulated end-to-end metrics under their names.
func (s simMetrics) into(m map[string]float64) {
	m["ok_share"] = s.okShare
	m["slo_ok_share"] = s.sloOKShare
	m["sim_iops"] = s.simIOPS
	m["sim_read_p50_ms"] = s.readP50
	m["sim_read_p99_ms"] = s.readP99
	m["sim_write_p50_ms"] = s.writeP50
	m["sim_write_p99_ms"] = s.writeP99
}

// --- sim_max_load_x --------------------------------------------------------

// maxLoad answers the paper's Fig. 10 question as one number: the highest
// multiple of the workload's base offered load at which at least 99% of
// attempted requests finish OK within the latency limit in both halves of
// a run (the second half catches a backlog that is still growing). The
// quarter-octave grid gridLo..gridHi must bracket the answer. Every rung is
// a short untimed run on a fresh stack; results are exact, so a rung needs
// no repeats.
//
// A closed loop's load is a whole number of clients, so the search bisects
// client counts down to the adjacent pair (c passes, c+1 fails) and places
// the answer between them where the worse half's 99th-percentile latency,
// interpolated linearly, crosses the limit: one client is a third of the
// load on the smaller workloads, and the crossing moves smoothly with the
// seed where the pair would jump. The open loop's load is continuous: the
// search bisects the grid, then halves the bracketing step three more times
// (2^(1/32), about 2%).
func maxLoad(sp *spec, seed int64, ops int, in *inputs) (float64, error) {
	closed := !sp.openLoop
	n := ops / rungShare
	if !closed {
		// One whole day of the trace: a shorter slice would see only one
		// phase of the profile's daily burst cycle.
		n = len(in.day.Records)
		if n > ops {
			n = ops
		}
	}
	if n < 400 {
		n = 400
	}
	if closed && n > len(in.ops) {
		n = len(in.ops)
	}
	type rung struct {
		pass, aborted bool
		p99           float64
	}
	tried := map[float64]rung{}
	// run measures one rung. abort lets it stop as soon as it has failed:
	// an overloaded stack only gets slower to simulate.
	run := func(load float64, abort bool) (rung, error) {
		if r, ok := tried[load]; ok && (abort || !r.aborted) {
			return r, nil
		}
		st, err := sp.setup(runCfg{seed: seed, ops: n, load: load, in: in})
		if err != nil {
			return rung{}, err
		}
		rec := newRecorder(n, sp.limit, false)
		rec.ramp = n / 10
		rec.abortOnFail, rec.keepLat = abort, closed
		// A rung runs with no fault scenario armed: how hard a scenario
		// hits a short run depends on the seed's outage length, and the
		// answer would swing by a third from seed to seed. The faults'
		// effect is what ok_share, slo_ok_share and the p99s of the timed
		// phase report.
		err = st.run(0, n, rec, false)
		st.discard()
		if err != nil {
			return rung{}, fmt.Errorf("load %v: %w", load, err)
		}
		r := rung{pass: rec.rungPassed(), aborted: rec.aborted}
		if closed && !r.aborted {
			r.p99 = rec.rungP99()
		}
		tried[load] = r
		return r, nil
	}
	bracket := func(lo, hi float64) error {
		for _, end := range []struct {
			load float64
			want bool
		}{{lo, true}, {hi, false}} {
			r, err := run(end.load, true)
			if err != nil {
				return err
			}
			if r.pass != end.want {
				return fmt.Errorf("grid %.3gx..%.3gx of the base load does not bracket: load %v passed=%v",
					mult(sp.gridLo), mult(sp.gridHi), end.load, r.pass)
			}
		}
		return nil
	}

	if closed {
		lo := math.Max(1, math.Round(sp.baseLoad*mult(sp.gridLo)))
		hi := math.Round(sp.baseLoad * mult(sp.gridHi))
		if err := bracket(lo, hi); err != nil {
			return 0, err
		}
		for hi-lo > 1 {
			mid := math.Floor((lo + hi) / 2)
			r, err := run(mid, true)
			if err != nil {
				return 0, err
			}
			if r.pass {
				lo = mid
			} else {
				hi = mid
			}
		}
		below, err := run(lo, false)
		if err != nil {
			return 0, err
		}
		above, err := run(hi, false)
		if err != nil {
			return 0, err
		}
		limit := sp.limit.Milliseconds()
		t := (limit - below.p99) / (above.p99 - below.p99) // 0 when above.p99 is +Inf
		return (lo + t) / sp.baseLoad, nil
	}

	lo, hi := sp.gridLo, sp.gridHi
	if err := bracket(sp.baseLoad*mult(lo), sp.baseLoad*mult(hi)); err != nil {
		return 0, err
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r, err := run(sp.baseLoad*mult(mid), true)
		if err != nil {
			return 0, err
		}
		if r.pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	xlo, xhi := mult(lo), mult(hi)
	for i := 0; i < 3; i++ {
		mid := math.Sqrt(xlo * xhi)
		r, err := run(sp.baseLoad*mid, true)
		if err != nil {
			return 0, err
		}
		if r.pass {
			xlo = mid
		} else {
			xhi = mid
		}
	}
	return xlo, nil
}
