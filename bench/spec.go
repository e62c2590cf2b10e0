package main

import (
	"math"

	"repro/internal/des"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the twelve end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order. Only setup_s and host_ops_per_s are
// host timings; host_allocs_per_op is a host count, and the other nine are
// simulated statistics or exact counts that repeat bit-for-bit at a fixed
// seed.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_allocs_per_op", "count"},
	{"host_events_per_op", "count"},
	{"ok_share", "share"},
	{"slo_ok_share", "share"},
	{"sim_iops", "1/s"},
	{"sim_read_p50_ms", "ms"},
	{"sim_read_p99_ms", "ms"},
	{"sim_write_p50_ms", "ms"},
	{"sim_write_p99_ms", "ms"},
	{"sim_max_load_x", "x"},
}

// layerMetrics are the per-layer metrics every workload reports with
// -trace 1 (0 where the layer is not in the workload's stack).
var layerMetrics = []metricDef{
	{"bench.host_ops_per_s_med", "1/s"},
	{"bench.host_ops_per_s_iqr_share", "share"},
	{"bench.wall_s", "s"},
	{"bench.cpu_s_per_kop", "s"},
	{"bench.bytes_per_op", "B"},
	{"bench.gc_cycles", "count"},
	{"bench.peak_rss_mb", "MB"},
	{"bench.samples_read", "count"},
	{"bench.samples_write", "count"},
	{"bench.gen_late_ms_max", "ms"},
	{"bench.trace_overhead_share", "share"},

	{"disk.service_calc_ns", "ns"},
	{"disk.sim_service_ms_mean", "ms"},
	{"disk.sim_busy_share", "share"},

	{"sched.pick_ns_q8", "ns"},
	{"sched.pick_ns_q128", "ns"},
	{"sched.picks_per_op", "count"},
	{"sched.queue_len_mean", "count"},
	{"sched.sim_wait_ms_mean", "ms"},
	{"sched.sim_predicted_ms_mean", "ms"},

	{"des.pushpop_ns", "ns"},
	{"des.step_ns_mean", "ns"},
	{"des.sharded_w2_speedup", "x"},

	{"core.submit_calls", "count"},
	{"core.submit_ns", "ns"},
	{"core.done_ns", "ns"},
	{"core.event_ns_per_op", "ns"},
	{"core.bg_dispatch_share", "share"},
	{"core.nvram_entries_mean", "count"},
	{"core.async_write_ms_mean", "ms"},
	{"core.retries", "count"},
	{"core.failovers", "count"},
	{"core.failed", "count"},
	{"core.hedges_issued", "count"},
	{"core.sheds", "count"},
	{"core.rebuild_chunks", "count"},

	{"cluster.submit_calls", "count"},
	{"cluster.submit_self_ns", "ns"},
	{"cluster.done_self_ns", "ns"},
	{"cluster.pieces_per_op", "count"},
	{"cluster.read_failovers", "count"},
	{"cluster.trips", "count"},
	{"cluster.probes", "count"},
	{"cluster.diverged", "count"},
	{"cluster.backfilled", "count"},
	{"cluster.abandoned", "count"},
	{"cluster.recopies", "count"},
	{"cluster.all_down", "count"},

	{"service.calls", "count"},
	{"service.client_ns", "ns"},
	{"service.handler_ns", "ns"},
	{"service.transport_self_ns", "ns"},
	{"service.volume_ns", "ns"},
	{"service.gateway_self_ns", "ns"},
	{"service.batch_size_mean", "count"},
	{"service.rate_limited", "count"},
	{"service.overloaded", "count"},
	{"service.shed", "count"},
	{"service.unavailable", "count"},

	{"slo.transitions", "count"},
	{"slo.level_final", "count"},
	{"slo.shed_total", "count"},

	{"tracegen.generate_s", "s"},
	{"chaos.events_armed", "count"},

	{"model.read_latency_err_share", "share"},
}

// ioSectors is the request size of every closed-loop workload (4 KB).
const ioSectors = 8

// warmShare is the warm-up pass of a set-up, as a share of the timed
// phase's request count.
const warmShare = 10

// rungShare is the length of one untimed max-load run, as a share of the
// timed phase's request count (trace-open replays one whole day instead,
// see traceStack). At a twentieth, sim_max_load_x spread up to 6% between
// the quartiles of ten seeds (http-closed, 50 samples beyond each half's
// p99); at a tenth, under 4% on every workload, for 1-3 s more per run.
const rungShare = 10

// segments is how many equal-request slices the timed phase is stamped in.
const segments = 40

// spec fixes one workload: its frozen size, base offered load, latency
// limit, and the quarter-octave grid sim_max_load_x searches.
type spec struct {
	name string
	why  string
	// opsPerSec is the timed phase's request count per second of
	// -seconds, sized once so that the reference box spends about that
	// long in the timed phase, then frozen: the phase is never
	// time-bounded, so simulated results stay exact.
	opsPerSec int
	// baseLoad is the client count of a closed loop, or the Trace.Scale
	// rate of the open loop.
	baseLoad float64
	limit    des.Time
	// gridLo..gridHi are the exponents k of the load multipliers 2^(k/4).
	gridLo, gridHi int
	// openLoop marks the workload whose load is an arrival rate, not a
	// client count; noEcho the one whose completions do not carry the
	// request back (HTTP replies), so the echo check does not apply.
	openLoop, noEcho bool
	// setup constructs the stack and generates its inputs (or adopts
	// cfg.in).
	setup func(cfg runCfg) (stack, error)
}

// runCfg sizes one stack instance.
type runCfg struct {
	seed int64
	ops  int     // requests the input stream must hold (warm-up + run)
	load float64 // clients, or trace scale rate
	in   *inputs // adopt instead of generating (max-load rungs)
	tr   *tracer // nil: untraced
	// workers is the des.Sharded epoch worker count (cluster-chaos only).
	workers int
}

// stack is one constructed instance of a workload's layers plus the
// benchmark's driver for it.
type stack interface {
	// run issues requests [from, from+n) of the input stream at the
	// stack's load and returns once each has completed or been refused.
	// measured marks the phase fault scenarios are armed in.
	run(from, n int, rec *recorder, measured bool) error
	// events is the simulator's processed-event count.
	events() uint64
	// inputs returns the generated inputs, for reuse by max-load rungs.
	inputs() *inputs
	// counters adds the layers' cumulative totals as they stand; call it
	// between runs.
	counters(c counters)
	// finish drains background work, stops goroutines, and checks the
	// layers' own invariants.
	finish() error
	// discard stops the stack of an aborted run without draining it.
	discard()
}

func mult(k int) float64 { return math.Pow(2, float64(k)/4) }

var specs = []*spec{
	{
		name:      "array-read-closed",
		why:       "bare 2x3 SR-Array, 48 closed-loop clients, 95% reads: rsatf replica-aware picks at deep queues, so sched+disk estimation dominate",
		opsPerSec: 330000, baseLoad: 48, limit: 100 * des.Millisecond,
		gridLo: -12, gridHi: 4,
		setup: func(c runCfg) (stack, error) { return newArrayStack(c, 0.95, true) },
	},
	{
		name:      "array-write-closed",
		why:       "same array, 12 clients, 30% reads, delayed propagation: NVRAM pressure and background picks, the write side of the same core+sched code",
		opsPerSec: 75000, baseLoad: 12, limit: 50 * des.Millisecond,
		gridLo: -12, gridHi: 8,
		setup: func(c runCfg) (stack, error) { return newArrayStack(c, 0.30, false) },
	},
	{
		name:      "trace-open",
		why:       "open-loop Cello-base trace at about half utilisation: short queues, so per-request core submit/complete and des push/pop dominate; the paper's macro-benchmark",
		opsPerSec: 330000, baseLoad: 160, limit: 50 * des.Millisecond,
		gridLo: -8, gridHi: 12, openLoop: true,
		setup: newTraceStack,
	},
	{
		name:      "cluster-chaos",
		why:       "R=2 cluster over 4 RAID-10 bricks on des.Sharded under a seeded crash/fail-slow/drive-fail/burst scenario: router, breaker, backfill and epoch engine dominate",
		opsPerSec: 250000, baseLoad: 16, limit: 50 * des.Millisecond,
		gridLo: -8, gridHi: 16,
		setup: newClusterStack,
	},
	{
		name:      "http-closed",
		why:       "deterministic gateway + SLO controller + net/http over one nearly idle array, 2 tenants: barrier, JSON and HTTP are most of the host time, so only service changes show",
		opsPerSec: 36000, baseLoad: 2, limit: 50 * des.Millisecond,
		gridLo: 0, gridHi: 24, noEcho: true,
		setup: newHTTPStack,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
