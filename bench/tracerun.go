package main

import (
	"fmt"
	"reflect"
	"runtime"

	mimdraid "repro"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/layout"
)

// spansPerOp bounds how many spans one request can produce at the deepest
// stack (cluster: one router submit and done, two brick submits and dones
// for a replicated write, plus failover retries), with room for backfill.
const spansPerOp = 8

// runTrace measures the per-layer metrics of one workload: the first tenth
// of the request stream is run twice on identically set-up stacks, once
// untraced (the host-cost reference) and once with spans recorded at every
// layer boundary and an obs registry attached. The traced run must
// reproduce the untraced run's simulated metrics exactly, and the layers'
// own counters are reported as what they added over the traced requests.
func runTrace(sp *spec, seed int64, ops int, outDir string) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := ops / warmShare
	if warm < 1 {
		warm = 1
	}
	n := ops / 10
	if n < segments {
		n = segments
	}
	cfg := runCfg{seed: seed, ops: warm + n, load: sp.baseLoad}
	// A layer that is not in the workload's stack reports 0.
	m := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = 0
	}

	// Untraced reference.
	st, err := warmed(sp, cfg, warm)
	if err != nil {
		return nil, err
	}
	rec0 := newRecorder(n, sp.limit, true)
	h0, err := measure(st, warm, n, rec0)
	if err != nil {
		st.discard()
		return nil, err
	}
	if err := st.finish(); err != nil {
		return nil, err
	}
	if err := rec0.reconcile(!sp.noEcho); err != nil {
		return nil, err
	}
	sim0 := rec0.sim(h0.events)
	in := st.inputs()

	// Traced run, same inputs, same set-up.
	tr := newTracer(n*spansPerOp + 4096)
	cfg.in, cfg.tr = in, tr
	st, err = warmed(sp, cfg, warm)
	if err != nil {
		return nil, err
	}
	rec1 := newRecorder(n, sp.limit, true)
	before, after := counters{}, counters{}
	st.counters(before)
	tr.on = true
	h1, err := measure(st, warm, n, rec1)
	tr.on = false
	if err != nil {
		st.discard()
		return nil, err
	}
	st.counters(after)
	if err := st.finish(); err != nil {
		return nil, err
	}
	if err := rec1.reconcile(!sp.noEcho); err != nil {
		return nil, err
	}
	if sim1 := rec1.sim(h1.events); sim1 != sim0 {
		return nil, fmt.Errorf("traced run's simulated metrics differ from the untraced run's on the shared prefix: %s",
			diffFields(sim0, sim1))
	}
	if tr.dropped > 0 {
		return nil, fmt.Errorf("span buffer overflowed: %d spans dropped", tr.dropped)
	}

	// bench.*: the untraced prefix's host cost.
	wall0 := h0.end.Sub(h0.start).Seconds()
	wall1 := h1.end.Sub(h1.start).Seconds()
	rates := segmentRates(h0.start, rec0.stamps, rec0.segEvery)
	q1, q2, q3 := quartiles(rates)
	m["bench.host_ops_per_s_med"] = q2
	m["bench.host_ops_per_s_iqr_share"] = (q3 - q1) / q2
	m["bench.wall_s"] = wall0
	m["bench.cpu_s_per_kop"] = (h0.cpu1 - h0.cpu0).Seconds() / float64(n) * 1000
	m["bench.bytes_per_op"] = float64(h0.mem1.TotalAlloc-h0.mem0.TotalAlloc) / float64(n)
	m["bench.gc_cycles"] = float64(h0.mem1.NumGC - h0.mem0.NumGC)
	m["bench.peak_rss_mb"] = peakRSSMB()
	m["bench.samples_read"] = float64(len(rec0.reads))
	m["bench.samples_write"] = float64(len(rec0.writes))
	m["bench.gen_late_ms_max"] = rec0.lateMax.Milliseconds()
	m["bench.trace_overhead_share"] = wall1/wall0 - 1
	m["core.async_write_ms_mean"] = ratio(rec0.asyncSum, float64(rec0.asyncN))

	spanLayers(m, tr, n, wall1, h1.events)
	layersFrom(m, after.since(before), n, rec1.simEnd-rec1.simStart)

	probes(m)
	switch s := st.(type) {
	case *arrayStack:
		if s.foregroundWrites {
			m["model.read_latency_err_share"] = modelErr(s.arr, s.readFrac, float64(s.clients))
		}
	case *clusterStack:
		x, err := shardedSpeedup(sp, cfg, warm, n, stampRate(rec0))
		if err != nil {
			return nil, fmt.Errorf("des.sharded_w2_speedup: %w", err)
		}
		m["des.sharded_w2_speedup"] = x
	}

	path, err := tr.write(outDir, sp.name)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return &result{
		workload: sp.name, seed: seed, ops: n,
		attempted: rec1.attempted, failed: rec1.failed + rec1.refused,
		metrics: m, spansPath: path,
	}, nil
}

// diffFields names the fields two simMetrics differ in.
func diffFields(a, b simMetrics) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	out := ""
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Float(), vb.Field(i).Float(); x != y {
			out += fmt.Sprintf(" %s %v != %v", va.Type().Field(i).Name, x, y)
		}
	}
	return out
}

// spanLayers turns the recorded spans into the per-layer host times. ops is
// the number of requests of the traced phase, wall its host time.
func spanLayers(m map[string]float64, tr *tracer, ops int, wall float64, events uint64) {
	s := tr.stats()
	mean := func(ns int64, calls int) float64 { return ratio(float64(ns), float64(calls)) }
	perOp := func(ns int64) float64 { return float64(ns) / float64(ops) }

	bs, bd := s[spanBrickSubmit], s[spanBrickDone]
	m["core.submit_calls"] = float64(bs.calls)
	m["core.submit_ns"] = mean(bs.totalNs, bs.calls)
	m["core.done_ns"] = mean(bd.totalNs, bd.calls)

	cs, cd := s[spanClusterSubmit], s[spanClusterDone]
	m["cluster.submit_calls"] = float64(cs.calls)
	m["cluster.submit_self_ns"] = mean(cs.totalNs-cs.childNs[spanBrickSubmit], cs.calls)
	// What the router does when a brick completes: the brick-level
	// completion spans minus the client callbacks nested in them.
	if cs.calls > 0 {
		m["cluster.done_self_ns"] = mean(bd.totalNs-bd.childNs[spanClusterDone], cd.calls)
		m["cluster.pieces_per_op"] = ratio(float64(bs.calls), float64(cs.calls))
	}

	gs, gd := s[spanGatewaySubmit], s[spanGatewayDone]
	hs, ks := s[spanHandler], s[spanClient]
	m["service.calls"] = float64(hs.calls)
	if hs.calls > 0 {
		m["service.client_ns"] = mean(ks.totalNs, ks.calls)
		m["service.handler_ns"] = mean(hs.totalNs, hs.calls)
		m["service.transport_self_ns"] = mean(ks.totalNs-hs.totalNs, ks.calls)
		m["service.volume_ns"] = mean(gs.totalNs+gd.totalNs, hs.calls)
		m["service.gateway_self_ns"] = mean(hs.totalNs-gs.totalNs-gd.totalNs, hs.calls)
		m["service.batch_size_mean"] = ratio(float64(gd.calls), float64(gs.calls))
	}

	// Host time per simulator event, inclusive of everything the event
	// runs, and the part of it per request that no completion or submit
	// span covers: dispatch, scheduler pick, drive completion, and the
	// simulator's own queue.
	m["des.step_ns_mean"] = wall * 1e9 / float64(events)
	var top int64
	for i := range tr.spans {
		sp := &tr.spans[i]
		if sp.parent == 0 && sp.name <= spanGatewayDone {
			top += sp.end - sp.start
		}
	}
	if hs.calls == 0 {
		m["core.event_ns_per_op"] = wall*1e9/float64(ops) - perOp(top)
	}
}

// modelErr is the simulator's error against the reference the repository
// holds, the paper's latency model (Eq. 9/12): |simulated mean positioning
// time - predicted| / predicted, for foreground requests of the 2x3 array.
func modelErr(arr *core.Array, readFrac, clients float64) float64 {
	_, _, seek, rotate, _ := arr.BreakdownReport().Means()
	cfg := layout.SRArray(2, 3)
	want := mimdraid.PredictLatency(disk.ST39133LWV(), cfg, mimdraid.Workload{
		P: readFrac, Q: clients / float64(cfg.Disks()), L: 3,
	})
	got := seek + rotate
	d := float64(got-want) / float64(want)
	if d < 0 {
		d = -d
	}
	return d
}

// shardedSpeedup is the cluster workload's request rate with two epoch
// workers on two Ps over its rate with one (ref, from the untraced prefix):
// the number that decides whether multi-worker mode pays.
func shardedSpeedup(sp *spec, cfg runCfg, warm, n int, ref float64) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg.tr, cfg.workers = nil, 2
	st, err := warmed(sp, cfg, warm)
	if err != nil {
		return 0, err
	}
	rec := newRecorder(n, sp.limit, true)
	if err := st.run(warm, n, rec, true); err != nil {
		return 0, err
	}
	if err := st.finish(); err != nil {
		return 0, err
	}
	return stampRate(rec) / ref, nil
}

// stampRate is a run's request rate from its first segment stamp to its
// last.
func stampRate(rec *recorder) float64 {
	k := len(rec.stamps)
	if k < 2 {
		return 0
	}
	return float64((k-1)*rec.segEvery) / rec.stamps[k-1].Sub(rec.stamps[0]).Seconds()
}
