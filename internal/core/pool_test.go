package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sched"
)

// poolStressRun drives a fault-heavy closed loop — transient errors,
// timeouts, a mid-run drive failure and rebuild onto a spare, delayed-write
// propagation — and returns a digest of everything observable. Every
// recycled pooled object (requests, extent runs, user requests, delayed
// copies) is exercised across all the release paths: clean completion,
// fault retry, duplicate-claim losers, and the FailDrive sweep.
func poolStressRun(t *testing.T) string {
	t.Helper()
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rsatf", func(o *Options) {
		o.Spares = 1
		o.Faults = disk.FaultModel{TransientRate: 0.02, TimeoutRate: 0.005}
	})
	rng := rand.New(rand.NewSource(7))
	const total = 1500
	issued, finished, failed := 0, 0, 0
	var latSum des.Time
	var issue func()
	onDone := func(r Result) {
		finished++
		if r.Failed {
			failed++
		}
		latSum += r.Latency()
		issue()
	}
	n := a.DataSectors() - 64
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op := Read
		if rng.Float64() < 0.4 {
			op = Write
		}
		if err := a.Submit(op, rng.Int63n(n), 8+rng.Intn(56), false, onDone); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if issued == total/3 {
			if err := a.FailDrive(1); err != nil {
				t.Fatalf("FailDrive: %v", err)
			}
		}
	}
	for i := 0; i < 32; i++ {
		issue()
	}
	for finished < total {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, total)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("array never drained")
	}
	f := a.Faults()
	return fmt.Sprintf("finished=%d failed=%d lat=%v now=%v faults=%+v rebuilt=%v",
		finished, failed, latSum, sim.Now(), f, a.RebuildProgress())
}

// TestPoolPoisoningAliasRegression runs the fault-heavy loop with pool
// poisoning off and on. Poisoning scrambles every object as it returns to
// its free list, so any consumer still holding a released request, run, or
// copy either panics outright or diverges the digest. Identical digests
// mean no release path lets an alias escape.
func TestPoolPoisoningAliasRegression(t *testing.T) {
	clean := poolStressRun(t)
	defer SetPoolPoisoning(SetPoolPoisoning(true))
	poisoned := poolStressRun(t)
	if clean != poisoned {
		t.Fatalf("pool poisoning changed the simulation:\nclean:    %s\npoisoned: %s", clean, poisoned)
	}
}

// steadyStateAllocs runs the benchmark's array-write-closed shape at test
// scale — a 2x3 SR-Array with a 1000-entry delayed-write table under 12
// closed-loop clients issuing 8-sector requests, the given share of them
// writes — and returns the heap objects allocated per request once the pools
// are warm. The table is small enough to fill during warm-up, so the copy,
// entry and chunk-state pools reach their steady state as well. It counts
// runtime.MemStats.Mallocs around the measured loop, as bench/ does:
// testing.AllocsPerRun calls its function once to warm up, and that call
// would drain the whole run and leave nothing to measure.
func steadyStateAllocs(t *testing.T, writeShare float64) float64 {
	t.Helper()
	sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", func(o *Options) {
		o.NVRAMEntries = 1000
	})
	rng := rand.New(rand.NewSource(3))
	n := a.DataSectors() - 8
	var issue func()
	issued, finished := 0, 0
	const total, clients = 24000, 12
	onDone := func(Result) { finished++; issue() }
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op := Read
		if rng.Float64() < writeShare {
			op = Write
		}
		if err := a.Submit(op, rng.Int63n(n), 8, false, onDone); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools with half of the run before measuring.
	for i := 0; i < clients; i++ {
		issue()
	}
	for finished < total/2 {
		if !sim.Step() {
			t.Fatal("stalled during warmup")
		}
	}
	start := finished
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for finished < total {
		if !sim.Step() {
			t.Fatal("stalled")
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(total-start)
}

// TestPooledSubmitSteadyStateAllocs pins the pooling claim at the API
// boundary: a steady-state closed loop of pooled reads and delayed-mode
// writes must stay under a handful of allocations per operation (extent
// merges and scheduler scratch included, amortized).
func TestPooledSubmitSteadyStateAllocs(t *testing.T) {
	for _, leg := range []struct {
		name       string
		writeShare float64
		max        float64
	}{
		{"mix", 0.3, 5},
		{"writes", 1, 14},
	} {
		t.Run(leg.name, func(t *testing.T) {
			perOp := steadyStateAllocs(t, leg.writeShare)
			t.Logf("%.0f%% writes: %.2f allocs/op", 100*leg.writeShare, perOp)
			if perOp > leg.max {
				t.Fatalf("steady state allocates %.2f allocs/op, want <= %v", perOp, leg.max)
			}
		})
	}
}

// freshPickCheck wraps a drive's scheduler and re-decides every Pick on
// never-scored copies of the queued requests (fresh sched.Replica values, so
// no cached targets) with a second scheduler of the same stateless policy.
// A pooled request that carried a previous life's prepared targets into a
// new piece would score against the wrong cylinder and the two decisions —
// index, replica, or predicted time — would part.
type freshPickCheck struct {
	t       *testing.T
	inner   sched.Scheduler
	scratch sched.Scheduler
	picks   *int
	multi   *int // picks of a replica with several extents or a multi-track extent
}

func (c freshPickCheck) Name() string { return c.inner.Name() }

func (c freshPickCheck) Pick(now des.Time, arm disk.State, queue []*sched.Request, est calib.AccessEstimator) (sched.Choice, bool) {
	got, ok := c.inner.Pick(now, arm, queue, est)
	fresh := make([]*sched.Request, len(queue))
	for i, r := range queue {
		cp := *r
		cp.Replicas = make([]sched.Replica, len(r.Replicas))
		for j, rep := range r.Replicas {
			cp.Replicas[j] = sched.Replica{Extents: rep.Extents}
		}
		fresh[i] = &cp
	}
	want, wantOK := c.scratch.Pick(now, arm, fresh, est)
	if got != want || ok != wantOK {
		c.t.Fatalf("at %v: pooled queue picks %+v, never-scored copies pick %+v", now, got, want)
	}
	if !ok {
		return got, ok
	}
	// The reported prediction is a from-scratch estimate of the chosen
	// replica's current extents.
	req := queue[got.Index]
	exts := req.Replicas[got.Replica].Extents
	var scratch des.Time
	if len(exts) == 1 {
		scratch = est.Access(arm, disk.Request{Start: exts[0].Start, Count: exts[0].Count, Write: req.Write}, now)
	} else {
		scratch = est.AccessRun(arm, exts, req.Write, now)
	}
	if got.Predicted != scratch {
		c.t.Fatalf("at %v: Choice.Predicted = %v, from-scratch estimate of %+v is %v", now, got.Predicted, exts, scratch)
	}
	*c.picks++
	if len(exts) > 1 || exts[0].Start.Sector+exts[0].Count > 182 { // 182: the narrowest zone's track
		*c.multi++
	}
	return got, ok
}

// TestPooledRequestsNeverCarryStaleTargets recycles pooled requests across
// pieces scattered over the whole disk — small reads, multi-track reads,
// foreground mirror duplicates, delayed-mode first writes and their promoted
// copies — and checks every scheduling decision against one made without
// any cached target. It runs plain, where a request released with prepared
// targets keeps them on the free list until its next life overwrites them,
// and poisoned, where release scrubs them.
func TestPooledRequestsNeverCarryStaleTargets(t *testing.T) {
	for _, poison := range []bool{false, true} {
		t.Run(fmt.Sprintf("poison=%v", poison), func(t *testing.T) {
			defer SetPoolPoisoning(SetPoolPoisoning(poison))
			checkPooledTargets(t)
		})
	}
}

func checkPooledTargets(t *testing.T) {
	sim, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rsatf", func(o *Options) {
		o.DataSectors = 0 // the whole disk: pieces land on cylinders far apart
		o.NVRAMEntries = 24
	})
	picks, multi := 0, 0
	for _, d := range a.drives {
		scratch, err := sched.New("rsatf")
		if err != nil {
			t.Fatal(err)
		}
		d.sched = freshPickCheck{t: t, inner: d.sched, scratch: scratch, picks: &picks, multi: &multi}
	}
	rng := rand.New(rand.NewSource(5))
	const total = 3000
	issued, finished := 0, 0
	var issue func()
	onDone := func(Result) { finished++; issue() }
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op, count := Read, 8
		if rng.Float64() < 0.35 {
			op = Write
		}
		if rng.Float64() < 0.2 {
			count = 200 + rng.Intn(600) // wraps tracks, fuses across them, spans chunks
		}
		if err := a.Submit(op, rng.Int63n(a.DataSectors()-int64(count)), count, false, onDone); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for i := 0; i < 24; i++ {
		issue()
	}
	for finished < total {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, total)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("array never drained")
	}
	if picks < total || multi < total/20 {
		t.Fatalf("checked %d picks (%d of multi-extent or multi-track replicas); the workload did not exercise the cache", picks, multi)
	}
}
