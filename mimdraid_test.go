package mimdraid

import (
	"errors"
	"testing"
)

func TestPublicAPIQuickPath(t *testing.T) {
	sim := NewSim()
	arr, err := New(sim, Options{Config: SRArray(2, 3), Policy: "rsatf", DataSectors: 1 << 21, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lat Time
	reads := 0
	for i := int64(0); i < 20; i++ {
		if err := arr.Read(i*4096, 8, func(r Result) {
			lat += r.Latency()
			reads++
		}); err != nil {
			t.Fatal(err)
		}
	}
	wrote := false
	if err := arr.Write(512, 8, func(Result) { wrote = true }); err != nil {
		t.Fatal(err)
	}
	async := false
	if err := arr.WriteAsync(1024, 8, func(r Result) { async = r.Async }); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if reads != 20 || !wrote || !async {
		t.Fatalf("reads=%d wrote=%v async=%v", reads, wrote, async)
	}
	if lat <= 0 {
		t.Fatal("non-positive cumulative latency")
	}
}

// A cluster builds and serves through the public API in both forms: the
// router on shard 0 of a two-worker engine with three bricks on their own
// shards, and the colocated form where router and bricks share one Sim.
// Each runs an R=2 volume over three bricks and a closed loop of reads and
// writes submitted from router events.
func TestPublicAPIShardedCluster(t *testing.T) {
	const lat = 150 * Microsecond
	opts := ClusterOptions{Replicas: 2, ExtentSectors: 512}
	for _, sharded := range []bool{true, false} {
		var (
			sims  []*Sim
			run   func()
			build func([]Volume) (*ClusterVolume, error)
		)
		if sharded {
			sh := NewShardedSim(4, lat)
			if err := sh.SetWorkers(2); err != nil {
				t.Fatal(err)
			}
			sims = []*Sim{sh.Shard(0), sh.Shard(1), sh.Shard(2), sh.Shard(3)}
			run = sh.Run
			build = func(bricks []Volume) (*ClusterVolume, error) {
				return NewShardedCluster(sims, sh.Send, lat, bricks, opts)
			}
		} else {
			sim := NewSim()
			sims = []*Sim{sim, sim, sim, sim}
			run = sim.Run
			build = func(bricks []Volume) (*ClusterVolume, error) { return NewCluster(sim, bricks, opts) }
		}
		var bricks []Volume
		for b := 1; b <= 3; b++ {
			arr, err := New(sims[b], Options{Config: RAID10(2), Policy: "satf", DataSectors: 1 << 16, Seed: int64(b)})
			if err != nil {
				t.Fatal(err)
			}
			bricks = append(bricks, arr)
		}
		cl, err := build(bricks)
		if err != nil {
			t.Fatal(err)
		}
		issued, finished := 0, 0
		var issue func()
		issue = func() {
			if issued == 200 {
				return
			}
			op := OpRead
			if issued%3 == 0 {
				op = OpWrite
			}
			off := int64(issued*7919) % (cl.DataSectors() - 8)
			issued++
			if err := cl.Submit(op, off, 8, false, func(r Result) {
				if r.Failed {
					t.Errorf("sharded=%v: request at %d failed: %v", sharded, r.Off, r.Err)
				}
				finished++
				issue()
			}); err != nil {
				t.Errorf("sharded=%v: submit: %v", sharded, err)
			}
		}
		sims[0].At(0, func() {
			for i := 0; i < 4; i++ {
				issue()
			}
		})
		run()
		if finished != 200 {
			t.Fatalf("sharded=%v: finished %d/200", sharded, finished)
		}
		if c := cl.Counters(); c.ReadFailovers != 0 || c.Diverged != 0 {
			t.Fatalf("sharded=%v: healthy cluster moved failure counters: %+v", sharded, c)
		}
	}
}

// The crash/recovery surface works end to end through the public API:
// power-fail a battery-backed array mid-write-burst, watch outstanding
// work fail with ErrCrashed, recover, and reconcile the counters.
func TestPublicAPICrashRecovery(t *testing.T) {
	sim := NewSim()
	arr, err := New(sim, Options{
		Config: RAID10(4), Policy: "rsatf", DataSectors: 1 << 16, Seed: 1,
		Crash: CrashModel{Enabled: true, Durability: BatteryBacked},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp
	crashedOps := 0
	for i := int64(0); i < 12; i++ {
		ops = append(ops, BatchOp{Op: OpWrite, Off: i * 1024, Count: 8, Done: func(r Result) {
			if errors.Is(r.Err, ErrCrashed) {
				crashedOps++
			}
		}})
	}
	if errs, n := arr.SubmitBatchErrs(ops); errs != nil || n != len(ops) {
		t.Fatalf("SubmitBatchErrs = (%v, %d)", errs, n)
	}
	for arr.NVRAMUsed() == 0 && sim.Step() {
	}
	if err := arr.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := arr.Write(0, 8, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Write on crashed array = %v, want ErrCrashed", err)
	}
	if err := arr.Recover(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	rec := arr.Recovery()
	if rec.Crashes != 1 || rec.Recoveries != 1 {
		t.Fatalf("recovery counters %+v", rec)
	}
	if rec.LostDelayed != 0 {
		t.Fatalf("battery-backed crash lost %d delayed copies", rec.LostDelayed)
	}
	if rec.Adopted == 0 {
		t.Fatal("battery-backed recovery adopted nothing")
	}
	if crashedOps == 0 {
		t.Fatal("no outstanding op observed ErrCrashed")
	}
	if got := arr.DivergentCopies(); got != 0 {
		t.Fatalf("%d divergent copies after recovery", got)
	}
}

// Batch submission composes with admission control through the public
// API: one SubmitBatchErrs mixing malformed operations with enough valid
// ones to trip MaxQueueDepth returns an index-aligned error slice —
// malformed slots get their own errors, excess load gets ErrOverload,
// accepted slots (and only those) complete — and the shed work succeeds
// when resubmitted after the queues drain.
func TestPublicAPIBatchErrsWithOverload(t *testing.T) {
	sim := NewSim()
	arr, err := New(sim, Options{
		Config: SRArray(2, 2), Policy: "rsatf", DataSectors: 1 << 16, Seed: 1,
		MaxQueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The service front-end consumes the array through Volume; this test
	// drives the same surface.
	var vol Volume = arr

	const nOps = 24
	done := make([]int, nOps)
	var ops []BatchOp
	for i := 0; i < nOps; i++ {
		i := i
		off := int64(i%8) * 512 // pile onto few stripes: queues build fast
		if i%5 == 3 {
			off = vol.DataSectors() + int64(i) // malformed: past end of volume
		}
		ops = append(ops, BatchOp{Op: OpWrite, Off: off, Count: 8, Done: func(Result) { done[i]++ }})
	}
	errs, n := vol.SubmitBatchErrs(ops)
	if errs == nil {
		t.Fatal("expected a partial-failure error slice, got full acceptance")
	}
	if len(errs) != nOps {
		t.Fatalf("errs not index-aligned: len %d, want %d", len(errs), nOps)
	}
	accepted, shed, malformed := 0, 0, 0
	for i, e := range errs {
		switch {
		case e == nil:
			accepted++
		case errors.Is(e, ErrOverload):
			shed++
			if i%5 == 3 {
				t.Fatalf("malformed op %d reported ErrOverload", i)
			}
		default:
			malformed++
			if i%5 != 3 {
				t.Fatalf("valid op %d rejected with %v", i, e)
			}
		}
	}
	if accepted != n {
		t.Fatalf("accepted count %d != n %d", accepted, n)
	}
	if accepted == 0 || shed == 0 || malformed == 0 {
		t.Fatalf("want all three outcomes, got accepted=%d shed=%d malformed=%d", accepted, shed, malformed)
	}
	if got := arr.Sheds().Overload; got != int64(shed) {
		t.Fatalf("Sheds().Overload = %d, want %d", got, shed)
	}
	sim.Run()
	var retry []BatchOp
	for i, e := range errs {
		switch {
		case e == nil:
			if done[i] != 1 {
				t.Fatalf("accepted op %d completed %d times, want 1", i, done[i])
			}
		default:
			if done[i] != 0 {
				t.Fatalf("rejected op %d ran its Done %d times", i, done[i])
			}
			if errors.Is(e, ErrOverload) {
				retry = append(retry, ops[i])
			}
		}
	}
	// Retry the shed work in waves — resubmit, drain, resubmit what was
	// shed again — exactly the discipline a 429-honoring client follows.
	// Every op must land within a bounded number of waves.
	for wave := 0; len(retry) > 0; wave++ {
		if wave > 2*nOps {
			t.Fatalf("retry never drained: %d ops still shed", len(retry))
		}
		errs, _ := vol.SubmitBatchErrs(retry)
		var next []BatchOp
		for i, e := range errs {
			switch {
			case e == nil:
			case errors.Is(e, ErrOverload):
				next = append(next, retry[i])
			default:
				t.Fatalf("retry wave %d op %d failed with %v", wave, i, e)
			}
		}
		sim.Run()
		retry = next
	}
	for i := range done {
		want := 1
		if i%5 == 3 {
			want = 0 // malformed ops never run
		}
		if done[i] != want {
			t.Fatalf("op %d completed %d times, want %d", i, done[i], want)
		}
	}
	if !vol.Idle() {
		t.Fatal("volume not idle after drain")
	}
}

// The per-tenant SLO control plane works end to end through the public
// API: classify tiers, walk the brownout ladder on violating windows
// (clamping the array's tuning on the way up), shed best-effort before
// standard and premium never, then recover to Normal and restore the
// attach-time tuning.
func TestPublicAPISLOController(t *testing.T) {
	sim := NewSim()
	arr, err := New(sim, Options{
		Config: SRArray(2, 2), Policy: "rsatf", DataSectors: 1 << 16, Seed: 1,
		MaxQueueDepth: 8, Hedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := arr.Tuning()
	base.HedgeAfter = 10 * Millisecond
	if err := arr.SetTuning(base); err != nil {
		t.Fatal(err)
	}
	window := 10 * Millisecond
	var targets [3]Time
	targets[TierPremium] = 5 * Millisecond
	ctl, err := NewSLOController(arr, SLOOptions{
		Window: window, Targets: targets,
		ViolateWindows: 1, RecoverWindows: 1, MinSamples: 1,
		Actuators: SLOActuators{HedgeAfter: 2 * Millisecond},
		Classify: func(tenant string) SLOTier {
			tier, err := ParseSLOTier(tenant)
			if err != nil {
				return TierStandard
			}
			return tier
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctl.Tier("best-effort"); got != TierBestEffort {
		t.Fatalf("Tier(best-effort) = %v", got)
	}
	// Feed one premium completion per window, then step into the next
	// window with an Admit probe (which records no latency) so the
	// window closes and is judged — one level per violating window.
	win := int64(0)
	feed := func(lat Time) {
		ctl.Observe(Time(win)*window+Millisecond, "premium", lat, false)
		win++
		ctl.Admit(Time(win)*window+Millisecond, "premium")
	}
	feed(50 * Millisecond)
	if got := ctl.Level(); got != SLODegradeBackground {
		t.Fatalf("after one violating window: level %v", got)
	}
	if got := arr.Tuning().HedgeAfter; got != 2*Millisecond {
		t.Fatalf("brownout did not clamp HedgeAfter: %v", got)
	}
	feed(50 * Millisecond)
	if got := ctl.Level(); got != SLOShedBestEffort {
		t.Fatalf("after two violating windows: level %v", got)
	}
	now := Time(win)*window + Millisecond
	if _, ok := ctl.Admit(now, "best-effort"); ok {
		t.Error("best-effort admitted at best-effort-shed")
	}
	if ra, ok := ctl.Admit(now, "premium"); !ok || ra != 0 {
		t.Errorf("premium shed (ra=%v ok=%v); premium must never be shed", ra, ok)
	}
	if got := ctl.RateScale("best-effort"); got >= 1 {
		t.Errorf("best-effort RateScale %v during brownout", got)
	}
	if got := ctl.RateScale("premium"); got != 1 {
		t.Errorf("premium RateScale %v", got)
	}
	// Compliant windows walk back down and restore the base tuning.
	for i := 0; i < 2; i++ {
		feed(1 * Millisecond)
	}
	if got := ctl.Level(); got != SLONormal {
		t.Fatalf("after compliant windows: level %v", got)
	}
	if got := arr.Tuning(); got != base {
		t.Fatalf("Normal did not restore tuning: %+v != %+v", got, base)
	}
	st := ctl.State()
	if st.Escalations != 2 || st.Deescalations != 2 {
		t.Fatalf("esc/deesc = %d/%d", st.Escalations, st.Deescalations)
	}
	if st.Tiers[TierBestEffort].Sheds == 0 || st.Tiers[TierPremium].Sheds != 0 {
		t.Fatalf("shed counters %+v", st.Tiers)
	}
	// The nil controller is inert through the public surface too.
	var off *SLOController
	if _, ok := off.Admit(now, "best-effort"); !ok {
		t.Error("nil controller shed a request")
	}
	if off.RateScale("best-effort") != 1 || off.Level() != SLONormal {
		t.Error("nil controller is not neutral")
	}
}

func TestRecommendMatchesPaperExamples(t *testing.T) {
	spec := ST39133LWV()
	// Cello base, 6 disks, background propagation, low load, L=4.14: the
	// paper's model recommends 2x3.
	cfg, err := Recommend(spec, 6, Workload{P: 1, Q: 1, L: 4.14})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ds != 2 || cfg.Dr != 3 {
		t.Fatalf("Cello base D=6: recommended %v, paper says 2x3", cfg)
	}
	// TPC-C, 36 disks, L~1: the paper's best is 9x4.
	cfg, err = Recommend(spec, 36, Workload{P: 1, Q: 1, L: 1.04})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Ds != 9 || cfg.Dr != 4 {
		t.Fatalf("TPC-C D=36: recommended %v, paper says 9x4", cfg)
	}
	// Write-dominated workloads preclude replication.
	cfg, err = Recommend(spec, 8, Workload{P: 0.4, Q: 1, L: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dr != 1 {
		t.Fatalf("p=0.4: recommended %v, want pure striping", cfg)
	}
}

func TestPredictLatencyOrdering(t *testing.T) {
	spec := ST39133LWV()
	w := Workload{P: 1, Q: 1, L: 1}
	// At 6 disks, the recommended SR-Array should predict lower latency
	// than pure striping and pure rotational replication.
	rec, err := Recommend(spec, 6, w)
	if err != nil {
		t.Fatal(err)
	}
	lRec := PredictLatency(spec, rec, w)
	lStripe := PredictLatency(spec, Striping(6), w)
	lTall := PredictLatency(spec, SRArray(1, 6), w)
	if lRec > lStripe || lRec > lTall {
		t.Fatalf("recommended %v (%v) not best: striping %v, 1x6 %v", rec, lRec, lStripe, lTall)
	}
}
