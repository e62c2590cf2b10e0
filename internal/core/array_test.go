package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
)

// smallVolume keeps tests fast: 1 GB of data.
const smallVolume = int64(1 << 21)

func newArray(t testing.TB, cfg layout.Config, policy string, opts func(*Options)) (*des.Sim, *Array) {
	t.Helper()
	sim := des.New()
	o := Options{Config: cfg, Policy: policy, DataSectors: smallVolume, Seed: 42}
	if opts != nil {
		opts(&o)
	}
	a, err := New(sim, o)
	if err != nil {
		t.Fatal(err)
	}
	return sim, a
}

// recoverDelayed replays the metadata table after a simulated crash: every
// pending copy is reissued as a foreground write, exactly what the
// prototype's NVRAM recovery did. It returns the number of copies
// reissued.
func recoverDelayed(a *Array) int {
	total := 0
	for _, d := range a.drives {
		pending := d.delayed
		d.delayed = nil
		for _, c := range pending {
			a.promoteCopy(d, c)
			total++
		}
	}
	return total
}

// lostChunks returns how many distinct chunks are permanently unreadable:
// rows a slot drive marks lost, counting a chunk lost on several mirrors
// once (FaultCounters.LostChunks counts every loss).
func lostChunks(a *Array) int {
	g := a.opts.Config.Positions()
	n := 0
	for slot, d := range a.drives {
		if d.missingRows == 0 {
			continue
		}
		n += len(a.slotChunkList(slot, func(c int64) bool {
			for o := slot - g; o >= 0; o -= g {
				if a.freshAt(a.drives[o], c, 0)&rowLost != 0 {
					return false // counted at the lower slot
				}
			}
			return a.freshAt(d, c, 0)&rowLost != 0
		}))
	}
	return n
}

// access predicts one unprepared request the way a one-off caller does:
// prepare a target, then evaluate it.
func access(est calib.AccessEstimator, st disk.State, req disk.Request, now des.Time) des.Time {
	var tg disk.Target
	est.Prepare(&tg, disk.Extent{Start: req.Start, Count: req.Count})
	return est.AccessPrepared(st, &tg, req.Write, now)
}

// pinHedge pins the hedge delay through Tuning, the way an operator or
// the SLO controller does.
func pinHedge(t testing.TB, a *Array, d des.Time) {
	t.Helper()
	tn := a.Tuning()
	tn.HedgeAfter = d
	if err := a.SetTuning(tn); err != nil {
		t.Fatal(err)
	}
}

// recoveryScanActive reports whether a post-crash divergence scan is still
// running.
func recoveryScanActive(a *Array) bool { return a.recScan != nil && !a.recScan.done }

// runRandomReads issues n uniform random single-chunk reads sequentially
// (closed loop, one outstanding) and returns the mean latency.
func runRandomReads(t testing.TB, sim *des.Sim, a *Array, n, sectors int, seed int64) des.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var total des.Time
	for i := 0; i < n; i++ {
		off := rng.Int63n(a.DataSectors() - int64(sectors))
		done := false
		var lat des.Time
		if err := a.Submit(Read, off, sectors, false, func(r Result) {
			lat = r.Latency()
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("simulation stalled mid-read")
			}
		}
		total += lat
	}
	return total / des.Time(n)
}

func TestSingleReadCompletes(t *testing.T) {
	sim, a := newArray(t, layout.Striping(2), "satf", nil)
	lat := runRandomReads(t, sim, a, 1, 8, 1)
	if lat < 100 || lat > 30000 {
		t.Fatalf("single read latency %v, implausible", lat)
	}
}

func TestMeanReadLatencyPlausible(t *testing.T) {
	sim, a := newArray(t, layout.Striping(1), "fcfs", nil)
	mean := runRandomReads(t, sim, a, 300, 1, 2)
	// One disk, FCFS, random reads: ~ overhead + avgseek/L + R/2. The small
	// volume raises locality; expect 3–10 ms.
	if mean < 3000 || mean > 10000 {
		t.Fatalf("mean random-read latency %v, want 3-10ms", mean)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() des.Time {
		sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", nil)
		return runRandomReads(t, sim, a, 200, 8, 7)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different results: %v vs %v", a, b)
	}
}

// The headline shape: at equal disk budget, a 2x3 SR-Array beats 6-way
// striping on random single-sector reads at low load, because striping
// cannot reduce rotational delay.
func TestSRArrayBeatsStripingAtLowLoad(t *testing.T) {
	simS, aS := newArray(t, layout.Striping(6), "satf", nil)
	stripe := runRandomReads(t, simS, aS, 400, 1, 3)
	simR, aR := newArray(t, layout.SRArray(2, 3), "rsatf", nil)
	sr := runRandomReads(t, simR, aR, 400, 1, 3)
	if sr >= stripe {
		t.Fatalf("SR-Array mean %v not better than striping %v", sr, stripe)
	}
}

// Rotational replication cuts the rotational term: 1x6 should roughly
// halve latency versus 1x2 on a single position at low load.
func TestMoreReplicasLowerLatency(t *testing.T) {
	sim2, a2 := newArray(t, layout.SRArray(1, 2), "rsatf", nil)
	two := runRandomReads(t, sim2, a2, 400, 1, 5)
	sim6, a6 := newArray(t, layout.SRArray(1, 6), "rsatf", nil)
	six := runRandomReads(t, sim6, a6, 400, 1, 5)
	if six >= two {
		t.Fatalf("Dr=6 mean %v not better than Dr=2 %v", six, two)
	}
}

func TestMirrorReadsServiceOnce(t *testing.T) {
	_, a := newArray(t, layout.Mirror(3), "satf", nil)
	count := 0
	rng := rand.New(rand.NewSource(1))
	// Saturate with concurrent reads so duplication paths trigger. Keep
	// each read inside one stripe chunk so it is exactly one piece.
	unit := int64(a.Layout().StripeUnit())
	for i := 0; i < 50; i++ {
		off := rng.Int63n(a.DataSectors()/unit)*unit + rng.Int63n(unit-8)
		if err := a.Submit(Read, off, 8, false, func(Result) { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("array did not drain")
	}
	if count != 50 {
		t.Fatalf("%d completions for 50 reads", count)
	}
	// Each read serviced exactly once: dispatches = completions (reads
	// only, no writes pending).
	if a.Dispatches != 50 {
		t.Fatalf("%d dispatches for 50 reads (duplicates not cancelled?)", a.Dispatches)
	}
}

func TestDelayedWriteLatencyAndPropagation(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", nil)
	var wLat des.Time
	done := false
	off := int64(1000)
	if err := a.Submit(Write, off, 8, false, func(r Result) {
		wLat = r.Latency()
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	for !done {
		sim.Step()
	}
	// Write completed after ONE copy; the other two replicas are pending.
	if a.NVRAMUsed() != 1 {
		t.Fatalf("NVRAM entries = %d, want 1", a.NVRAMUsed())
	}
	if wLat > 20000 {
		t.Fatalf("delayed write latency %v — looks like it waited for all copies", wLat)
	}
	// While propagation is pending, the piece's chunk is stale on some
	// replicas.
	pieces, err := a.Layout().Resolve(off, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := a.drives[pieces[0].Mirrors[0]]
	mask := a.usableMask(d, pieces[0].Chunk, nil)
	if mask == nil {
		t.Fatal("no staleness recorded after first write copy")
	}
	fresh := 0
	for _, ok := range mask {
		if ok {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d fresh replicas right after first copy, want exactly 1", fresh)
	}
	// Idle time propagates the rest.
	if !a.Drain(des.Hour) {
		t.Fatal("propagation did not drain")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM entries = %d after drain, want 0", a.NVRAMUsed())
	}
	if m := a.usableMask(d, pieces[0].Chunk, nil); m != nil {
		t.Fatalf("staleness survived propagation: %v", m)
	}
}

func TestReadAfterWriteUsesFreshReplica(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	off := int64(5000)
	wDone := false
	a.Submit(Write, off, 8, false, func(Result) { wDone = true })
	for !wDone {
		sim.Step()
	}
	// Immediately read the same block: must complete using the one fresh
	// replica even though two replicas are still stale.
	rDone := false
	a.Submit(Read, off, 8, false, func(Result) { rDone = true })
	for !rDone {
		if !sim.Step() {
			t.Fatal("read stalled")
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
}

func TestForegroundWritesWaitForAllCopies(t *testing.T) {
	simD, aD := newArray(t, layout.SRArray(2, 3), "rsatf", nil)
	simF, aF := newArray(t, layout.SRArray(2, 3), "rsatf", func(o *Options) { o.ForegroundWrites = true })
	measure := func(sim *des.Sim, a *Array) des.Time {
		rng := rand.New(rand.NewSource(9))
		var total des.Time
		const n = 150
		for i := 0; i < n; i++ {
			off := rng.Int63n(a.DataSectors() - 8)
			done := false
			var lat des.Time
			a.Submit(Write, off, 8, false, func(r Result) { lat, done = r.Latency(), true })
			for !done {
				sim.Step()
			}
			a.Drain(des.Hour) // keep comparisons clean of queued propagation
			total += lat
		}
		return total / n
	}
	delayed := measure(simD, aD)
	fg := measure(simF, aF)
	if fg <= delayed {
		t.Fatalf("foreground write latency %v not worse than delayed %v", fg, delayed)
	}
	// Foreground Dr=3 costs roughly seek + (R - R/6); delayed costs about
	// seek + R/6. The gap should be several milliseconds.
	if fg-delayed < 2000 {
		t.Fatalf("foreground-delayed gap %v, want > 2ms", fg-delayed)
	}
	// Foreground writes owe no propagation, so with no failure no drive
	// allocates a freshness table.
	for _, d := range aF.drives {
		if d.fresh != nil {
			t.Fatalf("drive %d allocated a freshness table under foreground writes", d.id)
		}
	}
}

func TestNVRAMCapForcesWrites(t *testing.T) {
	_, a := newArray(t, layout.SRArray(1, 2), "rsatf", func(o *Options) { o.NVRAMEntries = 16 })
	rng := rand.New(rand.NewSource(3))
	// Writes arrive back-to-back with no idle time to propagate.
	pending := 0
	for i := 0; i < 200; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		pending++
		a.Submit(Write, off, 8, false, func(Result) { pending-- })
	}
	if !a.Drain(des.Hour) {
		t.Fatal("did not drain")
	}
	if pending != 0 {
		t.Fatalf("%d writes unaccounted", pending)
	}
	if a.ForcedDelayed == 0 {
		t.Fatal("NVRAM cap of 16 never forced a delayed write during a 200-write burst")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after drain", a.NVRAMUsed())
	}
}

func TestWriteCoalescing(t *testing.T) {
	_, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	off := int64(4096)
	// Two back-to-back writes of the same block: the second supersedes the
	// first's pending propagation.
	done := 0
	a.Submit(Write, off, 8, false, func(Result) { done++ })
	a.Submit(Write, off, 8, false, func(Result) { done++ })
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if done != 2 {
		t.Fatalf("%d completions", done)
	}
	// 2 user writes on Dr=3: without coalescing 2 first-copies + 4
	// propagations = 6 media writes; coalescing should have cancelled at
	// least one pending copy. Dispatches counts foreground work only, so
	// count total commands on the buses instead.
	var cmds int64
	for _, d := range a.drives {
		cmds += d.bus.Commands
	}
	if cmds >= 6 {
		t.Fatalf("%d media writes for two overlapping user writes, want < 6 (coalescing)", cmds)
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d", a.NVRAMUsed())
	}
}

func TestRecoverDelayed(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	rng := rand.New(rand.NewSource(8))
	writes := 0
	for i := 0; i < 20; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		writes++
		a.Submit(Write, off, 8, false, func(Result) { writes-- })
	}
	// Let first copies land but interrupt before propagation finishes.
	for writes > 0 {
		sim.Step()
	}
	if a.NVRAMUsed() == 0 {
		t.Skip("all propagation finished before the crash point; nothing to recover")
	}
	n := recoverDelayed(a)
	if n == 0 {
		t.Fatal("recovery reissued nothing despite pending entries")
	}
	if !a.Drain(des.Hour) {
		t.Fatal("recovery did not drain")
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after recovery", a.NVRAMUsed())
	}
}

func TestSATFBeatsFCFSUnderLoad(t *testing.T) {
	measure := func(policy string) des.Time {
		sim, a := newArray(t, layout.Striping(1), policy, nil)
		rng := rand.New(rand.NewSource(11))
		const n = 400
		var total des.Time
		finished := 0
		// Keep 16 outstanding.
		var issue func()
		issued := 0
		issue = func() {
			if issued >= n {
				return
			}
			issued++
			off := rng.Int63n(a.DataSectors() - 1)
			submit := sim.Now()
			a.Submit(Read, off, 1, false, func(r Result) {
				total += r.Done - submit
				finished++
				issue()
			})
		}
		for i := 0; i < 16; i++ {
			issue()
		}
		for finished < n {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
		return total / des.Time(n)
	}
	fcfs := measure("fcfs")
	satf := measure("satf")
	look := measure("look")
	if satf >= fcfs {
		t.Fatalf("SATF %v not better than FCFS %v at queue 16", satf, fcfs)
	}
	if look >= fcfs {
		t.Fatalf("LOOK %v not better than FCFS %v at queue 16", look, fcfs)
	}
	if satf >= look {
		t.Fatalf("SATF %v not better than LOOK %v at queue 16", satf, look)
	}
}

func TestPrototypeModeEndToEnd(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", func(o *Options) {
		o.Prototype = true
	})
	if a.RefReads == 0 {
		t.Fatal("no calibration reads at construction")
	}
	mean := runRandomReads(t, sim, a, 300, 1, 13)
	if mean < 1000 || mean > 15000 {
		t.Fatalf("prototype mean latency %v, implausible", mean)
	}
	acc := a.Accuracy()
	if acc.N() < 250 {
		t.Fatalf("only %d accuracy records", acc.N())
	}
	missRate, _, _, meanAccess, _ := acc.Report(a.RotationPeriod())
	if missRate > 0.05 {
		t.Fatalf("rotation miss rate %.3f, want < 0.05", missRate)
	}
	if meanAccess <= 0 {
		t.Fatal("non-positive mean access")
	}
}

// Prototype-mode drives spin at slightly different speeds, and a drive's
// track and cylinder skews are sized from its own rotation period, so the
// mirrors of a piece do not share one geometry: the same extent starts at a
// different angle on each. Read routing must therefore score every mirror
// against that mirror's own geometry; a target prepared on one drive and
// evaluated on its mirror sends reads to the wrong copy.
func TestBestAccessScoresEachMirrorOnItsOwnGeometry(t *testing.T) {
	differ := 0
	for seed := int64(1); seed <= 6; seed++ {
		_, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rsatf", func(o *Options) {
			o.Prototype = true
			o.Seed = seed
		})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			pieces, err := a.lay.Resolve(rng.Int63n(a.DataSectors()-8), 8)
			if err != nil {
				t.Fatal(err)
			}
			p := &pieces[0]
			var angles []float64
			for _, id := range p.Mirrors {
				d := a.drives[id]
				want := des.Time(math.Inf(1))
				for _, rep := range p.Replicas {
					e := rep[0]
					if w := access(d.est, d.bus.ArmState(), disk.Request{Start: e.Start, Count: e.Count}, a.sim.Now()); w < want {
						want = w
					}
				}
				if got := a.bestAccess(d, p, false); got != want {
					t.Fatalf("seed %d drive %d piece at %d: bestAccess = %v, from-scratch estimate %v", seed, id, p.Off, got, want)
				}
				angles = append(angles, d.dsk.Geom.SectorAngle(p.Replicas[0][0].Start))
			}
			if angles[0] != angles[1] {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("every mirror pair shared one geometry: the test compared nothing")
	}
}

// Prototype and simulator modes should agree closely on throughput — the
// validation claim of paper Figure 5 (within a few percent).
func TestPrototypeMatchesSimulator(t *testing.T) {
	measure := func(proto bool) float64 {
		sim, a := newArray(t, layout.SRArray(2, 3), "rsatf", func(o *Options) {
			o.Prototype = proto
		})
		rng := rand.New(rand.NewSource(17))
		const n = 1500
		finished, issued := 0, 0
		start := sim.Now()
		var issue func()
		issue = func() {
			if issued >= n {
				return
			}
			issued++
			off := rng.Int63n(a.DataSectors() - 1)
			a.Submit(Read, off, 1, false, func(Result) {
				finished++
				issue()
			})
		}
		for i := 0; i < 8; i++ {
			issue()
		}
		for finished < n {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
		return float64(n) / float64(sim.Now()-start) * 1e6 // IOPS
	}
	simIOPS := measure(false)
	protoIOPS := measure(true)
	gap := math.Abs(simIOPS-protoIOPS) / simIOPS
	if gap > 0.08 {
		t.Fatalf("prototype %0.f IOPS vs simulator %.0f IOPS: %.1f%% gap, want within 8%%", protoIOPS, simIOPS, gap*100)
	}
}

func TestOptionsValidation(t *testing.T) {
	sim := des.New()
	if _, err := New(sim, Options{Config: layout.Config{Ds: 1, Dr: 5, Dm: 1}}); err == nil {
		t.Fatal("invalid Dr accepted")
	}
	if _, err := New(sim, Options{Config: layout.Striping(2), Policy: "elevator-of-doom"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSubmitValidatesRange(t *testing.T) {
	_, a := newArray(t, layout.Striping(2), "satf", nil)
	if err := a.Submit(Read, -5, 8, false, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := a.Submit(Read, a.DataSectors(), 1, false, nil); err == nil {
		t.Fatal("offset past end accepted")
	}
}

func TestMultiChunkRequestSpansDisks(t *testing.T) {
	_, a := newArray(t, layout.Striping(4), "satf", nil)
	unit := int64(a.Layout().StripeUnit())
	// A request spanning three chunks touches multiple disks and completes
	// once.
	count := 0
	off := unit - 16
	a.Submit(Read, off, int(unit*2), false, func(Result) { count++ })
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if count != 1 {
		t.Fatalf("%d completions", count)
	}
	if a.Dispatches < 3 {
		t.Fatalf("%d dispatches, expected at least 3 pieces", a.Dispatches)
	}
}

// Two writes to the same chunk in quick succession, while the first is
// still propagating, must keep at least one fresh replica at all times:
// the second first-copy is steered (live mask) onto the replica the first
// write freshened, and reads in between always have somewhere to go.
func TestOverlappingWritesKeepFreshReplica(t *testing.T) {
	_, a := newArray(t, layout.SRArray(1, 3), "rsatf", nil)
	off := int64(2048)
	done := 0
	for i := 0; i < 6; i++ {
		if err := a.Submit(Write, off, 8, false, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
		// Interleave reads of the same block.
		if err := a.Submit(Read, off, 8, false, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if done != 12 {
		t.Fatalf("%d of 12 requests completed", done)
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after drain", a.NVRAMUsed())
	}
}

// The same stress with mirrors: rapid overlapping writes and reads across
// a 2x2x2 SR-Mirror.
func TestOverlappingWritesMirrored(t *testing.T) {
	_, a := newArray(t, layout.Config{Ds: 2, Dr: 2, Dm: 2}, "rsatf", nil)
	rng := rand.New(rand.NewSource(5))
	done := 0
	want := 0
	for i := 0; i < 150; i++ {
		off := rng.Int63n(16) * 128 // hammer 16 chunks
		op := Write
		if i%3 == 0 {
			op = Read
		}
		want++
		if err := a.Submit(op, off, 8, false, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("drain failed")
	}
	if done != want {
		t.Fatalf("%d of %d requests completed", done, want)
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM = %d after drain", a.NVRAMUsed())
	}
}

func TestTCQValidation(t *testing.T) {
	sim := des.New()
	if _, err := New(sim, Options{Config: layout.Striping(2), Policy: "rsatf", TCQDepth: 8}); err == nil {
		t.Fatal("TCQ with a reordering host policy accepted")
	}
}

func TestTCQCompletesAllRequests(t *testing.T) {
	_, a := newArray(t, layout.SRArray(2, 3), "rfcfs", func(o *Options) { o.TCQDepth = 4 })
	rng := rand.New(rand.NewSource(6))
	done := 0
	for i := 0; i < 80; i++ {
		off := rng.Int63n(a.DataSectors() - 8)
		op := Read
		if i%4 == 0 {
			op = Write
		}
		if err := a.Submit(op, off, 8, false, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("TCQ array did not drain")
	}
	if done != 80 {
		t.Fatalf("%d of 80 completed under TCQ", done)
	}
}

// With a deep host queue, the drive's internal SATF beats strict FCFS
// forwarding to an unqueued drive.
func TestTCQBeatsUnqueuedFCFS(t *testing.T) {
	measure := func(depth int) des.Time {
		sim, a := newArray(t, layout.Striping(1), "fcfs", func(o *Options) { o.TCQDepth = depth })
		rng := rand.New(rand.NewSource(12))
		var total des.Time
		finished, issued := 0, 0
		const n = 400
		var issue func()
		issue = func() {
			if issued >= n {
				return
			}
			issued++
			a.Submit(Read, rng.Int63n(a.DataSectors()-1), 1, false, func(r Result) {
				total += r.Latency()
				finished++
				issue()
			})
		}
		for i := 0; i < 16; i++ {
			issue()
		}
		for finished < n {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
		return total / n
	}
	plain := measure(0)
	tcq := measure(8)
	if tcq >= plain {
		t.Fatalf("TCQ mean %v not below unqueued FCFS %v", tcq, plain)
	}
}

// A large sequential read coalesces each position's chunks into one long
// physically contiguous command per replica.
func TestMergeReadPieces(t *testing.T) {
	_, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 1}, "rsatf", func(o *Options) {
		o.DataSectors = 1 << 22
	})
	pieces, err := a.Layout().Resolve(0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 16 {
		t.Fatalf("raw pieces = %d, want 16 chunks", len(pieces))
	}
	merged := a.mergeReadPieces(a.getUR(), pieces)
	if len(merged) != 2 {
		t.Fatalf("merged pieces = %d, want one per position", len(merged))
	}
	for _, p := range merged {
		if p.Count != 1024 {
			t.Fatalf("merged piece count = %d, want 1024", p.Count)
		}
		// The primary replica fuses into a single extent; the angle-shifted
		// replica cannot fuse across track boundaries.
		if len(p.Replicas[0]) != 1 {
			t.Fatalf("primary replica has %d extents, want 1", len(p.Replicas[0]))
		}
		if len(p.Replicas[1]) <= 1 {
			t.Fatalf("shifted replica unexpectedly fused into %d extent(s)", len(p.Replicas[1]))
		}
	}
}

// Head-tracking reference reads keep flowing under sustained load: the
// priority flag prevents the scan from starving them.
func TestRefReadsSurviveLoad(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(1, 2), "rsatf", func(o *Options) {
		o.Prototype = true
		o.recalibrateEvery = 2 * des.Second
	})
	boot := a.RefReads
	// Closed loop for 30 simulated seconds.
	rng := rand.New(rand.NewSource(3))
	stop := sim.Now() + 30*des.Second
	var issue func()
	issue = func() {
		if sim.Now() >= stop {
			return
		}
		a.Submit(Read, rng.Int63n(a.DataSectors()-1), 1, false, func(Result) { issue() })
	}
	for i := 0; i < 4; i++ {
		issue()
	}
	sim.RunUntil(stop)
	a.Drain(des.Hour)
	got := a.RefReads - boot
	if got < 10 {
		t.Fatalf("only %d reference reads in 30s of load at a 2s cadence", got)
	}
}

func TestTCQWithMirrors(t *testing.T) {
	_, a := newArray(t, layout.Config{Ds: 1, Dr: 2, Dm: 2}, "rfcfs", func(o *Options) {
		o.TCQDepth = 4
	})
	rng := rand.New(rand.NewSource(21))
	done := 0
	for i := 0; i < 60; i++ {
		op := Read
		if i%3 == 0 {
			op = Write
		}
		if err := a.Submit(op, rng.Int63n(a.DataSectors()-8), 8, false, func(Result) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Drain(des.Hour) {
		t.Fatal("TCQ mirror array did not drain")
	}
	if done != 60 {
		t.Fatalf("%d of 60 completed", done)
	}
}
