package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
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
	for _, leg := range []struct {
		name string
		run  func(*testing.T) string
		want string // fnv-64a of the digest; empty pins nothing
	}{
		{"faults", poolStressRun, ""},
		{"prototype-hedge", hedgeRefStressRun, "3a04bf7cd24f6ecc"},
	} {
		t.Run(leg.name, func(t *testing.T) {
			clean := leg.run(t)
			defer SetPoolPoisoning(SetPoolPoisoning(true))
			poisoned := leg.run(t)
			if clean != poisoned {
				t.Fatalf("pool poisoning changed the simulation:\nclean:    %s\npoisoned: %s", clean, poisoned)
			}
			if leg.want == "" {
				return
			}
			h := fnv.New64a()
			h.Write([]byte(clean))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != leg.want {
				t.Fatalf("digest hash %s, want %s; digest:\n%s", got, leg.want, clean)
			}
		})
	}
}

// hedgeRefStressRun is poolStressRun in prototype mode: head tracking with
// a short reference-read interval, hedged reads against a fail-slow drive,
// a spare, and the crash model. The fail-stop lands on a drive that holds
// a queued hedge duplicate while a reference read is outstanding, and the
// crash at the next instant where both are so, so the FailDrive and crash
// sweeps each meet both kinds of request. (A due reference read is picked
// in the kick that queues it, ahead of everything else, so outstanding
// means on the bus.) Clients that submit into the outage retry after a
// backoff.
func hedgeRefStressRun(t *testing.T) string {
	t.Helper()
	sim, a := newArray(t, layout.RAID10(4), "rsatf", func(o *Options) {
		o.DataSectors = 1 << 15
		o.Prototype = true
		o.recalibrateEvery = 20 * des.Millisecond
		o.Hedge = true
		o.Faults = slowDrive0()
		o.Spares = 1
		o.Crash = CrashModel{Enabled: true}
	})
	pinHedge(t, a, 5*des.Millisecond)
	boot := a.RefReads
	rng := rand.New(rand.NewSource(3))
	const total = 2000
	issued, finished, failed, refused := 0, 0, 0, 0
	var latSum des.Time
	var issue func()
	var submit func(op Op, off int64)
	onDone := func(r Result) {
		finished++
		if r.Failed {
			failed++
		}
		latSum += r.Latency()
		issue()
	}
	submit = func(op Op, off int64) {
		if err := a.Submit(op, off, 8, false, onDone); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("submit: %v", err)
			}
			refused++
			sim.At(sim.Now()+des.Millisecond, func() { submit(op, off) })
		}
	}
	n := a.DataSectors() - 8
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op := Read
		if rng.Float64() < 0.2 {
			op = Write
		}
		submit(op, rng.Int63n(n))
	}
	// hedgeQueued returns a drive with a hedge duplicate in its queue, or
	// nil; refOut reports an outstanding reference read anywhere.
	hedgeQueued := func() *drive {
		for _, d := range a.drives {
			for _, req := range d.queue {
				if req.Hedged {
					return d
				}
			}
		}
		return nil
	}
	refOut := func() bool {
		for _, d := range a.drives {
			if d.refInFlight {
				return true
			}
		}
		return false
	}
	for i := 0; i < 12; i++ {
		issue()
	}
	landed := 0
	for finished < total {
		if !sim.Step() {
			t.Fatalf("stalled at %d/%d", finished, total)
		}
		if landed == 2 || a.crashed || issued < total/4*(landed+1) || !refOut() {
			continue
		}
		d := hedgeQueued()
		if d == nil {
			continue
		}
		landed++
		if landed == 1 {
			if err := a.FailDrive(d.id); err != nil {
				t.Fatalf("FailDrive: %v", err)
			}
			continue
		}
		if err := a.Crash(); err != nil {
			t.Fatal(err)
		}
		sim.At(sim.Now()+20*des.Millisecond, func() {
			if err := a.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		})
	}
	if !a.Drain(des.Hour) {
		t.Fatal("array never drained")
	}
	h := a.Hedges()
	if landed != 2 || h.Issued == 0 || a.RefReads == boot {
		t.Fatalf("landed %d of 2 events, %d hedges, %d reference reads: the run missed a path it exists to cover", landed, h.Issued, a.RefReads-boot)
	}
	return fmt.Sprintf("finished=%d failed=%d refused=%d lat=%v now=%v refs=%d dispatches=%d faults=%+v hedges=%+v recovery=%+v rebuilt=%v",
		finished, failed, refused, latSum, sim.Now(), a.RefReads, a.Dispatches, a.Faults(), h, a.Recovery(), a.RebuildProgress())
}

// oracleStressRun is poolStressRun with the integrity oracle on, as it is on
// every crash-enabled brick: an array of cfg's shape with one spare,
// Crash.Enabled and VerifyReads, latent, corrupt and torn draws on top of an
// injected latent-error population, a scrub pass, a drive fail-stop with
// rebuild onto the spare, and one Crash/Recover cycle pulled while a write
// copy of the array's mode sits queued (in foreground mode that fails a write
// through crashFG). Clients that submit into the outage retry after a
// backoff. The digest covers everything observable, the oracle's own
// CorruptCopies and DivergentCopies included. A non-nil reg attaches the
// observability layer, whose corruption and lost-chunk tallies must then
// match the array's counters. afterStep, when non-nil, runs after every
// simulation event. The clients draw from a stream seeded by seed and issue
// total requests; the fail-stop comes after a quarter of them and the crash
// after half. The second result samples DivergentCopies/CorruptCopies just
// after the fail-stop, the crash and the recovery, while the oracle still
// holds wrong copies (after the final drain both read 0). A run that stalls
// with requests outstanding, or finishes them all but never drains, returns
// that outcome as its digest (prefixed "stalled" or "undrained") and an
// empty oracle sample.
func oracleStressRun(t *testing.T, cfg layout.Config, durability NVRAMDurability, foreground bool, seed int64, total int, reg *obs.Registry, afterStep func(*Array)) (digest, oracle string) {
	t.Helper()
	sim, a := newArray(t, cfg, "rsatf", func(o *Options) {
		o.DataSectors = 1 << 16
		o.Crash = CrashModel{Enabled: true, Durability: durability}
		o.Obs = reg
		o.Spares = 1
		o.VerifyReads = true
		o.ForegroundWrites = foreground
		o.NVRAMEntries = 32
		o.Faults = disk.FaultModel{TransientRate: 0.02, LatentRate: 0.002, CorruptRate: 0.002, TornRate: 0.002}
	})
	if n := a.InjectCorruption(24, 5); n != 24 {
		t.Fatalf("injected %d latent errors, want 24", n)
	}
	if err := a.StartScrub(ScrubOptions{MBps: 64}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	const clients = 8
	issued, finished, failed, refused := 0, 0, 0, 0
	var latSum des.Time
	wantCrash := false
	sample := func(at string) {
		oracle += fmt.Sprintf("%s:%d/%d ", at, a.DivergentCopies(), a.CorruptCopies())
	}
	var issue func()
	var submit func(op Op, off int64, count int)
	onDone := func(r Result) {
		finished++
		if r.Failed {
			failed++
		}
		latSum += r.Latency()
		issue()
	}
	submit = func(op Op, off int64, count int) {
		if err := a.Submit(op, off, count, false, onDone); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("submit: %v", err)
			}
			refused++
			sim.At(sim.Now()+des.Millisecond, func() { submit(op, off, count) })
		}
	}
	n := a.DataSectors() - 512
	issue = func() {
		if issued >= total {
			return
		}
		issued++
		op, count := Read, 8+rng.Intn(56)
		if rng.Float64() < 0.4 {
			op = Write
		}
		if rng.Float64() < 0.1 {
			count = 200 + rng.Intn(300) // spans chunks
		}
		submit(op, rng.Int63n(n), count)
		switch issued {
		case total / 4:
			if err := a.FailDrive(1); err != nil {
				t.Fatalf("FailDrive: %v", err)
			}
			sample("fail")
		case total / 2:
			wantCrash = true
		}
	}
	kind := tagFirstWrite
	if foreground {
		kind = tagFGWrite
	}
	writeQueued := func() bool {
		for _, d := range a.drives {
			for _, req := range d.queue {
				if req.Tag.(*reqTag).kind == kind {
					return true
				}
			}
		}
		return false
	}
	propagationQueued := func() bool {
		for _, d := range a.drives {
			for _, c := range d.delayed {
				if !c.rebuild && !c.repair {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < clients; i++ {
		issue()
	}
	for finished < total {
		if !sim.Step() {
			return fmt.Sprintf("stalled at %d/%d", finished, total), ""
		}
		if afterStep != nil {
			afterStep(a)
		}
		// In delayed mode the crash also waits for a queued propagation
		// copy, so the recovery has NVRAM copies to adopt or lose.
		if wantCrash && writeQueued() && (foreground || propagationQueued()) {
			wantCrash = false
			if err := a.Crash(); err != nil {
				t.Fatal(err)
			}
			sample("crash")
			sim.At(sim.Now()+20*des.Millisecond, func() {
				if err := a.Recover(); err != nil {
					t.Fatalf("Recover: %v", err)
				}
				sample("recover")
			})
		}
	}
	if !a.Drain(des.Hour) {
		return fmt.Sprintf("undrained at %v with %d/%d finished", sim.Now(), finished, total), ""
	}
	f, sc, rec := a.Faults(), a.ScrubCounters(), a.Recovery()
	owed := rec.LostDelayed + rec.Adopted // propagations the crash caught
	if rec.Crashes != 1 || rec.Recoveries != 1 || f.VerifyDetected == 0 || sc.Passes == 0 || f.RebuildsDone == 0 || (owed == 0) != foreground {
		t.Fatalf("crashes=%d recoveries=%d detected=%d scrub passes=%d rebuilds=%d owed=%d: the run missed a path it exists to cover",
			rec.Crashes, rec.Recoveries, f.VerifyDetected, sc.Passes, f.RebuildsDone, owed)
	}
	if r := a.obsRec; r != nil {
		var latent, corrupt, torn int64
		for i := 0; i < r.Drives(); i++ {
			d := r.Drive(i)
			latent, corrupt, torn = latent+d.LatentErrors, corrupt+d.CorruptReads, torn+d.TornWrites
		}
		// The 24 injected copies count as latent errors at the array, but
		// no drive drew them.
		if latent+24 != f.LatentErrors || corrupt != f.CorruptReads || torn != f.TornWrites || r.ChunksLost != f.LostChunks {
			t.Fatalf("obs latent/corrupt/torn/lost %d/%d/%d/%d != array %d/%d/%d/%d", latent, corrupt, torn, r.ChunksLost,
				f.LatentErrors, f.CorruptReads, f.TornWrites, f.LostChunks)
		}
		// Two rotational replicas on the surviving mirror leave the rebuild
		// a clean source for every chunk in this run, so only
		// single-replica shapes must have lost chunks to attribute.
		if f.LatentErrors == 0 || (f.LostChunks == 0 && cfg.Dr == 1) {
			t.Fatalf("no latent draws or lost chunks to attribute: %+v", f)
		}
	}
	return fmt.Sprintf("finished=%d failed=%d refused=%d lat=%v now=%v faults=%+v scrub=%+v recovery=%+v rebuilt=%v divergent=%d corrupt=%d",
		finished, failed, refused, latSum, sim.Now(), f, sc, rec, a.RebuildProgress(), a.DivergentCopies(), a.CorruptCopies()), oracle
}

// TestPoolPoisoningOracleOn is TestPoolPoisoningAliasRegression with the
// integrity oracle on, in both write modes and both NVRAM durability modes:
// verify-on-read repairs, scrub and recovery-scan repairs, the rebuild and
// the crash sweeps must hold no recycled request. Each leg's digest is also
// pinned, so a change that moves the simulation shows up here too, and a
// third run with the observability layer on must give the same digest.
// RAID-10 keeps one copy per (drive, chunk); the 2x2x2 legs give every
// chunk two rotational replicas on each of two mirrors, so a replica or
// chunk-to-drive indexing mistake in the oracle moves their digests.
func TestPoolPoisoningOracleOn(t *testing.T) {
	raid10, sr2x2x2 := layout.RAID10(4), layout.Config{Ds: 2, Dr: 2, Dm: 2}
	for _, leg := range []struct {
		cfg        layout.Config
		durability NVRAMDurability
		foreground bool
		want       string // fnv-64a of the digest
		oracle     string // DivergentCopies/CorruptCopies mid-run
	}{
		// Foreground writes keep no NVRAM table, so durability cannot
		// matter to them.
		{raid10, Volatile, true, "f8788831f2c7c2a2", "fail:18/18 crash:15/15 recover:15/15 "},
		{raid10, BatteryBacked, true, "f8788831f2c7c2a2", "fail:18/18 crash:15/15 recover:15/15 "},
		{raid10, Volatile, false, "9d51f8d156867987", "fail:31/12 crash:27/15 recover:27/15 "},
		{raid10, BatteryBacked, false, "60e78499eb52a5a1", "fail:31/12 crash:27/15 recover:27/15 "},
		{sr2x2x2, Volatile, true, "a51c2c646142b24c", "fail:17/17 crash:23/23 recover:23/23 "},
		{sr2x2x2, Volatile, false, "e10b02353ca729ca", "fail:106/15 crash:68/20 recover:68/20 "},
		{sr2x2x2, BatteryBacked, false, "188ea8a90fcd5e80", "fail:106/15 crash:68/20 recover:68/20 "},
	} {
		name := fmt.Sprintf("%v/foreground=%v", leg.durability, leg.foreground)
		if leg.cfg != raid10 {
			name = fmt.Sprintf("%v/%s", leg.cfg, name)
		}
		t.Run(name, func(t *testing.T) {
			clean, oracle := oracleStressRun(t, leg.cfg, leg.durability, leg.foreground, 14, 4000, nil, nil)
			if observed, _ := oracleStressRun(t, leg.cfg, leg.durability, leg.foreground, 14, 4000, &obs.Registry{}, nil); observed != clean {
				t.Fatalf("observability changed the simulation:\noff: %s\non:  %s", clean, observed)
			}
			defer SetPoolPoisoning(SetPoolPoisoning(true))
			poisoned, _ := oracleStressRun(t, leg.cfg, leg.durability, leg.foreground, 14, 4000, nil, nil)
			if clean != poisoned {
				t.Fatalf("pool poisoning changed the simulation:\nclean:    %s\npoisoned: %s", clean, poisoned)
			}
			h := fnv.New64a()
			h.Write([]byte(clean))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != leg.want {
				t.Fatalf("digest hash %s, want %s; digest:\n%s", got, leg.want, clean)
			}
			if oracle != leg.oracle {
				t.Fatalf("oracle samples %q, want %q", oracle, leg.oracle)
			}
		})
	}
}

// TestOracleStressSweep characterizes oracleStressRun over a seed sweep
// on RAID-10(4): seeds 1-40 at 1 200 requests in each {durability} x
// {propagation} mode. One fnv-64a over the 160 outcome lines pins every
// run, and the runs that stall with client requests outstanding or never
// drain are listed by name; none may. Thirteen of them once did, all from
// one defect: a verify check condemned the only copy a rebuild's queued
// source read could use, and the rebuild held the chunk's write gate for
// good (TestCondemnedRebuildSourceLosesChunk). A drained run that skipped
// a path the stress run exists to cover still fails the test.
func TestOracleStressSweep(t *testing.T) {
	const (
		seeds = 40
		total = 1200
		want  = "e23a1274b5414a75"
	)
	var wantFailing []string
	var lines, failing []string
	for _, durability := range []NVRAMDurability{Volatile, BatteryBacked} {
		for _, foreground := range []bool{false, true} {
			for seed := int64(1); seed <= seeds; seed++ {
				name := fmt.Sprintf("%v/foreground=%v/seed=%d", durability, foreground, seed)
				digest, _ := oracleStressRun(t, layout.RAID10(4), durability, foreground, seed, total, nil, nil)
				if !strings.HasPrefix(digest, "finished=") {
					failing = append(failing, name)
				}
				lines = append(lines, name+": "+digest)
			}
		}
	}
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	if !slices.Equal(failing, wantFailing) {
		t.Errorf("failing runs:\n%s\nwant:\n%s", strings.Join(failing, "\n"), strings.Join(wantFailing, "\n"))
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("sweep hash %s, want %s; outcomes:\n%s", got, want, strings.Join(lines, "\n"))
	}
}

// TestOracleTableInvariants runs a 2x2x2 oracle stress leg and checks the
// drives' two dense tables, the oracle's and the freshness one, after every
// event: a slot drive's tables were allocated for the slot's position and
// sized to ceil(numChunks / Positions()) rows of Dr, their rows past the
// slot's last chunk (chunks the volume does not have) stay zero, and
// missingRows counts the rows marked missing. An idle spare holds neither
// table; a spare swapped into a slot arrives with no oracle state and every
// row of the slot marked missing. After the drain no propagation is owed
// and every row still missing is lost. A lookup of a chunk of another
// position panics.
func TestOracleTableInvariants(t *testing.T) {
	cfg := layout.Config{Ds: 2, Dr: 2, Dm: 2}
	g := int64(cfg.Positions())
	var prev []*drive
	swaps := 0
	check := func(a *Array) {
		for k, d := range a.spares {
			if d.integ != nil || d.fresh != nil {
				t.Fatalf("at %v idle spare %d holds table state", a.sim.Now(), k)
			}
		}
		for slot, d := range a.drives {
			if prev != nil && prev[slot] != d {
				swaps++
				if d.integ != nil {
					t.Fatalf("at %v the spare swapped into slot %d arrived with oracle state", a.sim.Now(), slot)
				}
				if n := a.slotChunks(slot); int64(d.missingRows) != n {
					t.Fatalf("at %v the spare swapped into slot %d has %d of its %d rows missing", a.sim.Now(), slot, d.missingRows, n)
				}
			}
			if d.integ == nil && d.fresh == nil {
				continue
			}
			if d.pos != int64(slot)%g {
				t.Fatalf("at %v slot %d's tables are for position %d, want %d", a.sim.Now(), slot, d.pos, int64(slot)%g)
			}
			if err := tableLayoutErr(a, slot, d.integ); err != "" {
				t.Fatalf("at %v slot %d's oracle table %s", a.sim.Now(), slot, err)
			}
			if err := tableLayoutErr(a, slot, d.fresh); err != "" {
				t.Fatalf("at %v slot %d's freshness table %s", a.sim.Now(), slot, err)
			}
			missing := 0
			for c := int64(slot) % g; c < a.numChunks(); c += g {
				if a.freshAt(d, c, 0)&rowMissing != 0 {
					missing++
				}
			}
			if missing != d.missingRows {
				t.Fatalf("at %v slot %d has %d rows marked missing, missingRows %d", a.sim.Now(), slot, missing, d.missingRows)
			}
		}
		prev = append(prev[:0], a.drives...)
	}
	var last *Array
	digest, _ := oracleStressRun(t, cfg, Volatile, false, 14, 4000, nil, func(a *Array) { check(a); last = a })
	if !strings.HasPrefix(digest, "finished=") {
		t.Fatalf("the stress run did not complete: %s", digest)
	}
	if swaps == 0 {
		t.Fatal("no spare was swapped in: the spare check never ran")
	}
	for slot, d := range last.drives {
		for c := int64(slot) % g; c < last.numChunks(); c += g {
			for j := 0; j < cfg.Dr; j++ {
				if n := last.freshAt(d, c, j).pending(); n != 0 {
					t.Fatalf("after the drain slot %d chunk %d replica %d still owes %d propagations", slot, c, j, n)
				}
			}
			if f := last.freshAt(d, c, 0); f&rowMissing != 0 && f&rowLost == 0 {
				t.Fatalf("after the drain slot %d chunk %d is missing but not lost", slot, c)
			}
		}
	}

	// A chunk of another position would alias a row of the table; the
	// lookup refuses it.
	_, a := newArray(t, cfg, "rsatf", func(o *Options) { o.VerifyReads = true })
	a.copyOf(a.drives[0], 0, 0).setVer(1)
	defer func() {
		if recover() == nil {
			t.Fatal("chunk 1 looked up on slot 0's table without a panic")
		}
	}()
	a.copyAt(a.drives[0], 1, 0)
}

// tableLayoutErr describes how one of a slot drive's per-chunk tables
// breaks its layout (nil tables pass): ceil(numChunks / Positions()) rows
// of Dr entries, zero past the slot's last chunk.
func tableLayoutErr[E comparable](a *Array, slot int, tab []E) string {
	if tab == nil {
		return ""
	}
	g, dr := int64(a.opts.Config.Positions()), int64(a.opts.Config.Dr)
	if want := (a.numChunks() + g - 1) / g * dr; int64(len(tab)) != want {
		return fmt.Sprintf("has %d entries, want %d", len(tab), want)
	}
	var zero E
	for i := a.slotChunks(slot) * dr; i < int64(len(tab)); i++ {
		if tab[i] != zero {
			return fmt.Sprintf("holds %v for chunk %d past the volume's end", tab[i], (i/dr)*g+int64(slot)%g)
		}
	}
	return ""
}

// delayedStressRun is the stress loop for recycled delayed-mode write
// requests: writes of 200-800 sectors that span chunks (so one request's
// pieces complete at different times), a third of them rewriting a recent
// range (real coalescing), each resubmitted from inside the completion
// callback to a different chunk — the resubmission pops the request that
// just completed and resolves over its arena while the first-copy
// completion is still registering the propagation. A 16-entry table keeps
// forceDelayed promoting, transient faults drive the first-copy
// fail-and-resubmit and the propagation double-fault requeue, and a drive
// fail-stops mid-run (onto a spare when mirrored). afterStep, when non-nil,
// runs after every simulation event. The digest covers everything
// observable.
func delayedStressRun(t *testing.T, cfg layout.Config, afterStep func(*Array)) string {
	t.Helper()
	sim, a := newArray(t, cfg, "rsatf", func(o *Options) {
		o.NVRAMEntries = 16
		o.Faults = disk.FaultModel{TransientRate: 0.05, TimeoutRate: 0.01}
		if cfg.Dm > 1 {
			o.Spares = 1
		}
	})
	rng := rand.New(rand.NewSource(11))
	unit := int64(a.Layout().StripeUnit())
	chunks := a.DataSectors()/unit - 8 // room for the longest write
	const total, clients = 1500, 6
	type span struct {
		off   int64
		count int
	}
	var recent [8]span
	issued, finished, failed := 0, 0, 0
	var latSum des.Time
	var issue func(avoid int64)
	onDone := func(r Result) {
		finished++
		if r.Failed {
			failed++
		}
		latSum += r.Latency()
		issue(r.Off / unit)
	}
	issue = func(avoid int64) {
		if issued >= total {
			return
		}
		issued++
		op := Write
		w := span{rng.Int63n(chunks) * unit, 200 + rng.Intn(601)}
		switch x := rng.Float64(); {
		case x < 0.25:
			op, w.count = Read, 8+rng.Intn(56)
		case x < 0.5 && issued > len(recent):
			w = recent[rng.Intn(len(recent))]
		}
		if w.off/unit == avoid {
			w.off = (avoid + 1 + rng.Int63n(chunks-1)) % chunks * unit
		}
		if op == Write {
			recent[issued%len(recent)] = w
		}
		if err := a.Submit(op, w.off, w.count, false, onDone); err != nil {
			t.Fatalf("submit: %v", err)
		}
		if issued == total/2 {
			if err := a.FailDrive(1); err != nil {
				t.Fatalf("FailDrive: %v", err)
			}
		}
	}
	for i := 0; i < clients; i++ {
		issue(-1)
	}
	// A double-faulted propagation goes back to the front of its queue: the
	// old head is then second, which nothing else does (writes append).
	requeues := 0
	heads := make([]*delayedCopy, len(a.drives))
	step := func() bool {
		ok := sim.Step()
		for i, d := range a.drives {
			if heads[i] != nil && len(d.delayed) > 1 && d.delayed[1] == heads[i] {
				requeues++
			}
			heads[i] = nil
			if len(d.delayed) > 0 {
				heads[i] = d.delayed[0]
			}
		}
		if afterStep != nil {
			afterStep(a)
		}
		return ok
	}
	for finished < total {
		if !step() {
			t.Fatalf("stalled at %d/%d", finished, total)
		}
	}
	for !a.Idle() {
		if !step() {
			t.Fatal("array never drained")
		}
	}
	if a.NVRAMUsed() != 0 {
		t.Fatalf("NVRAM table holds %d entries after drain", a.NVRAMUsed())
	}
	var cmds int64
	for _, d := range a.drives {
		for i, f := range d.fresh {
			if f.pending() != 0 {
				t.Fatalf("drive %d keeps %d staleness marks at table entry %d after drain", d.id, f.pending(), i)
			}
		}
		cmds += d.bus.Commands
	}
	f := a.Faults()
	if a.ForcedDelayed == 0 || requeues == 0 || f.Failovers == 0 {
		t.Fatalf("forced=%d requeues=%d failovers=%d: the run missed a path it exists to cover",
			a.ForcedDelayed, requeues, f.Failovers)
	}
	return fmt.Sprintf("finished=%d failed=%d lat=%v now=%v cmds=%d forced=%d requeues=%d faults=%+v rebuilt=%v",
		finished, failed, latSum, sim.Now(), cmds, a.ForcedDelayed, requeues, f, a.RebuildProgress())
}

// stressLayouts are the two shapes delayedStressRun covers: an SR-Array
// (propagation to the other rotational replicas of one drive) and an
// SR-Mirror (first copy duplicated across the mirror pair, then both).
var stressLayouts = []struct {
	name string
	cfg  layout.Config
}{
	{"sr-array", layout.SRArray(2, 2)},
	{"sr-mirror", layout.Config{Ds: 1, Dr: 2, Dm: 2}},
}

// TestPoolPoisoningDelayedWrites is TestPoolPoisoningAliasRegression for
// recycled delayed-mode write requests. Poisoning scrambles a released
// request's arena and a released copy's extents, so a first-copy completion
// that reads its piece after the callback's resubmission took the request
// over, or a run still walking a recycled copy, diverges or panics.
func TestPoolPoisoningDelayedWrites(t *testing.T) {
	for _, l := range stressLayouts {
		t.Run(l.name, func(t *testing.T) {
			clean := delayedStressRun(t, l.cfg, nil)
			defer SetPoolPoisoning(SetPoolPoisoning(true))
			poisoned := delayedStressRun(t, l.cfg, nil)
			if clean != poisoned {
				t.Fatalf("pool poisoning changed the simulation:\nclean:    %s\npoisoned: %s", clean, poisoned)
			}
		})
	}
}

// TestStaleMarksCoverDelayedCopies pins what coalesce's early return rests
// on: after every event of the stress run, each (drive, chunk, replica)
// carries at least as many staleness marks as propagation copies queued for
// it, so a missing mark means there is nothing to coalesce. (Marks can
// exceed copies: a copy promoted to the foreground queue or on the bus
// keeps its mark until it lands.)
func TestStaleMarksCoverDelayedCopies(t *testing.T) {
	type key struct {
		chunk   int64
		replica int
	}
	// A map, not a rescan per copy: a rebuilding spare queues thousands of
	// reconstruction copies.
	queued := map[key]int{}
	check := func(a *Array) {
		for _, d := range a.drives {
			clear(queued)
			for _, c := range d.delayed {
				if !c.rebuild && !c.repair {
					queued[key{c.chunk, c.replica}]++
				}
			}
			for k, n := range queued {
				if marks := a.freshAt(d, k.chunk, k.replica).pending(); marks < n {
					t.Fatalf("at %v drive %d chunk %d replica %d: %d propagation copies queued under %d staleness marks",
						a.sim.Now(), d.id, k.chunk, k.replica, n, marks)
				}
			}
		}
	}
	for _, l := range stressLayouts {
		t.Run(l.name, func(t *testing.T) {
			delayedStressRun(t, l.cfg, check)
		})
	}
}

// closedLoop builds the benchmark's array-write-closed shape at test scale
// — an array of cfg's shape (the benchmark's is the 2x3 SR-Array) with a
// 1000-entry delayed-write table under 12 closed-loop clients issuing
// 8-sector requests, the given share of them writes — primes it, and returns
// a function that steps the simulation until the given number of requests
// have finished (total is all the loop will issue). opts, when non-nil,
// adjusts the options last. The table is small enough to fill within a few
// thousand writes, so a warm-up puts the copy and entry pools in steady
// state along with the request pools.
func closedLoop(tb testing.TB, cfg layout.Config, writeShare float64, opts func(*Options), total int) (runTo func(finished int)) {
	tb.Helper()
	sim, a := newArray(tb, cfg, "rsatf", func(o *Options) {
		o.NVRAMEntries = 1000
		if opts != nil {
			opts(o)
		}
	})
	rng := rand.New(rand.NewSource(3))
	n := a.DataSectors() - 8
	issued, finished := 0, 0
	var issue func()
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
			tb.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		issue()
	}
	return func(until int) {
		for finished < until {
			if !sim.Step() {
				tb.Fatalf("stalled at %d/%d", finished, until)
			}
		}
	}
}

// steadyStateAllocs returns the heap objects allocated per request of a
// closedLoop once half of it has warmed the pools. It counts
// runtime.MemStats.Mallocs around the measured half, as bench/ does:
// testing.AllocsPerRun calls its function once to warm up, and that call
// would drain the whole run and leave nothing to measure.
func steadyStateAllocs(t *testing.T, writeShare float64) float64 {
	t.Helper()
	const total = 24000
	runTo := closedLoop(t, layout.SRArray(2, 3), writeShare, nil, total)
	runTo(total / 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runTo(total)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(total/2)
}

// TestPooledSubmitSteadyStateAllocs pins the pooling claim at the API
// boundary: in a steady-state closed loop a read allocates nothing and a
// delayed-mode write about one object (extent merges and scheduler scratch
// included, amortized). A request, arena or copy that stops recycling adds
// at least one more per write.
func TestPooledSubmitSteadyStateAllocs(t *testing.T) {
	for _, leg := range []struct {
		name       string
		writeShare float64
		max        float64
	}{
		{"mix", 0.3, 0.5},
		// What a delayed-mode write still allocates: its live-mirror slice
		// (1.0), and the delayed queues regrowing behind forceDelayed's front
		// pops (0.12 here).
		{"writes", 1, 1.2},
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
		scratch = access(est, arm, disk.Request{Start: exts[0].Start, Count: exts[0].Count, Write: req.Write}, now)
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
