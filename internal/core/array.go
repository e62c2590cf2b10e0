// Package core implements the MimdRAID array controller — the paper's
// primary contribution assembled from the substrate packages: the logical
// disk layer, the disk configuration layer (striping / mirroring / RAID-10
// / SR-Array / SR-Mirror via package layout), per-drive scheduling queues
// (package sched), delayed write propagation with an NVRAM metadata table
// (Section 3.4), the duplicate-request heuristic for scheduling reads on
// mirrors (Section 3.3), and the head-tracking calibration machinery in
// prototype mode (Section 3.2).
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bus"
	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Op is a logical operation.
type Op int

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Result reports one completed logical request.
type Result struct {
	Op     Op
	Off    int64
	Count  int
	Async  bool // asynchronous write (reported separately, per the paper)
	Submit des.Time
	Done   des.Time
	// Failed reports that some piece of the request had no surviving copy
	// (a drive failure made the data unreachable). Mirrored and SR-Mirror
	// configurations survive single failures; striping and plain SR-Arrays
	// do not — the reliability side of the capacity tradeoff.
	Failed bool
	// Err classifies the first failure when Failed is set (ErrDataLost or
	// ErrNoFreshReplica); nil otherwise.
	Err error
}

// Latency is the response time.
func (r Result) Latency() des.Time { return r.Done - r.Submit }

// Options configures an Array.
type Options struct {
	Config layout.Config
	// Policy names the per-drive scheduler: fcfs, sstf, look, satf, rlook,
	// rsatf. Empty selects satf, or rsatf when Config.Dr > 1.
	Policy string
	// Spec is the drive model; zero value selects the ST39133LWV.
	Spec disk.Spec
	// DataSectors is the logical volume size; 0 means one disk's capacity.
	DataSectors int64
	// Prototype enables the noisy-timing mode: drives hide their mechanics
	// behind the bus noise model and scheduling runs on calibrated
	// estimates from the head tracker.
	Prototype bool
	// Seed drives all randomness (spindle phases, noise streams).
	Seed int64
	// ForegroundWrites disables delayed propagation: a write completes
	// only when every copy is on disk (the worst case of Section 2.2).
	ForegroundWrites bool
	// NVRAMEntries bounds the delayed-write metadata table; 0 means the
	// prototype's 10000.
	NVRAMEntries int
	// TCQDepth enables tagged command queueing: each drive accepts up to
	// this many commands and schedules them internally by shortest access
	// time (firmware-grade knowledge of its own mechanics). The host policy
	// must then be order-free — fcfs, or rfcfs to keep host-side rotational
	// replica choice (the paper's open question about drives with
	// intelligent internal scheduling).
	TCQDepth int
	// OpportunisticTracking refines the head tracker's phase from ordinary
	// request completions (the paper's unimplemented optimization).
	OpportunisticTracking bool
	// recalibrateEvery overrides the head tracker's reference-read
	// interval (0 keeps the default two minutes). Only tests shorten it,
	// to drive recalibration inside a short run.
	recalibrateEvery des.Time

	// Faults injects per-drive transient errors and command timeouts (see
	// disk.FaultModel), and assigns fail-slow profiles (persistent
	// service-time inflation and stutter windows) to individual drives.
	// Each drive draws from its own stream seeded off Seed, so fault and
	// slowness sequences are reproducible and a zero model leaves existing
	// runs byte-identical.
	Faults disk.FaultModel
	// Spares adds hot-spare drives beyond Config.Disks(). When a drive of
	// a mirrored configuration (Dm >= 2) fail-stops, a spare is swapped
	// into its slot and the lost chunks are reconstructed from surviving
	// mirrors in the background.
	Spares int
	// RebuildMBps caps the reconstruction bandwidth of a rebuild so
	// foreground latency stays bounded; 0 means DefaultRebuildMBps.
	RebuildMBps float64

	// Health configures the per-drive fail-slow health tracker (EWMA
	// service latency versus the array median, plus fault counts) with
	// Healthy -> Suspect -> Evicted states. The zero value disables
	// tracking entirely.
	Health HealthOptions
	// Hedge enables hedged reads: a dispatched foreground read that has
	// not completed after the hedge delay is duplicated onto another fresh
	// mirror, and whichever copy finishes first answers the caller (the
	// loser is cancelled from its queue or its completion discarded). The
	// post-dispatch generalization of the mirror duplicate-request
	// heuristic, aimed at fail-slow drives rather than busy ones.
	// The delay derives adaptively from the observed p99 of foreground
	// read service times (the hedged-request policy of Dean & Barroso)
	// unless Tuning.HedgeAfter pins it.
	Hedge bool
	// MaxQueueDepth sheds a logical request at Submit with ErrOverload
	// when every candidate drive of some piece already has at least this
	// many foreground requests queued. 0 disables admission control.
	// While any drive's queue is at least half this deep, background work
	// (delayed propagation, rebuild chunk starts) is throttled.
	MaxQueueDepth int
	// ReadDeadline fails a queued read with ErrDeadlineExceeded if it has
	// not been dispatched within this budget of its submission — load
	// shedding for callers who would rather retry elsewhere than wait out
	// a saturated queue. In-flight commands are never aborted. 0 disables.
	ReadDeadline des.Time
	// VerifyReads checks every foreground/hedged read's data against the
	// integrity oracle (the simulator's stand-in for per-extent
	// checksums): corrupt or stale data is never returned — the read fails
	// over to a clean replica and an in-place repair of the bad copy is
	// queued. Off, corrupt data flows to the caller and is tallied in
	// FaultCounters.SilentReads.
	VerifyReads bool
	// Crash enables the whole-array power-failure model: Crash()/Recover()
	// become available (or fire automatically at CrashModel.At), NVRAM
	// durability follows CrashModel.Durability, and restart runs the
	// recovery pipeline. The zero value disables the model entirely and
	// keeps every hot path untouched. See CrashModel.
	Crash CrashModel

	// Obs, when non-nil, attaches the array to an observability registry:
	// per-drive latency histograms, scheduler decision counters, fault and
	// rebuild accounting, and (when the registry enables tracing)
	// per-request trace rings. Nil keeps every hot path untouched — the
	// recording calls are guarded by a single pointer check and the
	// disabled cost is zero allocations.
	Obs *obs.Registry
	// ObsLabel names this array's recorder in the registry; empty derives
	// "config/policy/seedN" from the options.
	ObsLabel string

	// Ablation knobs (all default to the paper's design).
	//
	// FixedSlack pins the rotational slack to a constant k instead of the
	// feedback controller; -1 (default 0 value means adaptive) — use
	// FixedSlackSet to distinguish.
	FixedSlack    int
	FixedSlackSet bool
	// DisableCoalescing keeps superseded delayed writes instead of
	// discarding them.
	DisableCoalescing bool
	// DisableDupRequests replaces the duplicate-request mirror heuristic
	// with a static choice of the estimated-nearest mirror at submit time.
	DisableDupRequests bool
}

// Array is a configured MimdRAID logical disk.
type Array struct {
	sim  *des.Sim
	opts Options
	lay  *layout.Layout

	drives []*drive
	// spares holds the unused hot spares, consumed front-first by
	// rebuilds.
	spares []*drive
	// rebuild is the active hot-spare rebuild, nil when none is running.
	rebuild *rebuildState
	reqSeq  uint64

	// writeGate serializes delayed-mode first-copy writes per chunk: two
	// concurrent first copies of the same chunk landing on different
	// mirror disks would each mark the other's disk stale, leaving no
	// fresh replica anywhere. Waiters carry their userRequest so a crash
	// can fail them instead of running them against a dead array.
	writeGate map[int64][]gateWaiter

	nvramCap  int
	nvramUsed int

	// Counters exposed for experiments and tests.
	ForcedDelayed  int64 // delayed writes forced out by a full table
	RefReads       int64 // head-tracking reference reads issued
	RotationMisses int64
	Dispatches     int64

	faults    FaultCounters
	breakdown Breakdown
	hedges    HedgeCounters
	sheds     ShedCounters

	// integrity gates the silent-corruption oracle: true when corruption
	// can be injected, reads are verified, or a scrubber runs. False keeps
	// every read/write path free of oracle work (and allocation).
	integrity bool
	// verSeq stamps logical writes; committed holds each chunk's durable
	// content version, indexed by chunk (see integrity.go).
	verSeq    uint64
	committed []uint64
	// scrub is the background scrubber state, nil until started; scrubCtr
	// accumulates its counters (surviving scrubber completion).
	scrub    *scrubState
	scrubCtr ScrubCounters

	// The Tuning actuators that Options does not seed: the pinned hedge
	// delay (0 = adaptive), the scrubber's default rate and the recovery
	// scan's rate. New starts them at their defaults; SetTuning moves them.
	hedgeAfter          des.Time
	scrubMBps, scanMBps float64

	// Crash/recovery state (see crash.go and recovery.go). crashed marks
	// the power-failed window between Crash and Recover; crashSnap holds
	// the battery-backed NVRAM snapshot taken at the instant of the crash;
	// crashDelayed counts the delayed propagation copies that were pending
	// then. crashScrub* remember an interrupted scrub pass for resumption.
	// recScan is the active post-recovery divergence scan; recCtr
	// accumulates crash/recovery counters across cycles.
	crashed          bool
	crashSnap        []byte
	crashDelayed     int64
	crashScrubActive bool
	crashScrubOpts   ScrubOptions
	recScan          *recoveryScan
	recCtr           RecoveryCounters
	// slowEpoch counts SetDriveSlow calls so each mid-run profile draws a
	// fresh deterministic stutter stream.
	slowEpoch int64

	// hedgeLat accumulates clean foreground read service times for the
	// adaptive hedge delay (maintained only when Hedge is on and
	// hedgeAfter is 0).
	hedgeLat latHist
	// healthScratch is reused by the health tracker's median computation
	// so per-completion evaluation never allocates.
	healthScratch []float64

	// obsRec is the array's observability recorder; nil when Options.Obs
	// was not set (the common case — hot paths check the per-drive rec
	// pointer instead of this).
	obsRec *obs.Recorder

	// Free lists backing the zero-allocation submit/dispatch path (see
	// pool.go). The array runs on one goroutine (its Sim), so no locking.
	freeReqs    *pooledReq
	freeRuns    *extentRun
	freeURs     *userRequest
	freeFGs     *fgWrite
	freeCopies  *delayedCopy
	freeEntries *propEntry
	// touched is registerPropagation's reusable drive set.
	touched []*drive

	// deferKicks batches drive kicks during SubmitBatch: enqueues record
	// their drive in pendingKicks (once each) and the batch flush kicks
	// them in first-touch order.
	deferKicks   bool
	pendingKicks []*drive
}

// Breakdown decomposes foreground service time into its mechanical
// components, summed over dispatched requests — the quantitative form of
// Section 2's reasoning about where an SR-Array saves time. Queue is the
// wait between arrival and dispatch; Overhead is command processing and
// transfer-tail time.
type Breakdown struct {
	N        int64
	Queue    des.Time
	Overhead des.Time
	Seek     des.Time
	Rotate   des.Time
	Transfer des.Time
}

// Means returns the per-request averages.
func (b Breakdown) Means() (queue, overhead, seek, rotate, transfer des.Time) {
	if b.N == 0 {
		return
	}
	n := des.Time(b.N)
	return b.Queue / n, b.Overhead / n, b.Seek / n, b.Rotate / n, b.Transfer / n
}

// BreakdownReport returns the accumulated service-time decomposition.
func (a *Array) BreakdownReport() Breakdown { return a.breakdown }

// drive bundles one spindle's queueing and calibration state.
type drive struct {
	id    int
	bus   *bus.Drive
	dsk   *disk.Disk
	sched sched.Scheduler
	est   calib.AccessEstimator
	trk   *calib.Tracker
	slack *calib.SlackController
	acc   calib.AccuracyStats
	// tgt is bestAccess's scratch target: est.Prepare fills it through an
	// interface call, so a local would escape to the heap.
	tgt disk.Target

	queue   []*sched.Request
	delayed []*delayedCopy
	// The drive's two per-chunk tables share one layout: a row of Dr
	// entries per chunk of the drive's slot, row = chunk / Positions()
	// (copyIndex), each allocated whole at its first touch. pos is the
	// slot position (chunk % Positions()) every chunk looked up in them
	// must have, fixed at the first allocation (tableLen).
	//
	// fresh answers whether each copy is current (see freshness): the
	// propagations owed to it, and per row the missing and lost marks. It
	// is allocated at the drive's first stale or missing mark, Dr x 2 B
	// per row, so a drive that never takes a delayed write or a rebuild
	// holds none. missingRows counts its rows marked missing.
	//
	// integ is the integrity oracle's copy state (content version and
	// corruption mark), allocated at the drive's first oracle write, Dr x
	// 8 B per row, and never with the oracle off.
	fresh       []freshness
	missingRows int
	integ       []copyState
	pos         int64

	refInFlight bool
	// rec is this drive's observability slot, keyed by physical creation
	// index — stable even when a spare's id is reassigned to the failed
	// slot it replaces. Nil (metrics disabled) short-circuits every
	// recording site with one pointer check.
	rec *obs.DriveMetrics
	// failed marks a fail-stopped drive: it finishes its in-flight command
	// and then accepts no further work.
	failed bool
	// lastActive is the last time foreground work touched the drive; the
	// idle-delay gate for background propagation measures from it.
	lastActive des.Time
	// recheckAt dedups scheduled idle-gate rechecks.
	recheckAt des.Time
	// kickFn is the drive's cached kick callback, so recheck events
	// schedule without allocating a closure per event.
	kickFn func()
	// kickPending marks the drive as already recorded in the array's
	// deferred-kick list during a SubmitBatch.
	kickPending bool

	// Fail-slow health tracking (see health.go). ewmaUS smooths the
	// drive's clean foreground service times; healthN counts the samples
	// behind it; health is the tracked state. All zero when tracking is
	// disabled.
	ewmaUS  float64
	healthN int64
	health  HealthState
}

// New builds the array, its simulated drives, and (in prototype mode)
// bootstraps each drive's head tracker. Construction advances the
// simulation clock past calibration, as attaching disks did on the real
// prototype.
func New(sim *des.Sim, opts Options) (*Array, error) {
	if opts.Spec.Name == "" {
		opts.Spec = disk.ST39133LWV()
	}
	if opts.Policy == "" {
		if opts.Config.Dr > 1 {
			opts.Policy = "rsatf"
		} else {
			opts.Policy = "satf"
		}
	}
	if opts.NVRAMEntries == 0 {
		opts.NVRAMEntries = 10000
	}
	if opts.TCQDepth > 0 && opts.Policy != "fcfs" && opts.Policy != "rfcfs" {
		return nil, fmt.Errorf("core: TCQ delegates ordering to the drive; host policy must be fcfs or rfcfs, not %q", opts.Policy)
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	for i := range opts.Faults.Slow {
		if i >= opts.Config.Disks()+opts.Spares {
			return nil, fmt.Errorf("core: slow profile for drive %d with %d drives", i, opts.Config.Disks()+opts.Spares)
		}
	}
	if err := opts.Health.validate(); err != nil {
		return nil, err
	}
	if opts.MaxQueueDepth < 0 {
		return nil, fmt.Errorf("core: negative max queue depth %d", opts.MaxQueueDepth)
	}
	if opts.ReadDeadline < 0 {
		return nil, fmt.Errorf("core: negative read deadline %v", opts.ReadDeadline)
	}
	if opts.Spares < 0 {
		return nil, fmt.Errorf("core: negative spare count %d", opts.Spares)
	}
	if opts.RebuildMBps < 0 {
		return nil, fmt.Errorf("core: negative rebuild bandwidth %v", opts.RebuildMBps)
	}
	if err := opts.Crash.Validate(); err != nil {
		return nil, err
	}
	opts.RebuildMBps = orDefault(opts.RebuildMBps, DefaultRebuildMBps)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Build a reference drive to size the volume.
	refSpec := opts.Spec
	ref, err := refSpec.New()
	if err != nil {
		return nil, err
	}
	dataSectors := opts.DataSectors
	if dataSectors == 0 {
		// Default to one disk's worth of data, aligned down to whole
		// stripe units across all positions so every configuration of this
		// budget can hold it exactly.
		unit := opts.Config.StripeUnit
		if unit == 0 {
			unit = layout.DefaultStripeUnit
		}
		align := int64(unit * opts.Config.Positions())
		if align <= 0 {
			align = int64(unit)
		}
		dataSectors = ref.Geom.TotalSectors() / align * align
	}
	lay, err := layout.New(opts.Config, ref.Geom, dataSectors)
	if err != nil {
		return nil, err
	}
	a := &Array{
		sim: sim, opts: opts, lay: lay, nvramCap: opts.NVRAMEntries,
		writeGate: make(map[int64][]gateWaiter),
		scrubMBps: DefaultScrubMBps, scanMBps: DefaultRecoveryScanMBps,
	}
	// The oracle runs whenever something can corrupt data or consult the
	// check; otherwise committed stays nil and no path touches it.
	// The crash model needs it too: the recovery scan walks content
	// versions to find replicas a lost delayed copy left divergent.
	a.integrity = opts.Faults.CorruptionEnabled() || opts.VerifyReads || opts.Crash.Enabled
	if a.integrity {
		a.ensureIntegrity()
	}

	noise := bus.DefaultNoise()
	newDrive := func(i int) (*drive, error) {
		sp := opts.Spec
		sp.Phase = rng.Float64()
		if opts.Prototype {
			sp.RSkew = (rng.Float64()*2 - 1) * 4e-4
		}
		dsk, err := sp.New()
		if err != nil {
			return nil, err
		}
		sc, err := sched.New(opts.Policy)
		if err != nil {
			return nil, err
		}
		d := &drive{id: i, dsk: dsk, sched: sc}
		d.kickFn = func() { a.kick(d) }
		if opts.Prototype {
			d.bus = bus.NewPrototype(sim, dsk, noise, opts.Seed+int64(i)*7919+1)
			post := noise.PostBase + noise.PostJitter + des.Time(float64(disk.SectorSize)/(160e6/1e6))
			d.trk = calib.NewTracker(dsk.Geom, dsk.NominalR, post)
			if opts.recalibrateEvery > 0 {
				d.trk.RecalibrateEvery = opts.recalibrateEvery
			}
			d.slack = calib.NewSlackController(4)
			if opts.FixedSlackSet {
				d.slack = calib.NewSlackController(opts.FixedSlack)
				d.slack.MinK = opts.FixedSlack
				d.slack.MaxK = opts.FixedSlack
			}
			d.est = &calib.Tracked{
				Geom:       dsk.Geom,
				Seek:       dsk.Seek, // as recovered by calib.MeasureSeekCurve
				HeadSwitch: dsk.HeadSwitch,
				Pre:        noise.PreBase + noise.PreJitter,
				Post:       post,
				Trk:        d.trk,
				Slack:      d.slack,
			}
		} else {
			d.bus = bus.NewSim(sim, dsk)
			d.est = &calib.Exact{Dsk: dsk, Overhead: d.bus.CmdOverhead}
		}
		if opts.TCQDepth > 0 {
			d.bus.EnableTCQ(opts.TCQDepth)
		}
		// A distinct stream per drive keeps fault sequences independent of
		// each other and of every other randomness source.
		d.bus.SetFaults(disk.NewFaultInjector(opts.Faults, opts.Seed+int64(i)*15485863+3))
		// Slow streams are seeded separately so enabling stutters never
		// perturbs which commands draw transient faults.
		d.bus.SetSlow(disk.NewSlowState(opts.Faults.SlowFor(i), opts.Seed+int64(i)*32452843+11))
		// Corruption draws come from a third independent stream: enabling
		// silent corruption never perturbs faults or stutters.
		d.bus.SetCorruption(disk.NewCorruptionInjector(opts.Faults, opts.Seed+int64(i)*49979687+17))
		return d, nil
	}
	for i := 0; i < opts.Config.Disks(); i++ {
		d, err := newDrive(i)
		if err != nil {
			return nil, err
		}
		a.drives = append(a.drives, d)
	}
	// Spares come after the main drives so that a Spares=0 configuration
	// consumes exactly the seed's random stream and stays byte-identical.
	for k := 0; k < opts.Spares; k++ {
		d, err := newDrive(opts.Config.Disks() + k)
		if err != nil {
			return nil, err
		}
		a.spares = append(a.spares, d)
	}
	if opts.Obs != nil {
		label := opts.ObsLabel
		if label == "" {
			label = fmt.Sprintf("%s/%s/seed%d", opts.Config, opts.Policy, opts.Seed)
		}
		a.obsRec = opts.Obs.NewRecorder(label, len(a.drives)+len(a.spares))
		attach := func(d *drive, slot int) {
			d.rec = a.obsRec.Drive(slot)
			d.sched = sched.Observe(d.sched, d.rec)
		}
		for i, d := range a.drives {
			attach(d, i)
		}
		for k, d := range a.spares {
			attach(d, len(a.drives)+k)
		}
	}
	if opts.Prototype {
		for _, d := range a.drives {
			d.trk.Bootstrap(sim, d.bus)
			a.RefReads += int64(d.trk.ObsCount)
		}
		for _, d := range a.spares {
			d.trk.Bootstrap(sim, d.bus)
			a.RefReads += int64(d.trk.ObsCount)
		}
	}
	if opts.Crash.Enabled && opts.Crash.At > 0 {
		a.scheduleCrash(opts.Crash.At, opts.Crash.RecoverAfter)
	}
	return a, nil
}

// Layout exposes the array's data placement.
func (a *Array) Layout() *layout.Layout { return a.lay }

// Sim returns the simulation kernel the array runs on.
func (a *Array) Sim() *des.Sim { return a.sim }

// DataSectors returns the logical volume size in sectors.
func (a *Array) DataSectors() int64 { return a.lay.DataSectors() }

// Disks returns the number of drives.
func (a *Array) Disks() int { return len(a.drives) }

// QueueLen returns the foreground queue length of drive i (in-flight
// excluded).
func (a *Array) QueueLen(i int) int { return len(a.drives[i].queue) }

// NVRAMUsed returns the number of live delayed-write table entries.
func (a *Array) NVRAMUsed() int { return a.nvramUsed }

// Commands returns the number of media commands drive i has executed.
func (a *Array) Commands(i int) int64 { return a.drives[i].bus.Commands }

// Accuracy merges the per-drive prediction accuracy stats (prototype
// mode): Table 2's inputs.
func (a *Array) Accuracy() *calib.AccuracyStats {
	var out calib.AccuracyStats
	for _, d := range a.drives {
		out.Merge(&d.acc)
	}
	return &out
}

// RotationPeriod returns drive 0's (estimated) rotation period.
func (a *Array) RotationPeriod() des.Time { return a.drives[0].est.RotationPeriod() }

func (a *Array) nextID() uint64 {
	a.reqSeq++
	return a.reqSeq
}

// Submit issues a logical I/O. done runs at completion time (through the
// simulator); it may be nil. With MaxQueueDepth configured, an overloaded
// array rejects the request synchronously with ErrOverload (done is never
// invoked) — callers shed load instead of deepening a saturated queue.
func (a *Array) Submit(op Op, off int64, count int, async bool, done func(Result)) error {
	if a.crashed {
		return ErrCrashed
	}
	ur := a.getUR()
	pieces, err := a.lay.ResolveArena(off, count, &ur.arena)
	if err != nil {
		a.putUR(ur)
		return err
	}
	if a.opts.MaxQueueDepth > 0 {
		if err := a.admit(op, pieces); err != nil {
			a.putUR(ur)
			return err
		}
	}
	if op == Read {
		pieces = a.mergeReadPieces(ur, pieces)
	}
	ur.op, ur.off, ur.count, ur.async = op, off, count, async
	ur.submit = a.sim.Now()
	ur.done = done
	ur.remaining = len(pieces)
	// The request recycles at its last completion (pool.go's lifetime
	// rules). The one exception is a request a hedge duplicate was issued
	// for: fireHedge marks it noRecycle.
	ur.held = true
	for i := range pieces {
		p := &pieces[i]
		if op == Read {
			a.submitRead(ur, p)
		} else {
			a.submitWrite(ur, p)
		}
	}
	// If every piece resolved synchronously (failure paths), pieceDone left
	// the recycle to us.
	ur.unhold()
	return nil
}

// BatchOp is one operation of a SubmitBatch.
type BatchOp struct {
	Op    Op
	Off   int64
	Count int
	Async bool
	// Done runs at the operation's completion, like Submit's done.
	Done func(Result)
}

// SubmitBatch issues a batch of logical I/Os with amortized dispatch:
// every operation is validated, resolved, and routed into the drive queues
// first, and each touched drive is kicked exactly once at the end, so the
// per-drive schedulers see the whole batch instead of scheduling after
// every operation. Closed-loop drivers priming many outstanding requests
// and clients carrying queues of accumulated work get one scheduling pass
// per drive instead of one per operation.
//
// Operations are submitted in order. The first error stops the batch;
// already-routed operations stay submitted (their Done callbacks will
// run), and the count of successfully submitted operations is returned
// with the error.
func (a *Array) SubmitBatch(ops []BatchOp) (int, error) {
	if a.deferKicks {
		panic("core: SubmitBatch reentered")
	}
	a.deferKicks = true
	n := 0
	var err error
	for i := range ops {
		o := &ops[i]
		if e := a.Submit(o.Op, o.Off, o.Count, o.Async, o.Done); e != nil {
			err = e
			break
		}
		n++
	}
	a.deferKicks = false
	a.flushKicks()
	return n, err
}

// SubmitBatchErrs issues the batch like SubmitBatch but does not stop at
// the first failed submission: every operation is attempted in order, and
// per-operation submit errors (resolve errors, ErrOverload, ErrCrashed)
// are returned in an index-aligned slice. A nil slice means every
// operation was submitted. An operation whose slot is non-nil was never
// queued and its Done will not run; an operation whose slot is nil is
// queued exactly as Submit would have queued it. Note that
// ErrDeadlineExceeded is never a submission error — a read that waits out
// Options.ReadDeadline in a queue reports it through its Done result. The
// count of successfully submitted operations is returned alongside.
func (a *Array) SubmitBatchErrs(ops []BatchOp) ([]error, int) {
	if a.deferKicks {
		panic("core: SubmitBatchErrs reentered")
	}
	a.deferKicks = true
	var errs []error
	n := 0
	for i := range ops {
		o := &ops[i]
		if e := a.Submit(o.Op, o.Off, o.Count, o.Async, o.Done); e != nil {
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = e
			continue
		}
		n++
	}
	a.deferKicks = false
	a.flushKicks()
	return errs, n
}

// flushKicks kicks every drive recorded during a deferred-kick window, in
// first-touch order (deterministic: a pure function of the batch).
func (a *Array) flushKicks() {
	pend := a.pendingKicks
	a.pendingKicks = pend[:0]
	for _, d := range pend {
		d.kickPending = false
	}
	for _, d := range pend {
		a.kick(d)
	}
}

// mergeReadPieces coalesces consecutive pieces of a large read that fall
// on the same position and are physically contiguous, so a sequential
// request reaches each drive as one long command instead of one command
// per stripe chunk. Without this, per-chunk scheduling re-picks a replica
// every 64 KB and large-I/O bandwidth collapses (the exact degradation
// the paper's cross-track placement is designed to avoid). Only
// fully-fresh chunks merge: staleness tracking stays chunk-granular.
func (a *Array) mergeReadPieces(ur *userRequest, pieces []layout.Piece) []layout.Piece {
	// Single-chunk reads — the overwhelmingly common OLTP shape — skip the
	// grouping pass entirely; only the extent fuse below applies (a piece
	// can straddle a track boundary within one chunk).
	if len(pieces) == 1 {
		a.fusePieceReplicas(&pieces[0])
		return pieces
	}
	// Group by position: round-robin striping interleaves positions in
	// logical order, but each position's successive chunks are physically
	// contiguous on its disk.
	out := ur.mergeBuf[:0]
	lastAt := ur.lastAt
	if n := a.lay.Cfg.Positions(); len(lastAt) < n {
		lastAt = make([]int, n)
		ur.lastAt = lastAt
	}
	for i := range lastAt {
		lastAt[i] = -1 // position -> index in out of its last piece
	}
	for i := range pieces {
		p := pieces[i]
		if at := lastAt[p.Position]; at >= 0 {
			cur := &out[at]
			if a.pieceFresh(cur) && a.pieceFresh(&p) && a.extContiguous(cur.Replicas[0][len(cur.Replicas[0])-1], p.Replicas[0][0]) {
				// Append each replica's extents, fusing at physical joins.
				mergeable := true
				for j := 1; j < len(cur.Replicas); j++ {
					// All replicas must continue contiguously too (they do
					// by construction; guard against layout variants).
					if !a.extContiguous(cur.Replicas[j][len(cur.Replicas[j])-1], p.Replicas[j][0]) {
						mergeable = false
						break
					}
				}
				if mergeable {
					for j := range cur.Replicas {
						// Arena subslices are capacity-limited, so this append
						// copies out rather than clobbering the next piece.
						cur.Replicas[j] = append(cur.Replicas[j], p.Replicas[j]...)
					}
					cur.Count += p.Count
					continue
				}
			}
		}
		out = append(out, p)
		lastAt[p.Position] = len(out) - 1
	}
	ur.mergeBuf = out
	// Fuse physically contiguous extents so each replica reaches the bus
	// as the fewest, longest commands (the layout splits conservatively at
	// track boundaries, but a multi-track run is one LBA-contiguous
	// command that the drive streams across its skewed tracks).
	for i := range out {
		a.fusePieceReplicas(&out[i])
	}
	return out
}

// extContiguous reports whether next begins at the LBA right after prev
// ends — the two are one streamable command.
func (a *Array) extContiguous(prev, next disk.Extent) bool {
	geom := a.drives[0].dsk.Geom
	pl, err1 := geom.PhysToLBA(prev.Start)
	nl, err2 := geom.PhysToLBA(next.Start)
	return err1 == nil && err2 == nil && pl+int64(prev.Count) == nl
}

// pieceFresh reports whether every mirror holds the piece's chunk with no
// copy tainted: a drive whose copy is gone (failed drive), not yet
// reconstructed (rebuilding spare), or tainted (pending propagation,
// detected corruption) makes freshness non-uniform across a merged range,
// so such pieces must stay separate and route chunk-by-chunk.
func (a *Array) pieceFresh(p *layout.Piece) bool {
	for _, id := range p.Mirrors {
		d := a.drives[id]
		if !a.holds(d, p.Chunk) || a.tainted(d, p.Chunk) {
			return false
		}
	}
	return true
}

// fusePieceReplicas compacts each replica's extent list in place, merging
// runs that are LBA-contiguous. Writes trail reads, so mutating the arena
// slice in place is safe.
func (a *Array) fusePieceReplicas(p *layout.Piece) {
	for j := range p.Replicas {
		src := p.Replicas[j]
		fused := src[:1]
		for _, e := range src[1:] {
			if n := len(fused) - 1; a.extContiguous(fused[n], e) {
				fused[n].Count += e.Count
			} else {
				fused = append(fused, e)
			}
		}
		p.Replicas[j] = fused
	}
}

// userRequest tracks a logical request across its pieces. Pooled
// instances keep their arena and merge buffers across recycles so a
// steady-state workload resolves and merges without allocating.
type userRequest struct {
	a         *Array
	op        Op
	off       int64
	count     int
	async     bool
	submit    des.Time
	remaining int
	failed    bool
	err       error
	done      func(Result)

	arena    layout.Arena
	mergeBuf []layout.Piece
	lastAt   []int // position -> merge index, reset each use

	noRecycle bool // a hedge duplicate reads the pieces after completion; leave to the GC
	held      bool // a frame is still reading the pieces; unhold recycles
	free      bool
	next      *userRequest
}

func (ur *userRequest) pieceDone() {
	ur.remaining--
	if ur.remaining > 0 {
		return
	}
	if ur.failed {
		if ur.op == Read {
			ur.a.faults.FailedReads++
		} else {
			ur.a.faults.FailedWrites++
		}
	}
	if ur.done != nil {
		ur.done(Result{
			Op: ur.op, Off: ur.off, Count: ur.count, Async: ur.async,
			Submit: ur.submit, Done: ur.a.sim.Now(), Failed: ur.failed, Err: ur.err,
		})
	}
	// Recycle only after the user's callback returns: the Result references
	// nothing of ours, and the callback commonly reissues (closed loop),
	// which would otherwise hand back this very object while the caller's
	// frame still points at it. A frame that holds the request (Submit's
	// pieces loop, the delayed-mode first-copy completion) recycles it in
	// unhold instead.
	if !ur.noRecycle && !ur.held {
		ur.a.putUR(ur)
	}
}

// unhold ends a hold, recycling the request if its last piece completed
// meanwhile.
func (ur *userRequest) unhold() {
	ur.held = false
	if ur.remaining == 0 && !ur.noRecycle {
		ur.a.putUR(ur)
	}
}

// pieceFailed records that a piece had no surviving copy, keeping the
// first cause for the Result.
func (ur *userRequest) pieceFailed(err error) {
	ur.failed = true
	if ur.err == nil {
		ur.err = err
	}
	ur.pieceDone()
}

// FailDrive fail-stops drive i: the in-flight command (if any) finishes,
// queued work is rerouted to surviving mirrors or failed, pending replica
// propagation to the drive is dropped, and no further commands are
// accepted. With a hot spare configured and Dm >= 2, a rebuild starts
// reconstructing the lost chunks onto the spare; otherwise the array runs
// degraded, as the paper's reliability discussion assumes. Failing an
// already-failed drive is a no-op; an out-of-range index returns
// ErrDriveIndex.
func (a *Array) FailDrive(i int) error {
	if i < 0 || i >= len(a.drives) {
		return fmt.Errorf("%w: FailDrive(%d) with %d drives", ErrDriveIndex, i, len(a.drives))
	}
	d := a.drives[i]
	if d.failed {
		return nil
	}
	d.failed = true
	// A rebuild writing onto this drive dies with it; cancel before
	// dropping its queues so the per-chunk callbacks see the cancellation.
	if a.rebuild != nil && a.rebuild.slot == i {
		a.cancelRebuild()
	}
	// Drop pending propagation to this drive; the copies are lost but the
	// table entries must still resolve. Rebuild reconstruction copies never
	// marked staleness (the chunk was missing outright), and in-place
	// repairs die with the drive (counted as dropped).
	for _, c := range d.delayed {
		a.finishCopy(d, c, false, bus.Completion{})
		a.putCopy(c)
	}
	d.delayed = nil
	// Reroute or fail queued foreground work.
	queue := d.queue
	d.queue = nil
	for _, req := range queue {
		tag := req.Tag.(*reqTag)
		tag.offQueue = true
		if g := tag.group; g != nil && !g.claimed {
			// Duplicates on surviving drives keep the request alive; just
			// forget this member.
			live := g.members[:0]
			for _, m := range g.members {
				if m.req != req {
					live = append(live, m)
				}
			}
			g.members = live
			if len(g.members) > 0 {
				a.putReq(tag.pr)
				continue
			}
		}
		if !a.failTag(tag) {
			a.putReq(tag.pr)
		}
	}
	a.maybeStartRebuild()
	return nil
}

// Alive reports whether drive i accepts work. Out-of-range indexes are
// simply not alive.
func (a *Array) Alive(i int) bool {
	return i >= 0 && i < len(a.drives) && !a.drives[i].failed
}
