// Package mimdraid is the public API of the MimdRAID reproduction: a disk
// array that trades capacity for performance by combining striping,
// rotational replication, and mirroring (Yu et al., "Trading Capacity for
// Performance in a Disk Array", OSDI 2000).
//
// The package wraps the internal substrates (mechanical disk simulator,
// discrete-event kernel, calibration/head-tracking layer, schedulers,
// layout, and the array controller) behind a small surface:
//
//	sim := mimdraid.NewSim()
//	arr, err := mimdraid.New(sim, mimdraid.Options{
//		Config: mimdraid.SRArray(2, 3),   // 2-way stripe x 3 rotational replicas
//		Policy: "rsatf",
//	})
//	arr.Read(off, sectors, func(r mimdraid.Result) { ... })
//	sim.Run()
//
// Use Recommend to let the paper's analytic models pick the aspect ratio
// for a disk budget and workload profile.
package mimdraid

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/slo"
)

// Time is a simulated duration or timestamp in microseconds.
type Time = des.Time

// Common durations in simulated Time units.
const (
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
	Hour        = des.Hour
)

// Sim is the discrete-event simulation kernel every simulated component
// shares.
type Sim = des.Sim

// NewSim returns an empty simulator at time zero.
func NewSim() *Sim { return des.New() }

// Config selects an array configuration: Ds-way striping, Dr rotational
// replicas per disk, Dm mirror copies (Ds*Dr*Dm disks total).
type Config = layout.Config

// Convenience constructors for the paper's named configurations.
var (
	// Striping is a D x 1 x 1 array.
	Striping = layout.Striping
	// Mirror is a 1 x 1 x D array.
	Mirror = layout.Mirror
	// RAID10 is a (D/2) x 1 x 2 array.
	RAID10 = layout.RAID10
	// SRArray is a Ds x Dr x 1 array.
	SRArray = layout.SRArray
)

// Options configures an Array; see core.Options for field documentation.
type Options = core.Options

// MetricsRegistry is an observability hub: set Options.Obs to one to
// collect per-drive latency histograms, scheduler and fault counters, and
// (with TraceCap > 0) per-request traces from every array attached to it.
// Registry.Snapshot() exports deterministic JSON; WriteTraceJSONL exports
// the traces.
type MetricsRegistry = obs.Registry

// MetricsRecorder is one array's slice of a MetricsRegistry, from
// Registry.Recorders().
type MetricsRecorder = obs.Recorder

// Array is a configured MimdRAID logical disk.
type Array struct {
	*core.Array
}

// Volume is the array surface a storage front-end consumes — submit I/O,
// observe backpressure and fault accounting, drive the crash/recovery
// cycle — without reaching into array internals. *Array implements it
// (via the embedded core array); the service layer and future multi-brick
// routers are written against this interface.
type Volume = core.Volume

var _ Volume = (*Array)(nil)

// Result reports one completed request.
type Result = core.Result

// FaultModel configures per-drive transient-error and command-timeout
// injection (Options.Faults); the zero value disables injection entirely.
type FaultModel = disk.FaultModel

// FaultCounters tallies observed faults, retries, failovers, failed
// requests, and rebuild activity; read it with Array.Faults.
type FaultCounters = core.FaultCounters

// DriveStatus classifies one drive slot's health, from Array.DriveState.
type DriveStatus = core.DriveStatus

// Drive health states.
const (
	DriveHealthy    = core.DriveHealthy
	DriveRebuilding = core.DriveRebuilding
	DriveDegraded   = core.DriveDegraded
	DriveFailed     = core.DriveFailed
)

// RebuildProgress snapshots an active hot-spare reconstruction, from
// Array.RebuildProgress.
type RebuildProgress = core.RebuildProgress

// SlowProfile assigns fail-slow behaviour to one drive via
// FaultModel.Slow: a persistent service-time inflation factor plus
// optional periodic stutter windows.
type SlowProfile = disk.SlowProfile

// HealthOptions configures the per-drive fail-slow health tracker
// (Options.Health); the zero value disables tracking.
type HealthOptions = core.HealthOptions

// HealthState classifies one drive's tracked fail-slow condition, from
// Array.DriveHealth.
type HealthState = core.HealthState

// Health tracker states.
const (
	HealthHealthy = core.HealthHealthy
	HealthSuspect = core.HealthSuspect
	HealthEvicted = core.HealthEvicted
)

// HedgeCounters reports hedged-read activity, from Array.Hedges.
type HedgeCounters = core.HedgeCounters

// ShedCounters reports admission-control activity, from Array.Sheds.
type ShedCounters = core.ShedCounters

// ScrubOptions configures the paced background scrubber, started with
// Array.StartScrub.
type ScrubOptions = core.ScrubOptions

// ScrubCounters reports scrubber activity, from Array.ScrubCounters.
type ScrubCounters = core.ScrubCounters

// ScrubProgress snapshots the active scrub pass, from
// Array.ScrubProgress.
type ScrubProgress = core.ScrubProgress

// Typed failure causes carried by Result.Err; test with errors.Is.
var (
	// ErrDriveIndex reports a drive index outside the array.
	ErrDriveIndex = core.ErrDriveIndex
	// ErrDataLost reports a request touching chunks with no surviving
	// copy.
	ErrDataLost = core.ErrDataLost
	// ErrNoFreshReplica reports a read finding every replica stale.
	ErrNoFreshReplica = core.ErrNoFreshReplica
	// ErrOverload reports a request rejected at Submit by admission
	// control (Options.MaxQueueDepth).
	ErrOverload = core.ErrOverload
	// ErrDeadlineExceeded reports a read that waited out
	// Options.ReadDeadline in a queue without being dispatched.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrCorruptData reports a verified read that found every reachable
	// replica known-corrupt (repair queued where possible).
	ErrCorruptData = core.ErrCorruptData
)

// DiskSpec describes a drive model in datasheet terms.
type DiskSpec = disk.Spec

// ST39133LWV returns the reference 9.1 GB, 10000 RPM drive of the paper's
// prototype.
func ST39133LWV() DiskSpec { return disk.ST39133LWV() }

// New builds an array of simulated drives on sim.
func New(sim *Sim, opts Options) (*Array, error) {
	a, err := core.New(sim, opts)
	if err != nil {
		return nil, err
	}
	return &Array{a}, nil
}

// Read submits a read of count sectors at logical sector offset off. done
// (optional) runs at completion, through the simulator.
func (a *Array) Read(off int64, count int, done func(Result)) error {
	return a.Submit(core.Read, off, count, false, done)
}

// Write submits a synchronous write.
func (a *Array) Write(off int64, count int, done func(Result)) error {
	return a.Submit(core.Write, off, count, false, done)
}

// WriteAsync submits an asynchronous write (reported separately, as the
// paper excludes sync-daemon traffic from response times).
func (a *Array) WriteAsync(off int64, count int, done func(Result)) error {
	return a.Submit(core.Write, off, count, true, done)
}

// BatchOp is one operation of Array.SubmitBatch or SubmitBatchErrs: Op is mimdraid.OpRead or
// mimdraid.OpWrite, the rest mirror the Submit parameters.
type BatchOp = core.BatchOp

// Op selects read or write in a BatchOp.
type Op = core.Op

// BatchOp opcodes.
const (
	OpRead  = core.Read
	OpWrite = core.Write
)

// NVRAMDurability selects what a power failure does to the delayed-copy
// NVRAM table (CrashModel.Durability).
type NVRAMDurability = core.NVRAMDurability

// NVRAM durability modes.
const (
	// Volatile NVRAM loses the table: every queued delayed copy vanishes
	// and the recovery scan must find the resulting divergence.
	Volatile = core.Volatile
	// BatteryBacked NVRAM holds the table across the outage and recovery
	// re-adopts it.
	BatteryBacked = core.BatteryBacked
)

// CrashModel configures crash/power-fail injection (Options.Crash): an
// optional scheduled crash and recovery, and the NVRAM durability mode.
// The recovery scan's pacing is Tuning.RecoveryScanMBps. The zero value
// disables the model entirely.
type CrashModel = core.CrashModel

// RecoveryCounters tallies crash and recovery activity — copies lost and
// adopted, the recovery scan's coverage, divergence found, repairs queued
// and resolved; read it with Array.Recovery. The counters reconcile:
// DivergentFound == RepairsQueued + Unrepairable and RepairsQueued ==
// Repaired + RepairsDropped.
type RecoveryCounters = core.RecoveryCounters

// ErrCrashed reports a request rejected or failed because the array is
// (or went) powered off; recalled by Result.Err and Submit. Test with
// errors.Is.
var ErrCrashed = core.ErrCrashed

// Tuning is the array's runtime actuator surface — hedge delay,
// admission depth, and the pacing of rebuild, scrub, and recovery-scan
// background work. Snapshot it with Array.Tuning, adjust it atomically
// with Array.SetTuning; the SLO control plane drives the same surface.
type Tuning = core.Tuning

// SLOTier classifies a tenant's service priority for the SLO control
// plane. Shedding strictly follows tier order: best-effort first, then
// standard; premium is never shed.
type SLOTier = slo.Tier

// The service tiers, in shed-last-first order.
const (
	TierPremium    = slo.Premium
	TierStandard   = slo.Standard
	TierBestEffort = slo.BestEffort
)

// ParseSLOTier maps the canonical tier names ("premium", "standard",
// "best-effort") back to tiers.
var ParseSLOTier = slo.ParseTier

// SLOLevel is the brownout ladder the controller walks under sustained
// SLO violation; each level adds one degradation on top of the last.
type SLOLevel = slo.Level

// The brownout levels, in escalation order.
const (
	SLONormal            = slo.Normal
	SLODegradeBackground = slo.DegradeBackground
	SLOShedBestEffort    = slo.ShedBestEffort
	SLOShedStandard      = slo.ShedStandard
)

// SLOOptions configures an SLOController: evaluation window, per-tier
// p99 targets, hysteresis (violating windows to escalate, compliant
// windows to step back), tenant classification, and actuator bounds.
type SLOOptions = slo.Options

// SLOActuators bounds what each brownout level may do to the system
// (hedge clamp, throttle scale); the background pacing floor (1 MB/s) and
// the admission-depth factor (0.5) are fixed.
type SLOActuators = slo.Actuators

// SLOController closes the loop from observed windowed p99 latency back
// onto the volume's Tuning actuators and the gateway's admission. It is
// event-driven on the virtual clock and deterministic; a nil controller
// is valid and inert, leaving every caller byte-identical.
type SLOController = slo.Controller

// SLOState is a deterministic snapshot of a controller (current level,
// streaks, per-tier counters, transition log) as served by /v1/stats.
type SLOState = slo.State

// NewSLOController attaches a controller to vol; the volume's current
// Tuning becomes the Normal baseline that recovery restores exactly.
func NewSLOController(vol Volume, opts SLOOptions) (*SLOController, error) {
	return slo.New(vol, opts)
}

// ShardedSim is a conservative-lookahead parallel driver over several
// independent Sims — one per "brick" (array plus drives plus workload).
// Cross-brick events must be scheduled through Send with timestamps at
// least the lookahead past the sender's clock; output is byte-identical
// for any worker count.
type ShardedSim = des.Sharded

// NewShardedSim returns an engine over n fresh shards with the given
// lookahead (a lower bound on any cross-shard interaction latency). It
// runs one epoch worker; SetWorkers gives this engine more, and there is
// no process-wide setting.
func NewShardedSim(n int, lookahead Time) *ShardedSim {
	return des.NewSharded(n, lookahead)
}

// Workload profiles a workload for configuration recommendation, in the
// terms of the paper's models.
type Workload struct {
	// P is the fraction of I/Os that do not force foreground replica
	// propagation (Eq. 8); 1 when writes can always propagate in the
	// background, below 0.5 replication cannot pay off.
	P float64
	// Q is the typical per-disk queue length (busyness).
	Q float64
	// L is the seek-locality index (1 = uniformly random).
	L float64
}

// Recommend picks the best Ds x Dr configuration for a budget of D disks
// of the given spec under the workload profile, honoring the layout's
// constraint that Dr divide the number of disk surfaces and the
// prototype's Dr <= 6 cap.
func Recommend(spec DiskSpec, d int, w Workload) (Config, error) {
	md := model.Disk{S: spec.MaxSeek, R: des.Time(60e6 / spec.RPM)}
	ds, dr, err := model.Optimize(md, d, w.P, w.Q, w.L, func(dr int) bool {
		return spec.Heads%dr == 0
	})
	if err != nil {
		return Config{}, err
	}
	return layout.SRArray(ds, dr), nil
}

// PredictLatency evaluates the paper's latency model (Eqs. 9/12) for a
// configuration under a workload profile — the overhead-independent part
// of the expected response time.
func PredictLatency(spec DiskSpec, cfg Config, w Workload) Time {
	md := model.Disk{S: spec.MaxSeek, R: des.Time(60e6 / spec.RPM)}
	return model.LatencyInt(md, cfg.Ds, cfg.Dr*cfg.Dm, w.P, w.Q, w.L)
}

// ClusterVolume is a replicated volume over N brick arrays: extents placed
// on R distinct bricks by weighted rendezvous hashing, read failover
// behind per-brick circuit breakers, quorum writes with a
// divergence log, and paced backfill/re-replication. It implements Volume,
// so everything that fronts an Array (the service gateway included) fronts
// a cluster unchanged.
type ClusterVolume = cluster.Cluster

// ClusterOptions configures a ClusterVolume (replication factor, extent
// size, placement seed and headroom, probe budget, backfill pacing); the
// breaker's thresholds are fixed.
type ClusterOptions = cluster.Options

// ClusterCounters is the router's own accounting: failovers, breaker
// trips, probes, and the divergence ledger, which reconciles exactly
// (Diverged == Backfilled + Abandoned) once the cluster drains.
type ClusterCounters = cluster.Counters

// BrickHealth is a brick's circuit-breaker state.
type BrickHealth = cluster.Health

// Breaker states: a Healthy brick routes normally, a Suspect brick is
// deprioritized (reads prefer Healthy replicas), an Open brick receives
// no traffic while half-open probes test it.
const (
	BrickHealthy = cluster.Healthy
	BrickSuspect = cluster.Suspect
	BrickOpen    = cluster.Open
)

// NewCluster builds a colocated replicated volume: the router and every
// brick share sim, and the router reaches a brick over an inline,
// zero-latency link — the same router path a sharded cluster runs.
func NewCluster(sim *Sim, bricks []Volume, opts ClusterOptions) (*ClusterVolume, error) {
	return cluster.New(sim, bricks, opts)
}

// NewShardedCluster builds a cluster over a ShardedSim: the router on
// shard 0, brick b on shard 1+b, every crossing paying linkLat (which must
// be at least the engine's lookahead).
func NewShardedCluster(sims []*Sim, send func(from, to int, at Time, fn func()), linkLat Time, bricks []Volume, opts ClusterOptions) (*ClusterVolume, error) {
	return cluster.NewSharded(sims, send, linkLat, bricks, opts)
}
