// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, and fixed-bucket latency histograms keyed by drive x
// request class x op), optional per-request trace rings, and deterministic
// machine-readable snapshots.
//
// The design splits responsibility so the DES hot path stays allocation-
// and lock-free:
//
//   - A Recorder belongs to one Array and is only ever touched by the one
//     goroutine running that simulation. Recording is plain field
//     arithmetic on preallocated fixed-size structures — no locks, no maps,
//     no allocation.
//   - The Registry is the concurrency-safe hub shared by many arrays (the
//     parallel experiment runner builds arrays from worker goroutines). Its
//     mutex is taken only when a Recorder is created and when a snapshot is
//     exported, never per-I/O.
//   - Snapshots aggregate integer counters, so the result is byte-identical
//     whatever order parallel workers registered their recorders in; trace
//     export sorts records by content for the same reason. All durations
//     are rounded to integer microseconds at record time precisely so that
//     merge order cannot perturb a sum.
package obs

import (
	"math"
	"math/bits"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/sched"
)

// Class is the request class dimension of the metrics key space: who asked
// for the I/O and with what urgency.
type Class uint8

const (
	// Foreground is ordinary user traffic (reads and first-copy writes).
	Foreground Class = iota
	// Priority is head-tracking reference reads.
	Priority
	// Background is rebuild reconstruction reads.
	Background
	// Delayed is replica-propagation and rebuild-copy writes issued from
	// the delayed queues.
	Delayed
	// Hedge is post-dispatch hedge duplicates of in-flight foreground
	// reads (the fail-slow mitigation path).
	Hedge
	// NumClasses sizes per-class arrays.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Foreground:
		return "foreground"
	case Priority:
		return "priority"
	case Background:
		return "background"
	case Delayed:
		return "delayed"
	case Hedge:
		return "hedge"
	}
	return "unknown"
}

// Op is the operation dimension of the metrics key space.
type Op uint8

const (
	OpRead Op = iota
	OpWrite
	// NumOps sizes per-op arrays.
	NumOps
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// NumBuckets is the histogram resolution: bucket k counts samples in
// [2^(k-1), 2^k) microseconds (bucket 0 holds zero-duration samples), and
// the last bucket absorbs everything from ~4.2 s up. Log2 buckets cover
// the five decades between a command overhead and a saturated queue in a
// fixed-size array, which keeps Observe allocation-free.
const NumBuckets = 23

// Hist is a fixed-bucket latency histogram. Sums are integer microseconds
// so that merging histograms is order-independent — the property the
// deterministic parallel snapshot rests on.
type Hist struct {
	Count   int64
	SumUS   int64
	Buckets [NumBuckets]int64
}

// bucketOf maps a microsecond value to its log2 bucket.
func bucketOf(us int64) int {
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Observe records one duration.
func (h *Hist) Observe(t des.Time) {
	us := int64(math.Round(float64(t)))
	h.Count++
	h.SumUS += us
	h.Buckets[bucketOf(us)]++
}

// MeanUS is the mean in microseconds (0 when empty).
func (h *Hist) MeanUS() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumUS) / float64(h.Count)
}

// QuantileUS is a conservative estimate of the q-quantile in microseconds:
// the upper bound of the log2 bucket holding the nearest-rank sample (so
// the true quantile is never under-reported). 0 when empty.
func (h *Hist) QuantileUS(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range h.Buckets {
		seen += n
		if seen >= rank {
			if b == 0 {
				return 0
			}
			return (int64(1) << uint(b)) - 1
		}
	}
	return (int64(1) << uint(NumBuckets-1)) - 1
}

func (h *Hist) merge(o *Hist) {
	h.Count += o.Count
	h.SumUS += o.SumUS
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Gauge tracks a sampled level: last value, high-water mark, and enough to
// report the mean level over samples.
type Gauge struct {
	Cur     int64
	Max     int64
	Sum     int64
	Samples int64
}

// Set records a new level.
func (g *Gauge) Set(v int64) {
	g.Cur = v
	if v > g.Max {
		g.Max = v
	}
	g.Sum += v
	g.Samples++
}

func (g *Gauge) merge(o *Gauge) {
	// Cur of a merged gauge is meaningless; keep the max as the headline.
	if o.Max > g.Max {
		g.Max = o.Max
	}
	g.Sum += o.Sum
	g.Samples += o.Samples
}

// Dispatch describes one dispatched command for recording: identity, key
// coordinates, and the queueing timeline the drive observed.
type Dispatch struct {
	Req    uint64
	Class  Class
	Op     Op
	Arrive des.Time // when the request entered the drive queue
	Start  des.Time // when the drive dispatched it
	// Retries is how many in-drive reissues this run needed (annotation
	// only; the Retries counter is bumped as each retry happens).
	Retries int
	// Failover marks an abandoned dispatch that will be rerouted to a
	// surviving replica.
	Failover bool
	// Rebuild marks reconstruction traffic (rebuild source reads and
	// rebuild copies onto a spare).
	Rebuild bool
}

// DriveMetrics is one drive's slice of the registry. It is written by the
// single simulation goroutine that owns the drive, so updates are plain
// stores; the Registry only reads it after the simulation has finished.
type DriveMetrics struct {
	drive int

	// Service histograms hold the host-visible dispatch-to-completion time
	// of clean runs only — faulted or timed-out commands never contribute,
	// mirroring how calibration and Breakdown exclude them. Wait holds the
	// arrival-to-dispatch queue delay of the same population.
	Service [NumClasses][NumOps]Hist
	Wait    [NumClasses][NumOps]Hist

	// QueueDepth samples the foreground queue length at each scheduling
	// decision.
	QueueDepth Gauge

	// Picks counts scheduling decisions; PredictedUS sums the scheduler's
	// predicted access times, so PredictedUS/Picks is the mean predicted
	// cost per decision.
	Picks       int64
	PredictedUS int64

	// Dispatches counts completed command runs, clean or not, across all
	// classes. Faulted counts the unclean ones (so clean = Dispatches -
	// Faulted = total histogram count). Failovers counts the subset of
	// faulted runs rerouted to another replica; Retries counts in-drive
	// reissues; Transients/Timeouts count injected faults surfaced by the
	// bus.
	Dispatches int64
	Faulted    int64
	Failovers  int64
	Retries    int64
	Transients int64
	Timeouts   int64

	// SlowUS sums the extra service time a fail-slow drive added to its
	// commands; Stutters counts the commands that fell inside a stutter
	// window. Both zero for healthy drives.
	SlowUS   int64
	Stutters int64
	// Silent-corruption injections surfaced on this drive's otherwise
	// clean completions: latent sector errors, transient path corruption,
	// and torn writes.
	LatentErrors int64
	CorruptReads int64
	TornWrites   int64
	// Health samples the drive's tracked health state (core's
	// Healthy=0 / Suspect=1 / Evicted=2) at each transition.
	Health Gauge

	trace *ring
}

// ObservePick implements sched.PickObserver: every scheduling decision
// lands here when the drive's scheduler is wrapped with sched.Observe.
func (m *DriveMetrics) ObservePick(queueLen int, c sched.Choice, ok bool) {
	if !ok {
		return
	}
	m.Picks++
	m.PredictedUS += int64(math.Round(float64(c.Predicted)))
	m.QueueDepth.Set(int64(queueLen))
}

// Done records a clean command run: histograms, counters, and (when
// tracing) a trace record carrying the mechanical decomposition.
func (m *DriveMetrics) Done(d Dispatch, t disk.Timing, observed des.Time) {
	m.Dispatches++
	m.Service[d.Class][d.Op].Observe(observed - d.Start)
	m.Wait[d.Class][d.Op].Observe(d.Start - d.Arrive)
	if m.trace == nil {
		return
	}
	service := us(observed - d.Start)
	rec := TraceRecord{
		Drive:      m.drive,
		Req:        d.Req,
		Class:      d.Class.String(),
		Op:         d.Op.String(),
		ArriveUS:   us(d.Arrive),
		StartUS:    us(d.Start),
		DoneUS:     us(observed),
		QueueUS:    us(d.Start - d.Arrive),
		SeekUS:     us(t.Seek),
		RotateUS:   us(t.Rotate),
		TransferUS: us(t.Transfer),
		Retries:    d.Retries,
		Rebuild:    d.Rebuild,
	}
	rec.OverheadUS = service - rec.SeekUS - rec.RotateUS - rec.TransferUS
	m.trace.add(rec)
}

// FaultedRun records a command run abandoned after a fault (the in-drive
// retry also faulted, or the drive fail-stopped). It deliberately feeds no
// latency histogram: a timed-out command's duration measures the fault
// injector, not the drive.
func (m *DriveMetrics) FaultedRun(d Dispatch, fault disk.FaultKind, observed des.Time) {
	m.Dispatches++
	m.Faulted++
	if d.Failover {
		m.Failovers++
	}
	if m.trace == nil {
		return
	}
	m.trace.add(TraceRecord{
		Drive:    m.drive,
		Req:      d.Req,
		Class:    d.Class.String(),
		Op:       d.Op.String(),
		ArriveUS: us(d.Arrive),
		StartUS:  us(d.Start),
		DoneUS:   us(observed),
		QueueUS:  us(d.Start - d.Arrive),
		Retries:  d.Retries,
		Fault:    fault.String(),
		Failover: d.Failover,
		Rebuild:  d.Rebuild,
	})
}

// Retry counts one in-drive reissue after a fault.
func (m *DriveMetrics) Retry() { m.Retries++ }

// Fault counts one injected fault surfaced by the bus.
func (m *DriveMetrics) Fault(k disk.FaultKind) {
	switch k {
	case disk.FaultTransient:
		m.Transients++
	case disk.FaultTimeout:
		m.Timeouts++
	}
}

// Slow attributes one fail-slow-inflated command to the drive.
func (m *DriveMetrics) Slow(by des.Time, stutter bool) {
	m.SlowUS += us(by)
	if stutter {
		m.Stutters++
	}
}

// Corruption attributes one clean command's silent-corruption draws to
// the drive.
func (m *DriveMetrics) Corruption(latent, corrupt, torn bool) {
	if latent {
		m.LatentErrors++
	}
	if corrupt {
		m.CorruptReads++
	}
	if torn {
		m.TornWrites++
	}
}

func (m *DriveMetrics) merge(o *DriveMetrics) {
	for c := 0; c < int(NumClasses); c++ {
		for op := 0; op < int(NumOps); op++ {
			m.Service[c][op].merge(&o.Service[c][op])
			m.Wait[c][op].merge(&o.Wait[c][op])
		}
	}
	m.QueueDepth.merge(&o.QueueDepth)
	m.Picks += o.Picks
	m.PredictedUS += o.PredictedUS
	m.Dispatches += o.Dispatches
	m.Faulted += o.Faulted
	m.Failovers += o.Failovers
	m.Retries += o.Retries
	m.Transients += o.Transients
	m.Timeouts += o.Timeouts
	m.SlowUS += o.SlowUS
	m.Stutters += o.Stutters
	m.LatentErrors += o.LatentErrors
	m.CorruptReads += o.CorruptReads
	m.TornWrites += o.TornWrites
	m.Health.merge(&o.Health)
}

// us rounds a simulated duration to integer microseconds.
func us(t des.Time) int64 { return int64(math.Round(float64(t))) }

// TraceRecord is one per-request trace line: the request's life on one
// drive from queue entry through the mechanical phases to completion, with
// the fault-path annotations (retry / failover / rebuild) when they apply.
type TraceRecord struct {
	Label      string `json:"label,omitempty"`
	Drive      int    `json:"drive"`
	Req        uint64 `json:"req"`
	Class      string `json:"class"`
	Op         string `json:"op"`
	ArriveUS   int64  `json:"arrive_us"`
	StartUS    int64  `json:"dispatch_us"`
	DoneUS     int64  `json:"done_us"`
	QueueUS    int64  `json:"queue_us"`
	SeekUS     int64  `json:"seek_us,omitempty"`
	RotateUS   int64  `json:"rotate_us,omitempty"`
	TransferUS int64  `json:"transfer_us,omitempty"`
	OverheadUS int64  `json:"overhead_us,omitempty"`
	Retries    int    `json:"retries,omitempty"`
	Fault      string `json:"fault,omitempty"`
	Failover   bool   `json:"failover,omitempty"`
	Rebuild    bool   `json:"rebuild,omitempty"`
}

// ring is a fixed-capacity trace buffer: the newest records win, so a long
// run keeps its tail without ever allocating past construction.
type ring struct {
	buf     []TraceRecord
	next    int
	full    bool
	dropped int64
}

func newRing(cap int) *ring { return &ring{buf: make([]TraceRecord, cap)} }

func (r *ring) add(t TraceRecord) {
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// records returns the live records (order unspecified; export sorts).
func (r *ring) records() []TraceRecord {
	if r.full {
		return r.buf
	}
	return r.buf[:r.next]
}

// Recorder is one array's metrics surface: per-drive metrics plus the few
// array-level series (rebuild progress, NVRAM table occupancy). Like
// DriveMetrics it is single-goroutine on the write side.
type Recorder struct {
	label  string
	drives []DriveMetrics

	// ChunksDone and ChunksLost count rebuild reconstruction outcomes.
	ChunksDone int64
	ChunksLost int64
	// NVRAM samples the delayed-write metadata table occupancy.
	NVRAM Gauge

	// Hedge lifecycle counters (every issued hedge terminates exactly one
	// way, so HedgesIssued == HedgesWon + HedgesLost + HedgesCancelled).
	HedgesIssued    int64
	HedgesWon       int64
	HedgesLost      int64
	HedgesCancelled int64
	// Admission-control sheds and proactive health evictions.
	ShedOverload int64
	ShedDeadline int64
	Evictions    int64

	// Silent-corruption tolerance: SilentReads counts reads that returned
	// corrupt data with verification off, VerifyDetected the reads
	// verify-on-read failed over, ReadRepairs the in-place repairs those
	// detections completed. The Scrub* counters mirror the background
	// scrubber's chunk verifications, detections, repairs, and finished
	// passes.
	SilentReads    int64
	VerifyDetected int64
	ReadRepairs    int64
	ScrubVerified  int64
	ScrubCorrupt   int64
	ScrubRepaired  int64
	ScrubPasses    int64

	// Crash/power-fail tolerance: Crashes and Recoveries count array power
	// cycles; RecoveryDivergent counts the divergent copies the post-crash
	// scan condemned, RecoveryRepaired the scan repairs that completed.
	Crashes           int64
	Recoveries        int64
	RecoveryDivergent int64
	RecoveryRepaired  int64
}

// Drive returns drive i's metrics slot.
func (r *Recorder) Drive(i int) *DriveMetrics { return &r.drives[i] }

// Drives returns the number of drive slots.
func (r *Recorder) Drives() int { return len(r.drives) }

// RebuildChunkDone counts one chunk reconstructed onto a spare.
func (r *Recorder) RebuildChunkDone() { r.ChunksDone++ }

// RebuildChunkLost counts one chunk no rebuild could reconstruct.
func (r *Recorder) RebuildChunkLost() { r.ChunksLost++ }

func (r *Recorder) merge(o *Recorder) {
	for len(r.drives) < len(o.drives) {
		r.drives = append(r.drives, DriveMetrics{drive: len(r.drives)})
	}
	for i := range o.drives {
		r.drives[i].merge(&o.drives[i])
	}
	r.ChunksDone += o.ChunksDone
	r.ChunksLost += o.ChunksLost
	r.NVRAM.merge(&o.NVRAM)
	r.HedgesIssued += o.HedgesIssued
	r.HedgesWon += o.HedgesWon
	r.HedgesLost += o.HedgesLost
	r.HedgesCancelled += o.HedgesCancelled
	r.ShedOverload += o.ShedOverload
	r.ShedDeadline += o.ShedDeadline
	r.Evictions += o.Evictions
	r.SilentReads += o.SilentReads
	r.VerifyDetected += o.VerifyDetected
	r.ReadRepairs += o.ReadRepairs
	r.ScrubVerified += o.ScrubVerified
	r.ScrubCorrupt += o.ScrubCorrupt
	r.ScrubRepaired += o.ScrubRepaired
	r.ScrubPasses += o.ScrubPasses
	r.Crashes += o.Crashes
	r.Recoveries += o.Recoveries
	r.RecoveryDivergent += o.RecoveryDivergent
	r.RecoveryRepaired += o.RecoveryRepaired
}
