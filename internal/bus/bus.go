// Package bus models the host-visible interface to a drive: LBA-addressed
// commands submitted one at a time, with completion callbacks delivered
// through the simulation kernel.
//
// A Drive runs in one of two modes, mirroring the paper's prototype
// architecture (Figure 4):
//
//   - Simulator mode: command overheads are fixed and the host may query
//     exact mechanical timing. This is the paper's integrated simulator.
//   - Prototype mode: every command pays a stochastic OS + SCSI overhead
//     before and after the mechanical service, the spindle speed is offset
//     from nominal, and the host sees only noisy completion timestamps. The
//     calibration layer (package calib) must estimate rotational position
//     through this noise, exactly as the real MimdRAID driver did.
package bus

import (
	"fmt"
	"math/rand"

	"repro/internal/des"
	"repro/internal/disk"
)

// Op is a command opcode.
type Op int

const (
	OpRead Op = iota
	OpWrite
)

func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Command is one LBA-addressed transfer.
type Command struct {
	Op    Op
	LBA   int64
	Count int // sectors
}

// Completion reports a finished command. Observed is the host-visible
// completion timestamp (includes completion-side overhead and, in
// prototype mode, jitter). Mechanical timing fields are the ground truth
// the simulator knows; prototype-mode hosts must not use them for
// scheduling (the calibration layer exists to estimate them) but tests and
// accuracy reports may.
type Completion struct {
	Cmd       Command
	Submitted des.Time // when Submit was called
	Observed  des.Time // host-visible completion time

	// Fault is non-zero when the command did not transfer its data: a
	// transient medium error (full mechanical service, failed transfer) or
	// a command timeout (no mechanical service at all). The host decides
	// whether to retry, fail over to another copy, or give up.
	Fault disk.FaultKind

	// Latent, Corrupt, and Torn mark silent corruption injected on an
	// otherwise successful completion — OK() stays true and the host's
	// driver sees nothing wrong; only an end-to-end integrity check above
	// the bus can notice. Latent: the media under a read has rotted and the
	// returned data is garbage (persists until rewritten). Corrupt: the
	// transfer path garbled this read once (the media is fine). Torn: a
	// write reported success but the copy on the platter is garbage.
	Latent  bool
	Corrupt bool
	Torn    bool

	// SlowBy is the extra service time a fail-slow drive added to this
	// command (zero on healthy drives); Stutter reports that a stutter
	// window — rather than only the drive's persistent inflation —
	// contributed. Upper layers use these to attribute tail latency to the
	// drive rather than to queueing.
	SlowBy  des.Time
	Stutter bool

	// Ground truth, for validation only in prototype mode.
	MechStart des.Time // when the mechanism began positioning
	MechDone  des.Time // when the last sector left the media
	Timing    disk.Timing
	ArmAfter  disk.State
}

// OK reports a clean, fault-free completion.
func (c Completion) OK() bool { return c.Fault == disk.FaultNone }

// ServiceTime is the host-observable service duration.
func (c Completion) ServiceTime() des.Time { return c.Observed - c.Submitted }

// NoiseModel parameterizes prototype-mode command overheads. Pre covers
// host submit path + command decode (before the mechanism moves); Post
// covers completion interrupt + status delivery. Jitter values are means of
// exponential components.
type NoiseModel struct {
	PreBase    des.Time
	PreJitter  des.Time
	PostBase   des.Time
	PostJitter des.Time
}

// Rare scheduling glitches: with probability outlierProb a command's
// overhead gains an exponential component of mean outlierMean.
const (
	outlierProb = 0.001
	outlierMean = 1500 * des.Microsecond
)

// DefaultNoise returns overheads representative of the paper's Windows
// 2000 + Adaptec 39160 platform: a couple hundred microseconds of fixed
// path length, tens of microseconds of jitter, and rare millisecond-scale
// outliers.
func DefaultNoise() NoiseModel {
	return NoiseModel{
		PreBase:    120 * des.Microsecond,
		PreJitter:  15 * des.Microsecond,
		PostBase:   90 * des.Microsecond,
		PostJitter: 20 * des.Microsecond,
	}
}

func (n NoiseModel) draw(rng *rand.Rand, base, jitter des.Time) des.Time {
	d := base + des.Time(rng.ExpFloat64()*float64(jitter))
	if rng.Float64() < outlierProb {
		d += des.Time(rng.ExpFloat64() * float64(outlierMean))
	}
	return d
}

// Drive is one disk behind the bus. By default it services a single
// command at a time — queueing and scheduling are the host's job (the
// paper's drive queues live in the array layer). With EnableTCQ it
// accepts up to a depth of tagged commands and schedules them internally
// by shortest access time, the "intelligent internal scheduling" of
// firmware like the HP C2490A that the paper's related-work section
// discusses: the drive knows its own mechanics exactly, but it cannot
// choose among inter-disk or rotational replicas — that knowledge lives
// in the host.
type Drive struct {
	Name string

	sim   *des.Sim
	dsk   *disk.Disk
	noise *NoiseModel // nil in simulator mode
	rng   *rand.Rand

	// CmdOverhead is the fixed controller cost per command in simulator
	// mode (prototype mode replaces it with the noise model).
	CmdOverhead des.Time
	// XferRate is the bus transfer rate in bytes per microsecond
	// (160 MB/s ≈ 167.8 B/us).
	XferRate float64

	arm  disk.State
	busy bool

	// faults injects per-command transient errors and timeouts; nil (the
	// default) means the drive never misbehaves.
	faults *disk.FaultInjector
	// slow inflates mechanical service times (fail-slow drive); nil (the
	// default) means the drive runs at full speed.
	slow *disk.SlowState
	// corrupt injects silent corruption (latent errors, path corruption,
	// torn writes); nil (the default) means data is always faithful.
	corrupt *disk.CorruptionInjector

	// Tagged command queueing.
	tcqDepth int
	tcq      []tcqEntry

	// freePending recycles completion-event carriers; inflight is the
	// carrier of the command currently on the mechanism (nil when idle),
	// kept so PowerFail can tear it.
	freePending *pending
	inflight    *pending

	// Stats
	Commands int64
	BusyTime des.Time
}

type tcqEntry struct {
	cmd   Command
	h     CompletionHandler
	token uint64
	// tgt is the command's prepared access target: the firmware re-scores
	// every tagged command at every pick, so the LBA mapping and geometry
	// are resolved once, on entry to the queue.
	tgt disk.Target
}

// CompletionHandler receives completions without a per-command closure: an
// implementation is a long-lived (typically pooled) request context, and
// the token — echoed back verbatim — lets one handler serve many
// outstanding commands. This is the allocation-free submission form; the
// closure-based Submit wraps it.
type CompletionHandler interface {
	OnCompletion(token uint64, comp Completion)
}

// funcHandler adapts a closure to CompletionHandler for the compat Submit
// path (costs an interface-boxing allocation per call; hot paths use
// SubmitHandled directly).
type funcHandler struct{ fn func(Completion) }

func (h funcHandler) OnCompletion(_ uint64, c Completion) { h.fn(c) }

// pending is a pooled in-flight completion event: one per command, recycled
// through the drive's free list the moment it fires, so steady-state
// submission schedules zero allocations.
type pending struct {
	d     *Drive
	h     CompletionHandler
	token uint64
	comp  Completion
	// dead marks a completion event orphaned by a power failure: the DES
	// heap still holds it, so firePending recycles the carrier without
	// touching the drive or delivering anything.
	dead bool
	next *pending
}

func (d *Drive) getPending() *pending {
	p := d.freePending
	if p == nil {
		return &pending{d: d}
	}
	d.freePending = p.next
	p.next = nil
	return p
}

// firePending is the single long-lived event function for every drive
// completion (scheduled with des.Sim.AtArg). Order matters and mirrors the
// original closure: release the mechanism, account busy time, start the
// next tagged command, then deliver the completion — so the handler
// observes the drive already advanced, exactly as before.
func firePending(a any) {
	p := a.(*pending)
	d := p.d
	if p.dead {
		p.dead = false
		p.h = nil
		p.comp = Completion{}
		p.next = d.freePending
		d.freePending = p
		return
	}
	comp := p.comp
	h, token := p.h, p.token
	d.inflight = nil
	d.arm = comp.ArmAfter
	d.busy = false
	d.BusyTime += comp.Observed - comp.Submitted
	if len(d.tcq) > 0 {
		next := d.pickTCQ()
		d.start(next.cmd, next.h, next.token)
	}
	p.h = nil
	p.comp = Completion{}
	p.next = d.freePending
	d.freePending = p
	h.OnCompletion(token, comp)
}

const defaultXferRate = 160e6 / 1e6 // 160 MB/s in bytes per microsecond

// NewSim returns a drive in simulator mode.
func NewSim(sim *des.Sim, dsk *disk.Disk) *Drive {
	return &Drive{
		Name:        dsk.Name,
		sim:         sim,
		dsk:         dsk,
		CmdOverhead: 150 * des.Microsecond,
		XferRate:    defaultXferRate,
	}
}

// NewPrototype returns a drive in prototype mode with the given noise
// model and seed. Callers typically also build the disk with a nonzero
// RSkew and random Phase so that rotation must genuinely be estimated.
func NewPrototype(sim *des.Sim, dsk *disk.Disk, noise NoiseModel, seed int64) *Drive {
	return &Drive{
		Name:     dsk.Name,
		sim:      sim,
		dsk:      dsk,
		noise:    &noise,
		rng:      rand.New(rand.NewSource(seed)),
		XferRate: defaultXferRate,
	}
}

// Geometry exposes the drive's layout. The real prototype obtained this via
// Worthington-style extraction (see calib.ExtractGeometry, which recovers
// it from timing probes); the array layer consumes it directly.
func (d *Drive) Geometry() *disk.Geometry { return d.dsk.Geom }

// ArmState returns the last known arm position. The host can track this in
// both modes because it chooses every target; rotational position is what
// prototype mode hides.
func (d *Drive) ArmState() disk.State { return d.arm }

// Busy reports whether a command is in flight.
func (d *Drive) Busy() bool { return d.busy }

// SetFaults attaches a fault injector (nil disables injection). Attach
// before submitting commands so the draw sequence is reproducible.
func (d *Drive) SetFaults(fi *disk.FaultInjector) { d.faults = fi }

// SetSlow attaches a fail-slow state (nil keeps the drive at full speed).
// Attach before submitting commands so the stutter stream is reproducible.
func (d *Drive) SetSlow(s *disk.SlowState) { d.slow = s }

// SetCorruption attaches a silent-corruption injector (nil keeps data
// faithful). Attach before submitting commands so the draw sequence is
// reproducible.
func (d *Drive) SetCorruption(ci *disk.CorruptionInjector) { d.corrupt = ci }

// EnableTCQ turns on tagged command queueing with the given depth.
func (d *Drive) EnableTCQ(depth int) {
	if depth < 1 {
		panic("bus: TCQ depth must be at least 1")
	}
	d.tcqDepth = depth
}

// Free reports how many more commands the drive accepts right now: the
// remaining tag slots under TCQ, or one-if-idle without it.
func (d *Drive) Free() int {
	if d.tcqDepth == 0 {
		if d.busy {
			return 0
		}
		return 1
	}
	used := len(d.tcq)
	if d.busy {
		used++
	}
	if used >= d.tcqDepth {
		return 0
	}
	return d.tcqDepth - used
}

// Idle reports that nothing is in flight or queued inside the drive.
func (d *Drive) Idle() bool { return !d.busy && len(d.tcq) == 0 }

// pickTCQ removes and returns the queued command with the shortest access
// time from the current arm state — the drive's firmware scheduler, which
// has perfect knowledge of its own mechanics.
func (d *Drive) pickTCQ() tcqEntry {
	best, bestT := 0, des.Time(0)
	now := d.sim.Now()
	for i := range d.tcq {
		e := &d.tcq[i]
		t, _ := d.dsk.AccessPrepared(d.arm, &e.tgt, e.cmd.Op == OpWrite, now)
		if i == 0 || t < bestT {
			best, bestT = i, t
		}
	}
	e := d.tcq[best]
	d.tcq = append(d.tcq[:best], d.tcq[best+1:]...)
	return e
}

// targetOf prepares the physical run a command starts at.
func targetOf(dsk *disk.Disk, cmd Command) disk.Target {
	p, err := dsk.Geom.LBAToPhys(cmd.LBA)
	if err != nil {
		panic(err)
	}
	t, err := dsk.Prepare(disk.Request{Start: p, Count: cmd.Count})
	if err != nil {
		panic(err)
	}
	return t
}

// Submit starts a command. Without TCQ the drive must be idle — the host
// owns queueing. With TCQ, commands beyond the one in flight are accepted
// into the drive's internal queue (up to the tag depth) and scheduled by
// the firmware. done is invoked through the simulator at the
// host-observed completion time.
func (d *Drive) Submit(cmd Command, done func(Completion)) {
	d.SubmitHandled(cmd, funcHandler{done}, 0)
}

// SubmitHandled is Submit with a pre-bound handler and context token in
// place of a closure: the hot-path form, which allocates nothing per
// command. Semantics are otherwise identical to Submit.
func (d *Drive) SubmitHandled(cmd Command, h CompletionHandler, token uint64) {
	if cmd.Count <= 0 {
		panic(fmt.Sprintf("bus: command with count %d", cmd.Count))
	}
	if d.busy {
		if d.Free() == 0 {
			panic(fmt.Sprintf("bus: Submit on busy drive %s with no free tags", d.Name))
		}
		d.tcq = append(d.tcq, tcqEntry{cmd: cmd, h: h, token: token, tgt: targetOf(d.dsk, cmd)})
		return
	}
	d.start(cmd, h, token)
}

// start runs one command on the idle mechanism.
func (d *Drive) start(cmd Command, h CompletionHandler, token uint64) {
	d.busy = true
	d.Commands++
	now := d.sim.Now()

	var fault disk.FaultKind
	if d.faults != nil {
		fault = d.faults.Draw()
	}
	// The corruption stream draws once per command unconditionally, so
	// which commands corrupt is independent of which ones fault; a faulted
	// command transfers nothing and its draw is discarded.
	var latent, corrupt, torn bool
	if d.corrupt != nil {
		latent, corrupt, torn = d.corrupt.Draw(cmd.Op == OpWrite)
		if fault != disk.FaultNone {
			latent, corrupt, torn = false, false, false
		}
	}
	if fault == disk.FaultTimeout {
		// The command dies inside the drive: no mechanical service, no arm
		// movement. The host learns of the loss only when its command timer
		// expires, which is when the drive becomes usable again (the real
		// recovery would be an abort/reset cycle).
		observed := now + d.faults.Model().Timeout()
		p := d.getPending()
		p.h, p.token = h, token
		// ArmAfter = the unmoved arm: firePending's unconditional arm update
		// is a no-op here, as the mechanism never serviced anything.
		p.comp = Completion{Cmd: cmd, Submitted: now, Observed: observed, Fault: fault, ArmAfter: d.arm}
		d.inflight = p
		d.sim.AtArg(observed, firePending, p)
		return
	}

	var pre, post des.Time
	if d.noise != nil {
		pre = d.noise.draw(d.rng, d.noise.PreBase, d.noise.PreJitter)
		post = d.noise.draw(d.rng, d.noise.PostBase, d.noise.PostJitter)
	} else {
		pre = d.CmdOverhead / 2
		post = d.CmdOverhead / 2
	}
	// Bus transfer overlaps with media transfer on reads of more than one
	// sector; model it as an additive tail for the final sector's worth.
	xfer := des.Time(float64(disk.SectorSize) / d.XferRate)

	mechStart := now + pre
	tm, err := d.dsk.ServiceLBA(d.arm, cmd.LBA, cmd.Count, cmd.Op == OpWrite, mechStart)
	if err != nil {
		panic(fmt.Sprintf("bus: %s: %v", d.Name, err))
	}
	// A fail-slow drive stretches the mechanical service (internal retries,
	// re-reads, firmware stalls); the host sees only the later completion.
	var slowBy des.Time
	var stutter bool
	if d.slow != nil {
		slowBy, stutter = d.slow.Inflate(mechStart, tm.Done-mechStart)
	}
	observed := tm.Done + slowBy + xfer + post
	p := d.getPending()
	p.h, p.token = h, token
	p.comp = Completion{
		Cmd:       cmd,
		Submitted: now,
		Observed:  observed,
		Fault:     fault, // FaultNone or FaultTransient (full service, bad transfer)
		Latent:    latent,
		Corrupt:   corrupt,
		Torn:      torn,
		SlowBy:    slowBy,
		Stutter:   stutter,
		MechStart: mechStart,
		MechDone:  tm.Done,
		Timing:    tm,
		ArmAfter:  tm.End,
	}
	d.inflight = p
	d.sim.AtArg(observed, firePending, p)
}

// PowerFail models an instantaneous power loss: the command on the
// mechanism is abandoned mid-transfer (a write in flight leaves garbage on
// the platter — the torn-write outcome) and the drive's internal tag queue
// is dropped. visit is called for the in-flight command first (inFlight
// true), then for each queued tagged command in queue order (inFlight
// false), so the host can resolve its own bookkeeping for every command
// the drive will never complete. The already-scheduled completion event is
// orphaned, not delivered. After PowerFail the drive is idle and accepts
// commands again as soon as the host chooses to restart it.
func (d *Drive) PowerFail(visit func(cmd Command, h CompletionHandler, token uint64, inFlight bool)) {
	if p := d.inflight; p != nil {
		p.dead = true
		d.inflight = nil
		d.busy = false
		// The mechanism stops wherever the interrupted service would have
		// left it — deterministic, and harmless to the recovery model.
		d.arm = p.comp.ArmAfter
		visit(p.comp.Cmd, p.h, p.token, true)
	}
	for _, e := range d.tcq {
		visit(e.cmd, e.h, e.token, false)
	}
	d.tcq = d.tcq[:0]
}
