package core

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/sched"
)

// Whole-array power failure. The paper acknowledges delayed-mode writes out
// of NVRAM and hand-waves crash recovery onto the battery backing of that
// table; this file models the crash itself so the recovery pipeline
// (recovery.go) has something honest to recover from. A crash tears the
// in-flight bus transfer on every drive (a torn write leaves garbage under
// a completion that never arrives), abandons every queued request with
// ErrCrashed, drops all pending delayed propagation, and — depending on the
// durability mode — preserves or loses the NVRAM metadata table. Background
// machinery (rebuild, scrub) is interrupted and resumed by Recover.
//
// The model is default-off: a zero CrashModel adds no state, no events, and
// no hot-path work beyond the single a.crashed bool check in Submit/kick.

// NVRAMDurability selects what a power failure does to the delayed-write
// metadata table.
type NVRAMDurability uint8

const (
	// Volatile NVRAM loses the table with the power: every pending delayed
	// copy is lost and the replicas it would have refreshed stay divergent
	// until the recovery scan finds them.
	Volatile NVRAMDurability = iota
	// BatteryBacked NVRAM holds the table across the outage: recovery
	// adopts the surviving entries and reissues each still-owed copy as a
	// foreground write.
	BatteryBacked
)

func (d NVRAMDurability) String() string {
	if d == BatteryBacked {
		return "battery-backed"
	}
	return "volatile"
}

// DefaultRecoveryScanMBps paces the post-crash divergence scan until
// Tuning.RecoveryScanMBps changes it. The scan reads metadata (content
// versions / checksum summaries), not data, so it runs well above scrub
// rates.
const DefaultRecoveryScanMBps = 32.0

// CrashModel configures whole-array power-failure injection. The zero
// value disables the model entirely.
type CrashModel struct {
	// Enabled turns the model on: Crash/Recover become callable, the
	// integrity oracle is kept (the recovery scan needs content versions),
	// and — when At is set — a crash is scheduled at construction.
	Enabled bool
	// At, when positive, power-fails the array at that simulated instant.
	// Zero leaves crashes to explicit Crash() calls.
	At des.Time
	// RecoverAfter, when positive, schedules Recover that long after the
	// scheduled crash (the outage duration). Zero leaves recovery to an
	// explicit Recover() call.
	RecoverAfter des.Time
	// Durability selects what the crash does to the NVRAM table.
	Durability NVRAMDurability
}

// Validate checks the model. A disabled model is valid regardless of the
// other fields (they are ignored).
func (m CrashModel) Validate() error {
	if !m.Enabled {
		return nil
	}
	if m.At < 0 {
		return fmt.Errorf("core: negative crash time %v", m.At)
	}
	if m.RecoverAfter < 0 {
		return fmt.Errorf("core: negative crash recovery delay %v", m.RecoverAfter)
	}
	if m.RecoverAfter > 0 && m.At == 0 {
		return fmt.Errorf("core: CrashModel.RecoverAfter without CrashModel.At")
	}
	if m.Durability > BatteryBacked {
		return fmt.Errorf("core: unknown NVRAM durability %d", m.Durability)
	}
	return nil
}

// scheduleCrash arms the construction-time crash (and optional recovery)
// events. Prototype-mode construction advances the clock past calibration,
// so an At inside that window fires immediately rather than in the past.
func (a *Array) scheduleCrash(at, recoverAfter des.Time) {
	if now := a.sim.Now(); at < now {
		at = now
	}
	a.sim.At(at, func() {
		if a.crashed {
			return
		}
		if err := a.Crash(); err != nil {
			panic(fmt.Sprintf("core: scheduled crash failed: %v", err))
		}
		if recoverAfter > 0 {
			a.sim.At(a.sim.Now()+recoverAfter, func() {
				if !a.crashed {
					return
				}
				if err := a.Recover(); err != nil {
					panic(fmt.Sprintf("core: scheduled recovery failed: %v", err))
				}
			})
		}
	})
}

// Crashed reports whether the array is in the power-failed window between
// Crash and Recover.
func (a *Array) Crashed() bool { return a.crashed }

// Crash power-fails the whole array at the current instant:
//
//   - the command on each drive's mechanism is torn — for a write, garbage
//     lands under a completion that never arrives (the PR's torn-write
//     poison), and the oracle records it;
//   - every queued and in-flight logical request fails with ErrCrashed;
//   - all pending delayed propagation, repairs, and reconstruction copies
//     are dropped (with BatteryBacked durability the NVRAM table is
//     snapshotted first, so the still-owed propagations survive as table
//     entries);
//   - an active rebuild or scrub pass is interrupted, to be resumed by
//     Recover;
//   - until Recover, Submit rejects everything with ErrCrashed.
//
// Requires the crash model to be enabled (the recovery scan needs the
// integrity oracle that Options.Crash.Enabled keeps on).
func (a *Array) Crash() error {
	if !a.opts.Crash.Enabled {
		return fmt.Errorf("core: crash model disabled (set Options.Crash.Enabled)")
	}
	if a.crashed {
		return fmt.Errorf("core: array already crashed")
	}
	// Snapshot the NVRAM table while the delayed queues still hold it; the
	// battery keeps exactly what SnapshotNVRAM keeps (propagation entries,
	// not rebuild or repair intents).
	a.crashSnap = nil
	if a.opts.Crash.Durability == BatteryBacked {
		snap, err := a.SnapshotNVRAM()
		if err != nil {
			return err
		}
		a.crashSnap = snap
	}
	a.crashed = true
	a.recCtr.Crashes++
	if a.obsRec != nil {
		a.obsRec.Crashes++
	}
	// Interrupt background machinery before sweeping the queues so their
	// per-event guards (st.cancelled, s != a.scrub) neutralize every timer
	// and completion still in flight.
	a.crashScrubActive = a.scrub != nil && !a.scrub.done
	if a.crashScrubActive {
		a.crashScrubOpts = a.scrub.opts
	}
	a.scrub = nil
	if st := a.rebuild; st != nil {
		// Not cancelRebuild: that releases the held write gate and runs its
		// waiters, which must instead fail with the crash (crashGates).
		st.cancelled = true
		st.gateHeld = false
		a.rebuild = nil
	}
	if s := a.recScan; s != nil {
		// A crash during a still-running recovery scan abandons it; the
		// next Recover starts a fresh one.
		s.done = true
		a.recScan = nil
	}
	for _, d := range a.drives {
		a.crashDrive(d)
	}
	a.crashGates()
	return nil
}

// crashDrive tears down one drive: the bus (in-flight and TCQ-queued
// commands), the foreground queue, and the delayed queue.
func (a *Array) crashDrive(d *drive) {
	d.bus.PowerFail(func(_ bus.Command, h bus.CompletionHandler, _ uint64, inFlight bool) {
		r, ok := h.(*extentRun)
		if !ok {
			return
		}
		a.crashRun(r, inFlight)
	})
	queue := d.queue
	d.queue = nil
	for _, req := range queue {
		a.crashQueued(d, req)
	}
	// Pending delayed copies die with the power (the battery-backed table
	// was snapshotted before the sweep). Propagation copies are counted so
	// recovery can reconcile adopted versus lost.
	for _, c := range d.delayed {
		if !c.rebuild && !c.repair {
			a.crashDelayed++
		}
		a.finishCopy(d, c, false, bus.Completion{})
		a.putCopy(c)
	}
	d.delayed = nil
	d.refInFlight = false
}

// crashRun resolves an extent run caught on the bus: a write on the
// mechanism at the instant of the failure is torn (garbage under a
// completion that never arrives — the oracle poisons the target copy);
// TCQ-queued commands simply vanish.
func (a *Array) crashRun(r *extentRun, inFlight bool) {
	d := r.d
	torn := inFlight && r.op == bus.OpWrite && a.integrity
	kind, choice, dc, pr, req := r.kind, r.choice, r.dc, r.pr, r.req
	a.putRun(r)
	if kind == runDelayed {
		if torn {
			a.poisonCopy(d, dc.chunk, dc.replica)
		}
		a.finishCopy(d, dc, false, bus.Completion{})
		a.putCopy(dc)
		a.putReq(pr)
		return
	}
	a.crashTag(d, req.Tag.(*reqTag), torn, choice.Replica)
}

// crashQueued resolves one request still in a drive's foreground queue:
// it never reached the media, so it fails with ErrCrashed (once per
// logical piece — duplicate groups resolve on their first-visited member).
func (a *Array) crashQueued(d *drive, req *sched.Request) {
	tag := req.Tag.(*reqTag)
	if g := tag.group; g != nil && !g.claimed {
		// First member visited resolves the piece; the rest are removed from
		// their (still-live) queues so later drive sweeps never see them.
		g.claimed = true
		for _, m := range g.members {
			if m.req == req {
				continue
			}
			mt := m.req.Tag.(*reqTag)
			mt.offQueue = true
			removeFromQueue(m.d, m.req)
			a.putReq(mt.pr)
		}
		g.members = nil
	}
	a.crashTag(d, tag, false, 0)
}

// crashTag runs a request's crash continuation and releases it. torn
// reports a write torn on the mechanism, which poisons its target copy
// (chosen is the replica a first write was dispatched to).
func (a *Array) crashTag(d *drive, tag *reqTag, torn bool, chosen int) {
	tag.offQueue = true
	switch tag.kind {
	case tagRead:
		if tag.hc != nil {
			tag.hc.crash()
		} else {
			tag.ur.pieceFailed(ErrCrashed)
		}
	case tagFGWrite:
		if torn {
			a.poisonCopy(tag.d, tag.fg.chunk, tag.rep)
		}
		a.crashFG(tag.fg)
	case tagFirstWrite:
		if torn {
			a.poisonCopy(d, tag.p.Chunk, chosen)
		}
		tag.ur.pieceFailed(ErrCrashed)
	case tagPromote:
		if torn {
			a.poisonCopy(d, tag.dc.chunk, tag.dc.replica)
		}
		a.finishCopy(d, tag.dc, false, bus.Completion{})
		a.putCopy(tag.dc)
	case tagRef:
		d.refInFlight = false
	case tagHedge:
		tag.hedgeOf.crash()
	case tagRebuildRead, tagScrubRead, tagScrubSource, tagAdopt:
		// Dropped outright: their owners were torn down and restart from
		// scratch at recovery.
	default:
		panic("core: crash of a recycled request tag")
	}
	a.putReq(tag.pr)
}

// crashFG counts one copy of a foreground-mode write down at the crash.
// The last copy fails the piece with ErrCrashed and never commits the
// version: the write was not acknowledged, and any copies that did land
// carry uncommitted versions (harmless — divergence is version-lag below
// the committed version, never above).
func (a *Array) crashFG(f *fgWrite) {
	f.left--
	if f.left != 0 {
		return
	}
	ur := f.ur
	a.putFG(f)
	ur.pieceFailed(ErrCrashed)
}

// crashGates fails every write parked behind a chunk's write gate (the
// gate holders themselves were failed by the queue sweeps) and clears all
// gates. Chunk order, not map order, so the Done callbacks fire
// deterministically.
func (a *Array) crashGates() {
	if len(a.writeGate) == 0 {
		return
	}
	chunks := make([]int64, 0, len(a.writeGate))
	for c := range a.writeGate {
		chunks = append(chunks, c)
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i] < chunks[j] })
	for _, c := range chunks {
		for _, w := range a.writeGate[c] {
			if w.ur != nil {
				w.ur.pieceFailed(ErrCrashed)
			}
		}
		delete(a.writeGate, c)
	}
}
