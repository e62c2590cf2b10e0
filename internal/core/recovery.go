package core

import (
	"fmt"

	"repro/internal/des"
)

// Crash recovery. Restart after a power failure has three jobs, in order:
// adopt whatever the NVRAM battery preserved (each surviving table entry is
// reissued as a foreground write, exactly the prototype's recovery), resume
// the background machinery the crash interrupted (rebuild from the
// missing-chunk set, scrub from a fresh pass), and find the divergence the
// crash created — replicas whose delayed propagation was lost, copies torn
// on the mechanism — with a paced scan over the integrity oracle's content
// versions. The scan models a metadata walk (per-chunk checksum/version
// summaries), not a data scrub: it issues no reads of its own, only the
// in-place repairs of what it condemns, which ride the same Background-
// paced delayed-write machinery as rebuild and scrub repairs.
//
// The recovery invariants, which FuzzRecoveryScan exercises:
//
//   - no silent loss: every replica whose content diverges from its
//     chunk's committed version is condemned by the scan (or was already
//     condemned and gets its lost repair re-queued) — a divergent chunk is
//     never reported clean;
//   - battery-backed NVRAM within its horizon loses nothing: every pending
//     propagation is adopted and the array converges to zero divergent
//     copies without scan repairs;
//   - acknowledged data is never rolled back: adopted writes and repairs
//     only move content versions forward.

// RecoveryCounters reports crash/recovery activity, cumulative across
// crash cycles. DivergentFound == RepairsQueued + Unrepairable, and every
// queued repair ends in Repaired or RepairsDropped.
type RecoveryCounters struct {
	// Crashes and Recoveries count Crash()/Recover() transitions.
	Crashes    int64
	Recoveries int64
	// LostDelayed counts pending propagation copies the crash destroyed
	// (volatile NVRAM, or a drained battery); Adopted counts the ones the
	// battery preserved and recovery reissued.
	LostDelayed int64
	Adopted     int64
	// Scanned counts chunk copies the recovery scan examined.
	Scanned int64
	// DivergentFound counts copies the scan condemned (version lag or
	// poison), including pre-crash condemnations whose queued repair the
	// crash destroyed.
	DivergentFound int64
	// RepairsQueued/Repaired/RepairsDropped/Unrepairable track the scan's
	// in-place repairs, exactly as ScrubCounters tracks the scrubber's.
	RepairsQueued  int64
	Repaired       int64
	RepairsDropped int64
	Unrepairable   int64
	// RecoveryTime accumulates the span from each Recover() to its scan's
	// completion.
	RecoveryTime des.Time
}

// Recovery returns a snapshot of the crash/recovery counters.
func (a *Array) Recovery() RecoveryCounters { return a.recCtr }

// Recover restores a crashed array: power returns, NVRAM is adopted if the
// battery held, interrupted rebuild/scrub resume, and the recovery scan
// starts. Submissions are accepted again from this instant (concurrently
// with the scan — recovery is online, not offline).
func (a *Array) Recover() error {
	if !a.crashed {
		return fmt.Errorf("core: Recover on an array that is not crashed")
	}
	a.crashed = false
	a.recCtr.Recoveries++
	if a.obsRec != nil {
		a.obsRec.Recoveries++
	}
	now := a.sim.Now()
	// NVRAM adoption: within the battery horizon every surviving table
	// entry is reissued as a foreground write (AdoptNVRAM); a drained
	// battery or volatile NVRAM loses the whole table.
	adopted := 0
	if snap := a.crashSnap; snap != nil {
		horizon := a.opts.Crash.BatteryHorizon
		if horizon == 0 || now <= a.crashAt+horizon {
			n, err := a.AdoptNVRAM(snap)
			adopted = n
			if err != nil {
				return err
			}
		}
	}
	a.crashSnap = nil
	a.recCtr.Adopted += int64(adopted)
	a.recCtr.LostDelayed += a.crashDelayed - int64(adopted)
	a.crashDelayed = 0
	// Resume an interrupted rebuild from the spare's missing-chunk set,
	// then let any drive that failed during the outage claim a spare.
	a.resumeRebuild()
	a.maybeStartRebuild()
	// An interrupted scrub pass restarts from scratch: the crash loses the
	// cursor, and a fresh pass re-covers what the old one had verified.
	if a.crashScrubActive {
		a.crashScrubActive = false
		if err := a.StartScrub(a.crashScrubOpts); err != nil {
			return err
		}
	}
	a.startRecoveryScan()
	return nil
}

// resumeRebuild restarts reconstruction of a drive the crash caught
// mid-rebuild: its unreconstructed chunks are still marked missing, and
// chunks already recorded lost stay lost. Chunk enumeration is arithmetic
// (slot position stepping by Positions()), never map order, so resumed
// rebuilds are deterministic.
func (a *Array) resumeRebuild() {
	if a.rebuild != nil {
		return
	}
	for slot, d := range a.drives {
		if d.failed || len(d.missing) == 0 {
			continue
		}
		pending := a.slotChunkList(slot, func(c int64) bool { return d.missing[c] && !a.lostChunks[c] })
		if len(pending) == 0 {
			continue // degraded for good: everything missing is lost
		}
		a.beginRebuild(slot, pending)
		return
	}
}

// recoveryScanBatch is how many chunk copies one scan event examines: the
// walk is pure metadata (no I/O per copy), so batching keeps the event
// count proportional to volume size over batch, not volume size.
const recoveryScanBatch = 32

// recoveryScan is one post-crash divergence walk over every (slot, chunk,
// replica) on the scrubber's copyWalk.
type recoveryScan struct {
	walk    copyWalk
	done    bool
	started des.Time
	// pace charges each copy as it is visited, recoveryScanBatch per
	// event, at the array's current Crash.ScanMBps.
	pace des.Pacer
}

// startRecoveryScan begins the divergence walk (always — both durability
// modes scan; battery-backed recovery normally finds nothing, which is the
// reconciliation the experiment asserts).
func (a *Array) startRecoveryScan() {
	s := &recoveryScan{
		walk:    copyWalk{cur: make([]scrubCursor, len(a.drives))},
		started: a.sim.Now(),
	}
	a.recScan = s
	a.recScanNext(s)
}

func (a *Array) recScanNext(s *recoveryScan) {
	a.sim.At(s.pace.Ready(a.sim.Now()), func() { a.recScanTick(s) })
}

func (a *Array) recScanTick(s *recoveryScan) {
	if s.done || s != a.recScan || a.crashed {
		return
	}
	for i := 0; i < recoveryScanBatch; i++ {
		if !a.recScanStep(s) {
			s.done = true
			a.recCtr.RecoveryTime += a.sim.Now() - s.started
			return
		}
	}
	a.recScanNext(s)
}

// recScanStep examines one chunk copy; false when every cursor is
// exhausted.
func (a *Array) recScanStep(s *recoveryScan) bool {
	slot, chunk, rep, ok := a.walkNext(&s.walk)
	if !ok {
		return false
	}
	// Every tick fires at the pacer's ready instant, so each Take books
	// its copy directly behind the previous one.
	s.pace.Take(a.sim.Now(), a.chunkBytes(chunk), a.opts.Crash.ScanMBps)
	d := a.drives[slot]
	if d.failed || d.unreadable(chunk) {
		return true // gone or awaiting rebuild; nothing to reconcile here
	}
	a.recCtr.Scanned++
	if a.condemnWrong(d, chunk, rep, originRecovery) {
		a.recCtr.DivergentFound++
		if a.obsRec != nil {
			a.obsRec.RecoveryDivergent++
		}
		return true
	}
	// A copy condemned before the crash lost its queued repair with the
	// power: re-queue it, or it would wait for a verified read to stumble
	// over it again.
	if a.copyAt(d, chunk, rep).bad() == badKnown && !a.repairPending(d, chunk, rep) {
		a.recCtr.DivergentFound++
		if a.obsRec != nil {
			a.obsRec.RecoveryDivergent++
		}
		a.queueRepair(d, chunk, rep, originRecovery)
	}
	return true
}

// repairPending reports whether an in-place repair of (d, chunk, replica)
// is already queued in the drive's delayed queue.
func (a *Array) repairPending(d *drive, chunk int64, replica int) bool {
	for _, c := range d.delayed {
		if c.repair && c.chunk == chunk && c.replica == replica {
			return true
		}
	}
	return false
}

// RecoveryScanActive reports whether a post-crash divergence scan is still
// running.
func (a *Array) RecoveryScanActive() bool {
	return a.recScan != nil && !a.recScan.done
}
