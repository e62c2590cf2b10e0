package core

import (
	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sched"
)

// Hot-spare rebuild: when a drive of a mirrored configuration (Dm >= 2)
// fail-stops and a spare is available, the spare is swapped into the dead
// drive's slot and every chunk of that position is reconstructed from a
// surviving mirror. Reconstruction runs chunk-by-chunk:
//
//   - the pump paces chunk starts to Options.RebuildMBps, so rebuild
//     bandwidth — not foreground latency — is what the cap sacrifices;
//   - each chunk takes the per-chunk write gate, so reconstruction never
//     interleaves with a foreground write of the same chunk;
//   - the source read is a Background request: it yields to foreground
//     traffic on the source drive until it has waited
//     sched.BackgroundMaxWait;
//   - the Dr replica writes onto the spare ride the delayed-write queue,
//     sharing one propEntry whose completion advances the pump;
//   - a chunk with no surviving fresh source is recorded as lost and the
//     rebuild moves on — partial restoration beats none.
//
// While a chunk is still missing on the spare, reads and writes steer
// around it (drive.missing); the rebuild copies whatever the surviving
// mirror holds when it reaches the chunk, so writes accepted mid-rebuild
// are never lost.

// DefaultRebuildMBps paces a rebuild when Options.RebuildMBps is zero.
const DefaultRebuildMBps = 8.0

// DriveStatus classifies one drive slot's health.
type DriveStatus int

const (
	// DriveHealthy holds every chunk of its position.
	DriveHealthy DriveStatus = iota
	// DriveRebuilding is a swapped-in spare still being reconstructed.
	DriveRebuilding
	// DriveDegraded finished (or had cancelled) a rebuild with chunks
	// permanently lost.
	DriveDegraded
	// DriveFailed is fail-stopped (or the index is out of range).
	DriveFailed
)

func (s DriveStatus) String() string {
	switch s {
	case DriveHealthy:
		return "healthy"
	case DriveRebuilding:
		return "rebuilding"
	case DriveDegraded:
		return "degraded"
	default:
		return "failed"
	}
}

// DriveState reports the health of drive slot i.
func (a *Array) DriveState(i int) DriveStatus {
	if i < 0 || i >= len(a.drives) || a.drives[i].failed {
		return DriveFailed
	}
	if a.rebuild != nil && a.rebuild.slot == i {
		return DriveRebuilding
	}
	if len(a.drives[i].missing) > 0 {
		return DriveDegraded
	}
	return DriveHealthy
}

// Spares returns how many hot spares remain unconsumed.
func (a *Array) Spares() int { return len(a.spares) }

// RebuildProgress describes the active rebuild, if any.
type RebuildProgress struct {
	Active bool
	// Slot is the drive index being reconstructed.
	Slot int
	// Total, Done and Lost count chunks of the rebuilt position.
	Total, Done, Lost int
	// ETA estimates the remaining reconstruction time at the configured
	// bandwidth cap.
	ETA des.Time
}

// RebuildProgress returns a snapshot of the active rebuild (zero value
// when none is running).
func (a *Array) RebuildProgress() RebuildProgress {
	st := a.rebuild
	if st == nil {
		return RebuildProgress{}
	}
	remaining := st.total - st.done - st.lost
	perChunk := des.Time(float64(a.lay.StripeUnit()*disk.SectorSize) / a.opts.RebuildMBps)
	return RebuildProgress{
		Active: true, Slot: st.slot,
		Total: st.total, Done: st.done, Lost: st.lost,
		ETA: des.Time(remaining) * perChunk,
	}
}

// LostChunks returns how many chunks are permanently unreadable.
func (a *Array) LostChunks() int { return len(a.lostChunks) }

// unreadable reports that this drive holds no valid data for the chunk.
func (d *drive) unreadable(chunk int64) bool {
	return d.missing != nil && d.missing[chunk]
}

// rebuildState is one in-progress reconstruction. Exactly one runs at a
// time; further failures wait (degraded) until it finishes and another
// spare is available.
type rebuildState struct {
	slot    int
	pending []int64 // chunks of the slot's position, ascending
	next    int     // index into pending of the next chunk to start
	total   int
	done    int
	lost    int
	// activeChunk/gateHeld track write-gate ownership for cancellation;
	// activeChunk is meaningful only while gateHeld.
	activeChunk int64
	gateHeld    bool
	cancelled   bool
	// pace caps reconstruction bandwidth, charging each chunk as it
	// starts.
	pace des.Pacer
}

// maybeStartRebuild begins reconstructing the lowest-numbered failed slot
// if a spare is available, the configuration has mirror redundancy to
// rebuild from, and no rebuild is already running.
func (a *Array) maybeStartRebuild() {
	// A crashed array starts nothing; Recover re-invokes this after the
	// power comes back.
	if a.crashed || a.rebuild != nil || len(a.spares) == 0 || a.opts.Config.Dm < 2 {
		return
	}
	slot := -1
	for i, d := range a.drives {
		if d.failed {
			slot = i
			break
		}
	}
	if slot < 0 {
		return
	}
	spare := a.spares[0]
	a.spares = a.spares[1:]
	spare.id = slot
	a.drives[slot] = spare

	// Every chunk of the slot's position is missing until reconstructed.
	pending := a.slotChunkList(slot, nil)
	spare.missing = make(map[int64]bool)
	for _, c := range pending {
		spare.missing[c] = true
	}
	a.beginRebuild(slot, pending)
}

// beginRebuild starts reconstructing the pending chunks onto slot.
func (a *Array) beginRebuild(slot int, pending []int64) {
	st := &rebuildState{slot: slot, pending: pending, total: len(pending), activeChunk: -1}
	a.rebuild = st
	a.faults.RebuildsStarted++
	a.scheduleNextChunk(st)
}

// cancelRebuild abandons the active rebuild (its target drive failed).
// Chunks already reconstructed stay valid on the — now failed — spare's
// slot only as history; the remaining missing chunks die with it.
func (a *Array) cancelRebuild() {
	st := a.rebuild
	if st == nil {
		return
	}
	st.cancelled = true
	if st.gateHeld {
		st.gateHeld = false
		a.releaseWriteGate(st.activeChunk)
	}
	a.rebuild = nil
}

// scheduleNextChunk starts the next pending chunk no earlier than the
// pacing allows, or completes the rebuild.
func (a *Array) scheduleNextChunk(st *rebuildState) {
	if st.cancelled {
		return
	}
	if st.next >= len(st.pending) {
		a.finishRebuild(st)
		return
	}
	c := st.pending[st.next]
	st.next++
	now := a.sim.Now()
	if at := st.pace.Take(now, a.chunkBytes(c), a.opts.RebuildMBps); at > now {
		a.sim.At(at, func() { a.startChunk(st, c) })
		return
	}
	a.startChunk(st, c)
}

// startChunk serializes the chunk's reconstruction against foreground
// writes via the per-chunk write gate, then kicks off the source read.
func (a *Array) startChunk(st *rebuildState, c int64) {
	if st.cancelled {
		return
	}
	// Rebuild pacing yields to a saturated foreground: chunk starts wait
	// out the overload (rechecking every throttleRecheck) so reconstruction
	// bandwidth is spent only when the array has headroom.
	if a.overloaded() {
		a.sim.At(a.sim.Now()+throttleRecheck, func() { a.startChunk(st, c) })
		return
	}
	if waiting, gated := a.writeGate[c]; gated {
		a.writeGate[c] = append(waiting, gateWaiter{run: func() {
			// Fired by releaseWriteGate: in delayed mode this continuation
			// now owns the gate and must release it if the rebuild died
			// while it waited.
			if st.cancelled {
				if _, still := a.writeGate[c]; still {
					a.releaseWriteGate(c)
				}
				return
			}
			st.activeChunk, st.gateHeld = c, true
			a.readForRebuild(st, c, a.chunkPiece(c))
		}})
		return
	}
	a.writeGate[c] = nil
	st.activeChunk, st.gateHeld = c, true
	a.readForRebuild(st, c, a.chunkPiece(c))
}

// readForRebuild issues a background read of the chunk on the
// lowest-numbered surviving mirror with a fresh copy. A source that fails
// or faults out mid-read re-enters here and the next survivor takes over;
// with no survivor the chunk is lost.
func (a *Array) readForRebuild(st *rebuildState, c int64, p *layout.Piece) {
	var src *drive
	for _, id := range p.Mirrors {
		if id == st.slot {
			continue
		}
		d := a.drives[id]
		if d.failed || d.unreadable(c) {
			continue
		}
		if m := a.readMask(d, c); m != nil && !anyTrue(m) {
			continue
		}
		src = d
		break
	}
	if src == nil {
		if a.chunkRestorable(st, c, p) {
			// No readable source right now, but one is on the way back: a
			// pending propagation will refresh a stale replica, or a
			// condemned copy's repair (queued, in flight, or about to be
			// re-queued by the recovery scan) will land. Wait for it instead
			// of recording the chunk lost — the data still exists.
			a.sim.At(a.sim.Now()+throttleRecheck, func() {
				if st.cancelled {
					return
				}
				a.readForRebuild(st, c, p)
			})
			return
		}
		a.chunkLost(st, c)
		return
	}
	req := &sched.Request{
		ID:         a.nextID(),
		Arrive:     a.sim.Now(),
		Background: true,
		Replicas:   replicasOf(p),
		// Live mask: a propagation completing while this read queues can
		// change which replicas are fresh (and a verify check can condemn
		// one).
		AllowedFn: func(j int) bool {
			m := a.readMask(src, c)
			return m == nil || m[j]
		},
	}
	req.Tag = &reqTag{
		onDone: func(last bus.Completion, chosen int) {
			if st.cancelled {
				return
			}
			// A verified rebuild refuses a corrupt source: condemn the copy
			// (queueing its repair) and re-pick — the mask now excludes it.
			// Unverified, the reconstruction faithfully copies the garbage
			// and the rebuilt replicas inherit the poison.
			bad := a.integrity && a.checkPieceRead(src, p, chosen, last)
			if bad && a.opts.VerifyReads {
				a.noteDetected(src, p, chosen)
				a.readForRebuild(st, c, p)
				return
			}
			a.writeRebuildCopies(st, c, p, bad)
		},
		onFail: func() {
			if st.cancelled {
				return
			}
			a.readForRebuild(st, c, p)
		},
	}
	a.enqueue(src, req)
}

// chunkRestorable reports whether some mirror copy of the chunk is only
// temporarily unusable and will come back without the rebuild's help:
// a stale replica with its propagation still pending, or a known-corrupt
// copy whose repair has a clean source left (the repair is queued, in
// flight, or about to be re-queued by the recovery scan). Two mirrors
// condemned against each other never qualify — hasRepairSource skips
// known-bad and unreadable copies, so mutual hopelessness stays lost.
func (a *Array) chunkRestorable(st *rebuildState, c int64, p *layout.Piece) bool {
	for _, id := range p.Mirrors {
		if id == st.slot {
			continue
		}
		d := a.drives[id]
		if d.failed || d.unreadable(c) {
			continue
		}
		if cs := d.stale[c]; cs != nil && !cs.allZero() {
			return true
		}
		for j, cs := range a.copyRow(d, c) {
			if cs.bad() == badKnown && (a.repairPending(d, c, j) || a.hasRepairSource(d, c, j)) {
				return true
			}
		}
	}
	return false
}

// writeRebuildCopies queues the chunk's Dr replica writes onto the spare
// through the delayed-write machinery; the shared entry's completion
// finishes the chunk. poison marks copies reconstructed from a corrupt
// source (they land as garbage). The write gate is held for the whole
// chunk, so the committed version cannot advance under these copies.
func (a *Array) writeRebuildCopies(st *rebuildState, c int64, p *layout.Piece, poison bool) {
	spare := a.drives[st.slot]
	entry := &propEntry{onAllDone: func() {
		if st.cancelled {
			return
		}
		a.finishChunk(st, c)
	}}
	ver := a.committedVer(c)
	for j := 0; j < a.opts.Config.Dr; j++ {
		spare.delayed = append(spare.delayed, &delayedCopy{
			entry: entry, replica: j, extents: p.Replicas[j],
			chunk: c, off: p.Off, count: p.Count, rebuild: true,
			poison: poison, ver: ver,
		})
		entry.remaining++
	}
	a.kick(spare)
}

// finishChunk marks the chunk readable on the spare, releases its write
// gate (flushing writes that queued during reconstruction), and advances
// the pump.
func (a *Array) finishChunk(st *rebuildState, c int64) {
	spare := a.drives[st.slot]
	delete(spare.missing, c)
	st.done++
	if a.obsRec != nil {
		a.obsRec.RebuildChunkDone()
	}
	st.activeChunk, st.gateHeld = -1, false
	a.releaseWriteGate(c)
	a.scheduleNextChunk(st)
}

// chunkLost records a chunk with no surviving source: permanently gone.
func (a *Array) chunkLost(st *rebuildState, c int64) {
	st.lost++
	a.faults.LostChunks++
	a.lostChunks[c] = true
	if a.obsRec != nil {
		a.obsRec.RebuildChunkLost()
	}
	st.activeChunk, st.gateHeld = -1, false
	a.releaseWriteGate(c)
	a.scheduleNextChunk(st)
}

// finishRebuild retires the state and starts the next rebuild if another
// slot failed while this one ran.
func (a *Array) finishRebuild(st *rebuildState) {
	a.rebuild = nil
	a.faults.RebuildsDone++
	spare := a.drives[st.slot]
	if len(spare.missing) == 0 {
		spare.missing = nil
	}
	a.maybeStartRebuild()
}
