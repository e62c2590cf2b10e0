package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
)

// freshness is one copy's entry in its drive's freshness table, which is
// indexed like the oracle's (copyIndex: row = chunk / Positions(), Dr
// entries per row). The low 14 bits count the propagations still owed to
// the copy; the row's first entry also carries the row's marks: missing
// (the drive holds no data for the chunk — a swapped-in spare before its
// rebuild reaches it) and lost (no rebuild could reconstruct it, so it
// stays missing). The zero value is a held copy with nothing pending.
type freshness uint16

const (
	rowMissing freshness = 1 << 15
	rowLost    freshness = 1 << 14
	pendingMax           = int(rowLost - 1)
)

func (f freshness) pending() int { return int(f & freshness(pendingMax)) }

// freshAt returns one copy's freshness entry; zero while the drive's table
// is unallocated. Replica 0's entry carries the row marks.
func (a *Array) freshAt(d *drive, chunk int64, replica int) freshness {
	if d.fresh == nil {
		return 0
	}
	return d.fresh[a.copyIndex(d, chunk)+int64(replica)]
}

// freshOf returns one copy's freshness entry for update, allocating the
// drive's table at its first mark.
func (a *Array) freshOf(d *drive, chunk int64, replica int) *freshness {
	if d.fresh == nil {
		d.fresh = make([]freshness, a.tableLen(d))
	}
	return &d.fresh[a.copyIndex(d, chunk)+int64(replica)]
}

func (a *Array) markStale(d *drive, chunk int64, replica int) {
	f := a.freshOf(d, chunk, replica)
	if f.pending() == pendingMax {
		panic("core: stale count overflow")
	}
	*f++
}

func (a *Array) clearStale(d *drive, chunk int64, replica int) {
	f := a.freshOf(d, chunk, replica)
	if f.pending() == 0 {
		panic("core: negative stale count")
	}
	*f--
}

// holds reports whether the drive is alive and holds data for the chunk:
// reads, writes, propagation and repair all steer around a drive that
// does not.
func (a *Array) holds(d *drive, chunk int64) bool {
	return !d.failed && (d.missingRows == 0 || a.freshAt(d, chunk, 0)&rowMissing == 0)
}

// usable reports whether a held copy may serve a read or a repair source:
// no propagation is pending to it and no verify check condemned it.
func (a *Array) usable(d *drive, chunk int64, replica int) bool {
	if d.fresh == nil && d.integ == nil {
		return true
	}
	return d.usableAt(a.copyIndex(d, chunk) + int64(replica))
}

// usableAt is usable for the copy at index i of the drive's tables.
func (d *drive) usableAt(i int64) bool {
	return (d.fresh == nil || d.fresh[i].pending() == 0) && (d.integ == nil || d.integ[i].bad() != badKnown)
}

// tainted reports whether some copy of the chunk on the drive is not
// usable.
func (a *Array) tainted(d *drive, chunk int64) bool {
	if d.fresh == nil && d.integ == nil {
		return false
	}
	i := a.copyIndex(d, chunk)
	for j := i; j < i+int64(a.opts.Config.Dr); j++ {
		if !d.usableAt(j) {
			return true
		}
	}
	return false
}

// usableMask writes usable for each replica of the chunk on the drive into
// buf, grown when Dr exceeds its capacity, and returns it; nil when the
// chunk is not tainted. A caller whose mask outlives the call passes a
// buffer of its own.
func (a *Array) usableMask(d *drive, chunk int64, buf []bool) []bool {
	if !a.tainted(d, chunk) {
		return nil
	}
	dr := a.opts.Config.Dr
	if cap(buf) < dr {
		buf = make([]bool, dr)
	}
	buf = buf[:dr]
	i := a.copyIndex(d, chunk)
	for j := range buf {
		buf[j] = d.usableAt(i + int64(j))
	}
	return buf
}

// propEntry is one NVRAM metadata-table entry: a completed first write
// whose remaining copies are still propagating. Only the location of the
// first write needs to persist (Section 3.4), so entries are tiny.
type propEntry struct {
	remaining int
	// tracked entries occupy NVRAM table space; rebuild reconstruction
	// entries do not (their state is recomputable from the chunk list).
	tracked bool
	// onAllDone fires when the last copy resolves (rebuild uses it to
	// advance to the next chunk).
	onAllDone func()

	free bool       // on the free list (see pool.go)
	next *propEntry //
}

// delayedCopy is one pending replica propagation on one drive.
type delayedCopy struct {
	entry   *propEntry
	replica int
	extents []disk.Extent
	chunk   int64
	off     int64
	count   int
	// rebuild marks reconstruction writes onto a spare: they carry no
	// staleness marks (the chunk is missing outright, a stronger state the
	// row's missing mark records).
	rebuild bool
	// repair marks an in-place rewrite of a detected-corrupt copy (queued
	// by verify-on-read, the scrubber, or the recovery scan — origin tells
	// them apart for counting). Repairs carry no staleness marks and no
	// NVRAM slot: a crash just loses the intent and the copy is re-detected
	// later.
	repair bool
	origin repairOrigin
	// poison marks a copy whose write content is garbage (an unverified
	// rebuild faithfully copying a corrupt source): landing it poisons the
	// destination instead of refreshing it.
	poison bool
	// ver is the content version the copy carries (0 when the integrity
	// oracle is off).
	ver uint64
	// tgt is the prepared target of extents[0], filled by the first
	// dispatchDelayed window scan that scores the copy (it is re-scored at
	// every scan until it is chosen).
	tgt disk.Target
	// own backs extents for propagation copies, which outlive the write
	// request whose arena they were resolved into; it stays with the copy
	// across getCopy/putCopy. Rebuild and repair copies point extents at
	// slices they do not own and leave it empty.
	own []disk.Extent

	free bool         // on the free list (see pool.go)
	next *delayedCopy //
}

// gateWaiter is one deferred write parked behind a chunk's write gate. ur
// is non-nil for user writes, so a crash can fail the waiter with
// ErrCrashed instead of running it; rebuild's chunk-start waiters leave it
// nil (the crash teardown cancels the rebuild separately).
type gateWaiter struct {
	run func()
	ur  *userRequest
}

// submitWrite routes one write piece. In foreground mode every copy is a
// foreground request and the write completes when all are done (Eq. 7's
// worst case). In delayed mode the first copy is scheduled like a read
// (duplicated across mirrors, any replica) and the rest are set aside in
// per-drive delayed queues.
func (a *Array) submitWrite(ur *userRequest, p *layout.Piece) {
	// One first copy per chunk at a time (see Array.writeGate). In
	// foreground mode only a rebuild ever holds the gate (reconstruction
	// must not interleave with a write of the same chunk); foreground
	// writes queue behind it but never acquire it themselves.
	if waiting, gated := a.writeGate[p.Chunk]; gated {
		a.writeGate[p.Chunk] = append(waiting, gateWaiter{
			run: func() { a.submitWriteGated(ur, p) },
			ur:  ur,
		})
		return
	}
	if !a.opts.ForegroundWrites {
		a.writeGate[p.Chunk] = nil
	}
	a.submitWriteGated(ur, p)
}

// releaseWriteGate runs the next deferred write of the chunk, or closes
// the gate.
func (a *Array) releaseWriteGate(chunk int64) {
	waiting, gated := a.writeGate[chunk]
	if !gated {
		panic("core: releasing an open write gate")
	}
	if a.opts.ForegroundWrites {
		// Only rebuild holds gates in this mode and foreground writes do
		// not re-acquire, so flush every waiter at once.
		delete(a.writeGate, chunk)
		for _, w := range waiting {
			w.run()
		}
		return
	}
	if len(waiting) == 0 {
		delete(a.writeGate, chunk)
		return
	}
	next := waiting[0]
	a.writeGate[chunk] = waiting[1:]
	next.run()
}

func (a *Array) submitWriteGated(ur *userRequest, p *layout.Piece) {
	live := p.Mirrors[:0:0]
	for _, id := range p.Mirrors {
		d := a.drives[id]
		// A rebuilding spare takes no writes for chunks it has not
		// reconstructed: a partial write into a missing chunk would leave
		// it half-built. The reconstruction copies the surviving mirror —
		// including this write — when it reaches the chunk.
		if a.holds(d, p.Chunk) {
			live = append(live, id)
		}
	}
	if len(live) == 0 {
		// No surviving copy can take the data.
		if _, gated := a.writeGate[p.Chunk]; gated && !a.opts.ForegroundWrites {
			a.releaseWriteGate(p.Chunk)
		}
		ur.pieceFailed(fmt.Errorf("%w: write of chunk %d", ErrDataLost, p.Chunk))
		return
	}
	if a.opts.ForegroundWrites {
		fg := a.getFG()
		if a.integrity {
			fg.ver = a.nextVersion()
		}
		fg.ur = ur
		fg.chunk = p.Chunk
		fg.covers = a.coversChunk(p.Chunk, p.Off, p.Count)
		fg.left = len(live) * a.opts.Config.Dr
		for _, id := range live {
			d := a.drives[id]
			for j := 0; j < a.opts.Config.Dr; j++ {
				pr := a.getReq()
				req := &pr.req
				req.ID = a.nextID()
				req.Write = true
				req.Arrive = a.sim.Now()
				req.Replicas = fillReplicas1(pr, p.Replicas[j])
				pr.tag.kind = tagFGWrite
				pr.tag.d = d
				pr.tag.rep = j
				pr.tag.fg = fg
				a.enqueue(d, req)
			}
		}
		return
	}

	// Delayed mode: first write duplicated across mirror disks; the
	// scheduler on whichever drive claims it picks the cheapest replica.
	var g *dupGroup
	if len(live) > 1 {
		g = newDupGroup()
	}
	for _, id := range live {
		d := a.drives[id]
		pr := a.getReq()
		req := &pr.req
		req.ID = a.nextID()
		req.Write = true
		req.Arrive = a.sim.Now()
		req.Replicas = fillReplicas(pr, p)
		// Evaluated live at scheduling time (see pooledReq.allowed).
		req.AllowedFn = pr.allowedFn
		pr.tag.kind = tagFirstWrite
		pr.tag.group = g
		pr.tag.d = d
		pr.tag.ur = ur
		pr.tag.p = p
		if g != nil {
			g.members = append(g.members, dupMember{d, req})
		} else {
			a.enqueue(d, req)
		}
	}
	if g != nil {
		for _, m := range g.members {
			m.d.queue = append(m.d.queue, m.req)
		}
		for _, m := range g.members {
			if g.claimed {
				break
			}
			a.kick(m.d)
		}
	}
}

// registerPropagation records the copies still owed after the first write
// of a piece landed on drive first at replica chosen, coalescing against
// still-pending updates of the same range (data that dies young never hits
// the platter twice).
func (a *Array) registerPropagation(p *layout.Piece, first *drive, chosen int, last bus.Completion) {
	if first.failed {
		// The first copy landed on a drive that fail-stopped before its
		// completion was processed: the new data is gone. Leave the
		// surviving copies fresh with the pre-write contents rather than
		// marking them stale against an unreadable source.
		return
	}
	var ver uint64
	if a.integrity {
		ver = a.nextVersion()
		a.noteCopyWritten(first, p.Chunk, chosen, ver, a.coversChunk(p.Chunk, p.Off, p.Count), last)
	}
	entry := a.getEntry()
	entry.tracked = true
	touched := a.touched[:0]
	for _, id := range p.Mirrors {
		d := a.drives[id]
		if !a.holds(d, p.Chunk) {
			// No propagation into a missing chunk: rebuild will copy the
			// whole chunk (including this write) from a fresh mirror.
			continue
		}
		for j := 0; j < a.opts.Config.Dr; j++ {
			if d == first && j == chosen {
				continue
			}
			if !a.opts.DisableCoalescing {
				a.coalesce(d, p.Chunk, p.Off, p.Count, j)
			}
			c := a.getCopy()
			c.entry = entry
			c.replica = j
			c.own = append(c.own, p.Replicas[j]...)
			c.extents = c.own
			c.chunk = p.Chunk
			c.off = p.Off
			c.count = p.Count
			c.ver = ver
			d.delayed = append(d.delayed, c)
			a.markStale(d, p.Chunk, j)
			entry.remaining++
		}
		touched = append(touched, d)
	}
	a.touched = touched
	// Delayed-mode writes acknowledge after the first copy: that is the
	// commit point, and every pending copy above (stale until it lands)
	// carries the committed version it will refresh to.
	if a.integrity {
		a.commitVersion(p.Chunk, ver)
	}
	if entry.remaining > 0 {
		a.nvramUsed++
		if a.obsRec != nil {
			a.obsRec.NVRAM.Set(int64(a.nvramUsed))
		}
	} else {
		// Every mirror was failed or missing: nothing to propagate.
		a.putEntry(entry)
	}
	if a.nvramUsed >= a.nvramCap {
		a.forceDelayed(a.nvramCap / 10)
	}
	for _, d := range touched {
		a.kick(d)
	}
}

// coalesce discards still-queued propagations the new write fully covers:
// data that dies young never reaches the platter twice (Section 3.4).
func (a *Array) coalesce(d *drive, chunk, off int64, count, replica int) {
	// Every propagation copy enters d.delayed together with a staleness mark
	// and holds it until it resolves, so no mark means nothing queued for
	// this (chunk, replica) and the queue need not be scanned.
	if a.freshAt(d, chunk, replica).pending() == 0 {
		return
	}
	kept := d.delayed[:0]
	for _, c := range d.delayed {
		// Rebuild and repair copies are not propagations: they hold no
		// staleness mark and must land regardless of newer writes (a repair
		// landing after a newer write is harmless — versions only move
		// forward).
		if !c.rebuild && !c.repair && c.chunk == chunk && c.replica == replica &&
			off <= c.off && off+int64(count) >= c.off+int64(c.count) {
			a.clearStale(d, chunk, replica)
			a.copyEntryDone(c.entry)
			a.putCopy(c)
			continue
		}
		kept = append(kept, c)
	}
	d.delayed = kept
}

func (a *Array) copyEntryDone(e *propEntry) {
	e.remaining--
	if e.remaining < 0 {
		panic("core: propagation entry over-completed")
	}
	if e.remaining == 0 {
		if e.tracked {
			a.nvramUsed--
			if a.obsRec != nil {
				a.obsRec.NVRAM.Set(int64(a.nvramUsed))
			}
		}
		if e.onAllDone != nil {
			e.onAllDone()
		}
		a.putEntry(e)
	}
}

// dispatchDelayed services the cheapest of the oldest pending copies when
// the drive has no foreground work.
func (a *Array) dispatchDelayed(d *drive) {
	window := len(d.delayed)
	if window > 8 {
		window = 8
	}
	bestI := -1
	bestT := des.Time(math.Inf(1))
	for i := 0; i < window; i++ {
		c := d.delayed[i]
		if !c.tgt.Prepared() {
			d.est.Prepare(&c.tgt, c.extents[0])
		}
		t := d.est.AccessPrepared(d.bus.ArmState(), &c.tgt, true, a.sim.Now())
		if t < bestT {
			bestI, bestT = i, t
		}
	}
	c := d.delayed[bestI]
	d.delayed = append(d.delayed[:bestI], d.delayed[bestI+1:]...)
	pr := a.getReq()
	req := &pr.req
	req.ID = a.nextID()
	req.Write = true
	req.Arrive = a.sim.Now()
	r := a.startRun(d, req, c.extents)
	r.kind = runDelayed
	r.dc = c
	r.pr = pr
	r.start = a.sim.Now()
	a.submitExtent(r)
}

// finishCopy resolves one delayed copy: clean means the write landed on a
// drive that is still alive. Propagation copies release their staleness
// mark; repair copies resolve their counters; and when the oracle is on, a
// landed copy refreshes (or, carrying poisoned content, corrupts) its
// ground truth.
func (a *Array) finishCopy(d *drive, c *delayedCopy, clean bool, last bus.Completion) {
	switch {
	case c.repair:
		a.noteRepairEnd(c.origin, clean && !d.failed)
	case c.rebuild:
		// Reconstruction copies never marked staleness.
	default:
		a.clearStale(d, c.chunk, c.replica)
	}
	if clean && a.integrity {
		if c.poison {
			a.poisonCopy(d, c.chunk, c.replica)
		} else {
			a.noteCopyWritten(d, c.chunk, c.replica, c.ver, a.coversChunk(c.chunk, c.off, c.count), last)
		}
	}
	a.copyEntryDone(c.entry)
}

// forceDelayed moves up to n pending copies (oldest first, spread over all
// drives) into the foreground queues — the paper's response to a filling
// metadata table.
func (a *Array) forceDelayed(n int) {
	if n < 1 {
		n = 1
	}
	moved := 0
	for moved < n {
		progress := false
		for _, d := range a.drives {
			if len(d.delayed) == 0 {
				continue
			}
			c := d.delayed[0]
			d.delayed = d.delayed[1:]
			a.promoteCopy(d, c)
			moved++
			progress = true
			if moved >= n {
				break
			}
		}
		if !progress {
			break
		}
	}
	a.ForcedDelayed += int64(moved)
}

// promoteCopy turns a delayed copy into a foreground write request.
func (a *Array) promoteCopy(d *drive, c *delayedCopy) {
	pr := a.getReq()
	req := &pr.req
	req.ID = a.nextID()
	req.Write = true
	req.Arrive = a.sim.Now()
	req.Replicas = fillReplicas1(pr, c.extents)
	pr.tag.kind = tagPromote
	pr.tag.d = d
	pr.tag.dc = c
	a.enqueue(d, req)
}

// Idle reports whether the array has no queued, in-flight, or delayed
// work. An active rebuild counts as work even between paced chunks, and so
// does a running scrub pass, so Drain waits for both to finish.
func (a *Array) Idle() bool {
	if a.crashed {
		// A powered-off array is waiting for recovery, not idle: Drain must
		// run through a scheduled Recover rather than stopping at the outage.
		return false
	}
	if a.rebuild != nil {
		return false
	}
	if a.scrub != nil && !a.scrub.done {
		return false
	}
	if a.recScan != nil && !a.recScan.done {
		return false
	}
	for _, d := range a.drives {
		if d.bus.Busy() || len(d.queue) > 0 || len(d.delayed) > 0 {
			return false
		}
	}
	return true
}

// Drain runs the simulation until the array is idle (bounded by maxTime to
// catch livelock in tests).
func (a *Array) Drain(maxTime des.Time) bool {
	deadline := a.sim.Now() + maxTime
	for !a.Idle() {
		if !a.sim.Step() || a.sim.Now() > deadline {
			return a.Idle()
		}
	}
	return true
}

// nvramEntry is the serialized form of one pending replica propagation:
// the logical range plus the copy it still owes. The paper's NVRAM table
// holds just enough to finish propagation after a crash ("it is not
// necessary to store a copy of the data itself... the physical location
// of the first write is sufficient"), so entries are a few words each.
type nvramEntry struct {
	Off     int64
	Count   int32
	Disk    int32
	Replica int32
}

// SnapshotNVRAM serializes the delayed-write metadata table, as the
// prototype's battery-backed RAM would preserve it across a crash.
func (a *Array) SnapshotNVRAM() ([]byte, error) {
	var entries []nvramEntry
	for _, d := range a.drives {
		for _, c := range d.delayed {
			if c.rebuild || c.repair {
				// Reconstruction copies are not table entries (a restarted
				// array recomputes them from the missing-chunk set), and
				// repairs hold no NVRAM slot — a crash loses the intent and
				// the corrupt copy is re-detected later.
				continue
			}
			entries = append(entries, nvramEntry{
				Off: c.off, Count: int32(c.count), Disk: int32(d.id), Replica: int32(c.replica),
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AdoptNVRAM replays a snapshot taken from a crashed instance of the same
// configuration: every still-owed copy is reissued as a foreground write.
// It returns the number of copies reissued.
func (a *Array) AdoptNVRAM(snapshot []byte) (int, error) {
	var entries []nvramEntry
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&entries); err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		pieces, err := a.lay.Resolve(e.Off, int(e.Count))
		if err != nil {
			return n, fmt.Errorf("core: corrupt NVRAM entry %+v: %v", e, err)
		}
		for i := range pieces {
			p := &pieces[i]
			owed := false
			for _, id := range p.Mirrors {
				if id == int(e.Disk) {
					owed = true
				}
			}
			if !owed || e.Replica < 0 || int(e.Replica) >= len(p.Replicas) {
				return n, fmt.Errorf("core: NVRAM entry %+v does not match this layout", e)
			}
			d := a.drives[e.Disk]
			if d.failed {
				continue
			}
			pr := a.getReq()
			if a.integrity {
				pr.tag.ver = a.nextVersion()
			}
			req := &pr.req
			req.ID = a.nextID()
			req.Write = true
			req.Arrive = a.sim.Now()
			req.Replicas = fillReplicas1(pr, p.Replicas[e.Replica])
			pr.tag.kind = tagAdopt
			pr.tag.d = d
			pr.tag.p = p
			pr.tag.rep = int(e.Replica)
			pr.tag.covers = a.coversChunk(p.Chunk, p.Off, p.Count)
			a.enqueue(d, req)
			n++
		}
	}
	return n, nil
}
