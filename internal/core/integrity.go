package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bus"
	"repro/internal/layout"
)

// Silent-corruption tolerance rests on an integrity oracle: the simulator
// moves no actual data, so it tracks per copy (drive x chunk x rotational
// replica) a content version and a corruption state as ground truth. A
// write stamps a fresh version; commit points mirror when the array
// considers the data durable. A read is wrong when its copy is poisoned
// (latent error, torn write, or a corrupt source faithfully copied by an
// unverified rebuild), when the transfer itself was garbled, or when the
// copy's version lags the chunk's committed version. The verify-on-read
// check (Options.VerifyReads) stands in for a per-extent checksum: it
// consults the oracle exactly where a real array would compare checksums,
// fails the read over to a clean replica, and queues an in-place repair.
//
// The oracle is maintained only when something can consult it (corruption
// injection, verification, scrubbing or the crash model is on), so disabled
// runs stay byte-identical and allocate nothing for it. Enabled, its state
// is dense: Array.committed holds one version per chunk, and each drive
// holds one table with a row of Dr copyStates per chunk of its slot
// (copyOf), allocated whole at the drive's first oracle write. A copy no
// write has touched — its table not yet allocated, or its row still zero —
// reads as version 0 and clean, which is what it holds.

// Copy corruption states.
const (
	// badNone: the copy holds what its version says.
	badNone uint8 = iota
	// badSilent: the copy is garbage and the array does not know (a latent
	// error or torn write that no verified read has touched yet).
	badSilent
	// badKnown: a verify check caught the copy; it is excluded from reads
	// and a repair has been queued if a clean source existed.
	badKnown
)

// copyState is the oracle's ground truth for one copy (drive x chunk x
// rotational replica) in one word: the content version the copy holds in
// the low 62 bits (verSeq counts logical writes and never nears 2^62) and
// its corruption state in the top two. The zero value is version 0, clean.
type copyState uint64

const verBits = 62

func (c copyState) ver() uint64 { return uint64(c) & (1<<verBits - 1) }
func (c copyState) bad() uint8  { return uint8(c >> verBits) }

func (c *copyState) setVer(v uint64) { *c = copyState(uint64(c.bad())<<verBits | v) }
func (c *copyState) setBad(b uint8)  { *c = copyState(uint64(b)<<verBits | c.ver()) }

// copyIndex returns the position of the chunk's first replica in the
// drive's table. A drive's chunks all share chunk % Positions() (its slot's
// position), so row = chunk / Positions() numbers them densely; a chunk of
// another position would alias a row of this one, and panics instead.
func (a *Array) copyIndex(d *drive, chunk int64) int64 {
	g := int64(a.opts.Config.Positions())
	row := chunk / g
	if chunk-row*g != d.integPos {
		panic(fmt.Sprintf("core: oracle state of chunk %d looked up on drive %d, which holds position %d", chunk, d.id, d.integPos))
	}
	return row * int64(a.opts.Config.Dr)
}

// copyRow returns the oracle state of the chunk's Dr copies on the drive,
// nil while the drive's table is unallocated (every copy then reads as the
// zero copyState).
func (a *Array) copyRow(d *drive, chunk int64) []copyState {
	if d.integ == nil {
		return nil
	}
	i := a.copyIndex(d, chunk)
	return d.integ[i : i+int64(a.opts.Config.Dr)]
}

// copyAt returns one copy's oracle state.
func (a *Array) copyAt(d *drive, chunk int64, replica int) copyState {
	if d.integ == nil {
		return 0
	}
	return d.integ[a.copyIndex(d, chunk)+int64(replica)]
}

// copyOf returns one copy's oracle state for update, allocating the drive's
// table at its first touch: ceil(numChunks / Positions()) rows of Dr
// entries, for the position of the slot the drive sits in.
func (a *Array) copyOf(d *drive, chunk int64, replica int) *copyState {
	if d.integ == nil {
		g := int64(a.opts.Config.Positions())
		d.integ = make([]copyState, (a.numChunks()+g-1)/g*int64(a.opts.Config.Dr))
		d.integPos = int64(d.id) % g
	}
	return &d.integ[a.copyIndex(d, chunk)+int64(replica)]
}

// committedVer returns the chunk's committed content version: 0 with the
// oracle off, when nothing has been committed.
func (a *Array) committedVer(chunk int64) uint64 {
	if a.committed == nil {
		return 0
	}
	return a.committed[chunk]
}

// nextVersion stamps one logical write.
func (a *Array) nextVersion() uint64 {
	a.verSeq++
	return a.verSeq
}

// commitVersion records that version v of the chunk is durably on some
// copy — the point after which a lagging copy counts as stale data.
func (a *Array) commitVersion(chunk int64, v uint64) {
	if a.committed[chunk] < v {
		a.committed[chunk] = v
	}
}

// coversChunk reports whether the logical range [off, off+count) covers
// the chunk entirely — only a covering write can clear a poisoned copy
// (chunk-granular state must not be cleared by a partial overwrite whose
// garbage may live elsewhere in the chunk).
func (a *Array) coversChunk(chunk, off int64, count int) bool {
	start, n := a.chunkSpan(chunk)
	return off <= start && off+int64(count) >= start+n
}

// noteCopyWritten updates the oracle after a write of version v landed on
// (d, chunk, replica). A torn completion reported success onto garbage:
// the version does not advance and the copy is silently poisoned.
func (a *Array) noteCopyWritten(d *drive, chunk int64, replica int, v uint64, covers bool, comp bus.Completion) {
	if !a.integrity {
		return
	}
	cs := a.copyOf(d, chunk, replica)
	if comp.Torn {
		if cs.bad() == badNone {
			cs.setBad(badSilent)
		}
		return
	}
	if v > cs.ver() {
		cs.setVer(v)
	}
	if covers {
		cs.setBad(badNone)
	}
}

// poisonCopy marks a copy silently bad unless a verify check already
// knows about it.
func (a *Array) poisonCopy(d *drive, chunk int64, replica int) {
	if cs := a.copyOf(d, chunk, replica); cs.bad() == badNone {
		cs.setBad(badSilent)
	}
}

// pieceChunks returns how many chunks a (possibly merged) read piece spans.
// Merged pieces fuse consecutive chunks of one position, so the k-th is
// p.Chunk + k*Positions().
func (a *Array) pieceChunks(p *layout.Piece) int64 {
	unit := int64(a.lay.StripeUnit())
	within := p.Off - p.Chunk*unit
	return (within + int64(p.Count) + unit - 1) / unit
}

// checkPieceRead consults the oracle for a clean read completion of piece
// p, replica rep, served by drive d: it reports whether the returned data
// was corrupt or stale, and applies the persistent media poison a latent
// draw implies. This is the array's stand-in for verifying a per-extent
// checksum against the data just read.
func (a *Array) checkPieceRead(d *drive, p *layout.Piece, rep int, comp bus.Completion) bool {
	if !a.integrity {
		return false
	}
	if comp.Latent {
		// The media under the read has rotted; the poison outlives this
		// command. Merged pieces attribute the draw to their first chunk.
		a.poisonCopy(d, p.Chunk, rep)
	}
	if comp.Corrupt {
		return true
	}
	n, g := a.pieceChunks(p), int64(a.opts.Config.Positions())
	for k := int64(0); k < n; k++ {
		chunk := p.Chunk + k*g
		if cs := a.copyAt(d, chunk, rep); cs.bad() != badNone || cs.ver() < a.committed[chunk] {
			return true
		}
	}
	return false
}

// noteSilent counts one read that returned corrupt data to the caller
// with verification off.
func (a *Array) noteSilent() {
	a.faults.SilentReads++
	if a.obsRec != nil {
		a.obsRec.SilentReads++
	}
}

// repairOrigin identifies which detector condemned a copy, so the repair
// lifecycle counters reconcile per-detector: verify-on-read, the background
// scrubber, or the post-crash recovery scan.
type repairOrigin uint8

const (
	originRead repairOrigin = iota
	originScrub
	originRecovery
)

// noteDetected handles a verify-on-read hit on (d, piece, rep): every
// persistently wrong chunk copy under the read is marked known-bad
// (excluding it from future reads) and an in-place repair is queued from
// a clean source. Transient path corruption marks nothing — the media is
// fine and the caller's failover retry will read clean data.
func (a *Array) noteDetected(d *drive, p *layout.Piece, rep int) {
	a.faults.VerifyDetected++
	if a.obsRec != nil {
		a.obsRec.VerifyDetected++
	}
	n, g := a.pieceChunks(p), int64(a.opts.Config.Positions())
	for k := int64(0); k < n; k++ {
		a.condemnWrong(d, p.Chunk+k*g, rep, originRead)
	}
}

// condemnWrong marks the copy known-bad and queues its repair if it is
// persistently wrong (poisoned media or a stale version — not a one-off
// transfer garbling). Reports whether it condemned anything.
func (a *Array) condemnWrong(d *drive, chunk int64, rep int, origin repairOrigin) bool {
	cs := a.copyAt(d, chunk, rep)
	if cs.bad() == badNone && cs.ver() >= a.committed[chunk] {
		return false
	}
	if cs.bad() == badKnown {
		return false // already detected; its repair is pending
	}
	a.copyOf(d, chunk, rep).setBad(badKnown)
	a.queueRepair(d, chunk, rep, origin)
	return true
}

// ensureIntegrity turns the oracle on after construction (InjectCorruption
// or a late StartScrub on an array built without corruption options).
func (a *Array) ensureIntegrity() {
	a.integrity = true
	if a.committed == nil {
		a.committed = make([]uint64, a.numChunks())
	}
}

// readMask returns the per-replica usable mask for reads of a chunk on a
// drive: fresh (no pending propagation) and not known-corrupt. Nil when
// every replica is usable — the allocation-free common case.
func (a *Array) readMask(d *drive, chunk int64) []bool {
	mask := a.freshMask(d, chunk)
	for j, cs := range a.copyRow(d, chunk) {
		if cs.bad() != badKnown {
			continue
		}
		if mask == nil {
			mask = make([]bool, a.opts.Config.Dr)
			for k := range mask {
				mask[k] = true
			}
		}
		mask[j] = false
	}
	return mask
}

// chunkTainted reports whether readMask would be non-nil for the chunk on
// this drive — some replica stale or known-corrupt — without allocating
// the mask.
func (a *Array) chunkTainted(d *drive, chunk int64) bool {
	return d.stale[chunk] != nil || a.anyKnownBad(d, chunk)
}

// replicaUsable reports what readMask's mask[j] would be, without
// materializing the mask: fresh (no pending propagation) and not
// known-corrupt.
func (a *Array) replicaUsable(d *drive, chunk int64, j int) bool {
	if cs := d.stale[chunk]; cs != nil && cs.staleCount[j] != 0 {
		return false
	}
	return a.copyAt(d, chunk, j).bad() != badKnown
}

// anyUsable reports whether at least one replica of the chunk on this
// drive is usable for reads (the non-nil-mask analogue of anyTrue).
func (a *Array) anyUsable(d *drive, chunk int64) bool {
	for j := 0; j < a.opts.Config.Dr; j++ {
		if a.replicaUsable(d, chunk, j) {
			return true
		}
	}
	return false
}

// readMaskInto fills buf (growing it if Dr exceeds its capacity) with the
// same values readMask would allocate; nil when every replica is usable.
// Hot read submission uses it with the pooled request's inline backing.
func (a *Array) readMaskInto(d *drive, chunk int64, buf []bool) []bool {
	if !a.chunkTainted(d, chunk) {
		return nil
	}
	dr := a.opts.Config.Dr
	mask := buf
	if cap(mask) < dr {
		mask = make([]bool, dr)
	} else {
		mask = mask[:dr]
	}
	for j := 0; j < dr; j++ {
		mask[j] = a.replicaUsable(d, chunk, j)
	}
	return mask
}

// anyKnownBad reports whether any replica of the chunk on this drive has
// been detected corrupt (and is awaiting repair).
func (a *Array) anyKnownBad(d *drive, chunk int64) bool {
	for _, cs := range a.copyRow(d, chunk) {
		if cs.bad() == badKnown {
			return true
		}
	}
	return false
}

// hasRepairSource reports whether some other usable copy of the chunk
// exists to repair (d, replica) from.
func (a *Array) hasRepairSource(d *drive, chunk int64, replica int) bool {
	p := a.chunkPiece(chunk)
	for _, id := range p.Mirrors {
		q := a.drives[id]
		if q.failed || q.unreadable(chunk) {
			continue
		}
		for j := 0; j < a.opts.Config.Dr; j++ {
			if q == d && j == replica {
				continue
			}
			// A source must be fresh and hold no corruption, known or not.
			if !a.replicaUsable(q, chunk, j) || a.copyAt(q, chunk, j).bad() != badNone {
				continue
			}
			return true
		}
	}
	return false
}

// queueRepair enqueues an in-place rewrite of a detected-corrupt copy
// through the delayed-write machinery, carrying the chunk's committed
// content (the detecting read's failover — or the scrubber's source read
// — supplies the data). Repair copies hold no NVRAM slot and no staleness
// marks: a crash simply loses the intent, and the next verified read or
// scrub pass re-detects the copy.
func (a *Array) queueRepair(d *drive, chunk int64, replica int, origin repairOrigin) {
	if d.failed || d.unreadable(chunk) || !a.hasRepairSource(d, chunk, replica) {
		switch origin {
		case originScrub:
			a.scrubCtr.Unrepairable++
		case originRecovery:
			a.recCtr.Unrepairable++
		default:
			a.faults.Unrepairable++
		}
		return
	}
	switch origin {
	case originScrub:
		a.scrubCtr.RepairsQueued++
	case originRecovery:
		a.recCtr.RepairsQueued++
	default:
		a.faults.RepairsQueued++
	}
	p := a.chunkPiece(chunk)
	entry := &propEntry{remaining: 1}
	d.delayed = append(d.delayed, &delayedCopy{
		entry: entry, replica: replica, extents: p.Replicas[replica],
		chunk: chunk, off: p.Off, count: p.Count,
		repair: true, origin: origin, ver: a.committed[chunk],
	})
	a.kick(d)
}

// noteRepairEnd resolves one queued repair: done (the copy was rewritten
// clean) or dropped (the copy died with its drive, lost to a crash, or no
// clean source remained).
func (a *Array) noteRepairEnd(origin repairOrigin, done bool) {
	switch origin {
	case originScrub:
		if done {
			a.scrubCtr.Repaired++
			if a.obsRec != nil {
				a.obsRec.ScrubRepaired++
			}
		} else {
			a.scrubCtr.RepairsDropped++
		}
	case originRecovery:
		if done {
			a.recCtr.Repaired++
			if a.obsRec != nil {
				a.obsRec.RecoveryRepaired++
			}
		} else {
			a.recCtr.RepairsDropped++
		}
	default:
		if done {
			a.faults.RepairsDone++
			if a.obsRec != nil {
				a.obsRec.ReadRepairs++
			}
		} else {
			a.faults.RepairsDropped++
		}
	}
}

// InjectCorruption silently poisons up to n distinct live copies, chosen
// uniformly from a stream seeded by seed — the deterministic way for
// experiments and tests to create a latent-error population without
// waiting for the per-command streams to draw one. It enables the
// integrity oracle if nothing else had, and returns how many copies were
// actually poisoned.
func (a *Array) InjectCorruption(n int, seed int64) int {
	a.ensureIntegrity()
	rng := rand.New(rand.NewSource(seed))
	g := int64(a.opts.Config.Positions())
	injected := 0
	for attempts := 0; injected < n && attempts < 64*(n+1); attempts++ {
		slot := rng.Intn(len(a.drives))
		slotChunks := a.slotChunks(slot)
		if slotChunks == 0 {
			continue
		}
		chunk := int64(slot)%g + rng.Int63n(slotChunks)*g
		rep := rng.Intn(a.opts.Config.Dr)
		d := a.drives[slot]
		if d.failed || d.unreadable(chunk) {
			continue
		}
		if a.copyAt(d, chunk, rep).bad() != badNone {
			continue
		}
		a.copyOf(d, chunk, rep).setBad(badSilent)
		a.faults.LatentErrors++
		injected++
	}
	return injected
}

// CorruptCopies counts copies the oracle knows to be garbage on live
// drives — the experiment's measure of how much poison remains after a
// scrub pass.
func (a *Array) CorruptCopies() int {
	return a.countCopies(func(cs copyState, _ uint64) bool { return cs.bad() != badNone })
}

// DivergentCopies counts copies on live readable chunks that do not hold
// the chunk's committed content: poisoned (silently or known) or lagging
// the committed version — exactly the set the recovery scan must find
// after a crash. Zero means every reachable replica is faithful. Not a hot
// path: experiments and tests call it between runs.
func (a *Array) DivergentCopies() int {
	return a.countCopies(func(cs copyState, committed uint64) bool {
		return cs.bad() != badNone || cs.ver() < committed
	})
}

// countCopies counts the copies on live drive slots and readable chunks
// for which pred holds, given the copy's state and its chunk's committed
// version. It walks slots, never the spares: an idle spare holds nothing.
func (a *Array) countCopies(pred func(cs copyState, committed uint64) bool) int {
	g := int64(a.opts.Config.Positions())
	n := 0
	for slot, d := range a.drives {
		if d.failed {
			continue
		}
		for chunk := int64(slot) % g; chunk < a.numChunks(); chunk += g {
			if d.unreadable(chunk) {
				continue
			}
			cv := a.committedVer(chunk)
			for j := 0; j < a.opts.Config.Dr; j++ {
				if pred(a.copyAt(d, chunk, j), cv) {
					n++
				}
			}
		}
	}
	return n
}
