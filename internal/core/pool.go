package core

// Free-list pools backing the zero-allocation submit/dispatch path. The
// steady state of a closed-loop workload churns four object kinds per
// logical I/O — the sched.Request (with its reqTag and replica slice; every
// request the array queues on a drive is one of these), the
// extent-run driving the bus commands, the userRequest holding the resolved
// layout pieces, and for delayed writes the propagation bookkeeping
// (delayedCopy / propEntry). Each kind recycles through an
// intrusive free list on the Array: the array is single-goroutine by
// construction (everything runs on its Sim), so the lists need no locking.
//
// Lifetime rules (the part that makes pooling safe):
//
//   - A pooled request is released exactly once, at a point where nothing
//     can reference it again: the dispatch completion after its tag
//     continuation ran (unless the continuation re-enqueued the same
//     request — the transient-retry path of foreground-write and NVRAM-
//     adoption copies), the duplicate-group claim that cancels the losers,
//     the primary's win that cancels a queued hedge, the deadline expiry
//     that removed it from its queue, or the drive-failure and crash
//     sweeps.
//   - Late events that captured a request before recycling (ReadDeadline
//     expiry) revalidate through the tag's generation counter: getReq bumps
//     tag.gen, so a deadline armed against a previous life never touches
//     the queue.
//   - A pooled userRequest recycles when its last piece completes, reads
//     and writes in both propagation modes alike: nothing a write leaves
//     behind points into the request's arena, because a propagation
//     delayedCopy owns the extents it will write (registerPropagation copies
//     them into backing the copy keeps across getCopy/putCopy). While a
//     frame is still reading the request's pieces it sets held, and the last
//     pieceDone leaves the recycle to that frame's unhold: Submit's pieces
//     loop, and the delayed-mode first-copy completion, whose callback
//     usually resubmits — which would pop this very request and resolve over
//     the piece registerPropagation and releaseWriteGate read next. One
//     reason still sets noRecycle and leaves a request to the garbage
//     collector: a hedge duplicate was issued (fireHedge). Whichever of
//     primary and hedge loses reads the piece before it learns the race is
//     settled. The integrity oracle does not opt out: verify-on-read
//     failover reads the piece while it is still live, repairs, scrub and
//     the recovery scan resolve chunks through chunkPiece, and the crash
//     sweeps fail only live pieces.
//   - Double releases panic via the free flag rather than corrupting the
//     list.
//
// SetPoolPoisoning scrambles every recycled object so that any stale
// reference — a completion, deadline, or queue entry still holding a
// previous life — either panics (nil derefs, negative event times) or
// diverges the simulation where the regression tests compare byte-identical
// figure output.

import (
	"repro/internal/bus"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sched"
)

// poisonPools, when set, scrambles recycled pool objects (see
// SetPoolPoisoning).
var poisonPools bool

// SetPoolPoisoning toggles poisoning of recycled pool objects and returns
// the previous setting. Tests flip it on and assert that poisoned and
// unpoisoned runs produce byte-identical results — any divergence means a
// stale reference to a recycled object survived somewhere. Not safe to
// change while simulations are running.
func SetPoolPoisoning(on bool) bool {
	prev := poisonPools
	poisonPools = on
	return prev
}

// maxPoolReplicas sizes the inline replica and mask backing of a pooled
// request. Dr beyond it (a 12-head drive fully rotationally replicated)
// falls back to heap slices; correctness is unaffected.
const maxPoolReplicas = 8

// tagKind selects a request's continuations: tagDone on completion,
// failTag on a faulted-out dispatch or a drive failure, crashTag at a
// crash. Each request carries a kind plus the reqTag context fields its
// continuations read, so issuing one allocates no closures.
type tagKind uint8

const (
	// tagRead is a foreground read copy (submitRead).
	tagRead tagKind = iota
	// tagFGWrite is one copy of a foreground-mode write, counting down its
	// fgWrite.
	tagFGWrite
	// tagFirstWrite is the delayed-mode first copy; completion registers
	// the propagation and releases the chunk's write gate.
	tagFirstWrite
	// tagPromote is a delayed copy promoted to the foreground queue
	// (forceDelayed / RecoverDelayed).
	tagPromote
	// tagRef is a head tracker's reference read (enqueueRef).
	tagRef
	// tagHedge is the hedge duplicate of a foreground read (fireHedge).
	tagHedge
	// tagRebuildRead is a rebuild's source read (readForRebuild).
	tagRebuildRead
	// tagScrubRead is the scrubber's verify read of one copy, and
	// tagScrubSource its read of a condemned copy's repair source.
	tagScrubRead
	tagScrubSource
	// tagAdopt is one copy reissued from an adopted NVRAM table (AdoptNVRAM).
	tagAdopt
)

// pooledReq bundles a sched.Request with its reqTag and the inline backing
// for replicas and the allowed-replica mask, so issuing one request touches
// exactly one pooled object.
type pooledReq struct {
	req  sched.Request
	tag  reqTag
	reps [maxPoolReplicas]sched.Replica
	mask [maxPoolReplicas]bool
	// a is the array whose pool owns the request. allowedFn is allowed
	// bound once at first construction (the receiver is stable for the
	// object's lifetime), so a request can install a live AllowedFn without
	// a per-request closure.
	a         *Array
	allowedFn func(int) bool
	free      bool
	next      *pooledReq
}

// getReq returns a reset pooled request. The tag's generation counter
// survives recycling (monotonically increasing per object), invalidating
// deadline events armed against previous lives.
func (a *Array) getReq() *pooledReq {
	pr := a.freeReqs
	if pr == nil {
		pr = &pooledReq{a: a}
		pr.allowedFn = pr.allowed
	} else {
		a.freeReqs = pr.next
		pr.next = nil
	}
	pr.free = false
	gen := pr.tag.gen
	pr.req = sched.Request{}
	pr.tag = reqTag{pr: pr, gen: gen + 1}
	pr.req.Tag = &pr.tag
	return pr
}

// putReq releases a pooled request. Releasing twice panics.
func (a *Array) putReq(pr *pooledReq) {
	if pr.free {
		panic("core: pooled request released twice")
	}
	pr.free = true
	if poisonPools {
		pr.req = sched.Request{
			ID:     ^uint64(0),
			Arrive: des.Time(-1e18), // scheduling off a stale Arrive panics in des
			Tag:    &pr.tag,
		}
		t := &pr.tag
		t.kind = ^tagKind(0) // unknown kind: tagDone/failTag panic
		t.group, t.hc, t.hedgeOf = nil, nil, nil
		t.ur, t.p, t.d, t.fg, t.dc, t.rb = nil, nil, nil, nil, nil, nil
		for i := range pr.reps {
			pr.reps[i] = sched.Replica{}
		}
		for i := range pr.mask {
			pr.mask[i] = false
		}
	}
	pr.next = a.freeReqs
	a.freeReqs = pr
}

// fillReplicas builds the request's replica slice from the piece, backed by
// the pooled inline array when it fits.
func fillReplicas(pr *pooledReq, p *layout.Piece) []sched.Replica {
	n := len(p.Replicas)
	var out []sched.Replica
	if n <= len(pr.reps) {
		out = pr.reps[:n]
	} else {
		out = make([]sched.Replica, n)
	}
	for j, exts := range p.Replicas {
		out[j] = sched.Replica{Extents: exts}
	}
	return out
}

// fillReplicas1 builds a single-replica slice (foreground write copies,
// promoted delayed copies) from the pooled backing.
func fillReplicas1(pr *pooledReq, exts []disk.Extent) []sched.Replica {
	pr.reps[0] = sched.Replica{Extents: exts}
	return pr.reps[:1]
}

// fgWrite counts down the copies of one foreground-mode write piece.
type fgWrite struct {
	ur     *userRequest
	chunk  int64
	ver    uint64
	covers bool
	left   int
	free   bool
	next   *fgWrite
}

func (a *Array) getFG() *fgWrite {
	f := a.freeFGs
	if f == nil {
		return &fgWrite{}
	}
	a.freeFGs = f.next
	*f = fgWrite{}
	return f
}

func (a *Array) putFG(f *fgWrite) {
	if f.free {
		panic("core: fgWrite released twice")
	}
	f.free = true
	if poisonPools {
		f.ur = nil
		f.chunk, f.ver = -1, ^uint64(0)
		f.left = -1 << 30
	}
	f.next = a.freeFGs
	a.freeFGs = f
}

// fgDone counts one copy of a foreground write down; the last copy commits
// the version (oracle on) and completes the piece.
func (a *Array) fgDone(f *fgWrite) {
	f.left--
	if f.left != 0 {
		return
	}
	if a.integrity {
		a.commitVersion(f.chunk, f.ver)
	}
	ur := f.ur
	a.putFG(f)
	ur.pieceDone()
}

// runKind selects an extentRun's completion continuation.
type runKind uint8

const (
	// runDispatch is a scheduled foreground/background dispatch (the old
	// dispatch closure).
	runDispatch runKind = iota
	// runDelayed is a background propagation write (the old
	// dispatchDelayed closure).
	runDelayed
)

// extentRun drives one replica's extents back-to-back over the bus,
// replacing the per-dispatch closure chain of the old runExtents. It is the
// bus.CompletionHandler for its own commands.
type extentRun struct {
	a       *Array
	d       *drive
	req     *sched.Request
	extents []disk.Extent
	op      bus.Op
	idx     int
	retried bool
	retries int
	// Corruption flags accumulate across the run's extents so the final
	// completion carries every silent draw, not just the last extent's.
	latent, corrupt, torn bool

	kind runKind
	// runDispatch context.
	choice sched.Choice
	start  des.Time
	// runDelayed context (dc is the copy being landed; pr the pooled
	// request lending its identity).
	dc *delayedCopy
	pr *pooledReq

	free bool
	next *extentRun
}

// OnCompletion implements bus.CompletionHandler.
func (r *extentRun) OnCompletion(_ uint64, comp bus.Completion) {
	r.a.stepRun(r, comp)
}

// startRun returns a reset extentRun positioned at the first extent; the
// caller fills the kind context and calls submitExtent.
func (a *Array) startRun(d *drive, req *sched.Request, extents []disk.Extent) *extentRun {
	r := a.freeRuns
	if r == nil {
		r = &extentRun{a: a}
	} else {
		a.freeRuns = r.next
		r.next = nil
	}
	r.free = false
	r.d = d
	r.req = req
	r.extents = extents
	r.op = bus.OpRead
	if req.Write {
		r.op = bus.OpWrite
	}
	r.idx = 0
	r.retried = false
	r.retries = 0
	r.latent, r.corrupt, r.torn = false, false, false
	r.choice = sched.Choice{}
	r.start = 0
	r.dc, r.pr = nil, nil
	return r
}

func (a *Array) putRun(r *extentRun) {
	if r.free {
		panic("core: extent run released twice")
	}
	r.free = true
	if poisonPools {
		r.d, r.req, r.extents = nil, nil, nil
		r.idx = -1 << 30
		r.dc, r.pr = nil, nil
	}
	r.next = a.freeRuns
	a.freeRuns = r
}

// getUR returns a reset pooled userRequest (its arena and merge buffers
// keep their backing).
func (a *Array) getUR() *userRequest {
	ur := a.freeURs
	if ur == nil {
		return &userRequest{a: a}
	}
	a.freeURs = ur.next
	ur.next = nil
	ur.free = false
	ur.failed = false
	ur.err = nil
	ur.noRecycle = false
	ur.held = false
	return ur
}

func (a *Array) putUR(ur *userRequest) {
	if ur.free {
		panic("core: userRequest released twice")
	}
	ur.free = true
	if poisonPools {
		ur.off, ur.count = -1, -1
		ur.submit = des.Time(-1e18)
		ur.remaining = -1 << 30
		ur.done = nil
		// A *layout.Piece kept past the recycle reads nonsense, not the
		// plausible extents of the request's previous life.
		ur.arena.Poison()
	}
	ur.next = a.freeURs
	a.freeURs = ur
}

// getCopy returns a reset delayedCopy. All flag fields start false — the
// zero value is a plain propagation copy — and the owned extent backing
// survives the reset.
func (a *Array) getCopy() *delayedCopy {
	c := a.freeCopies
	if c == nil {
		return &delayedCopy{}
	}
	a.freeCopies = c.next
	*c = delayedCopy{own: c.own[:0]}
	return c
}

func (a *Array) putCopy(c *delayedCopy) {
	if c.free {
		panic("core: delayed copy released twice")
	}
	c.free = true
	if poisonPools {
		c.entry = nil
		c.extents = nil
		c.chunk, c.off = -1, -1
		// Scrambled, not dropped: a run still walking the previous life's
		// extents panics on an unmappable cylinder.
		own := c.own[:cap(c.own)]
		for i := range own {
			own[i] = disk.Extent{Start: disk.Chs{Cyl: -1, Head: -1, Sector: -1}, Count: -1}
		}
	}
	c.next = a.freeCopies
	a.freeCopies = c
}

// getEntry returns a reset propEntry.
func (a *Array) getEntry() *propEntry {
	e := a.freeEntries
	if e == nil {
		return &propEntry{}
	}
	a.freeEntries = e.next
	e.next = nil
	*e = propEntry{}
	return e
}

func (a *Array) putEntry(e *propEntry) {
	if e.free {
		panic("core: propagation entry released twice")
	}
	e.free = true
	if poisonPools {
		e.remaining = -1 << 30
		e.onAllDone = nil
	}
	e.next = a.freeEntries
	a.freeEntries = e
}

// tagDone runs a completed request's continuation; chosen is the replica
// the scheduler picked.
func (a *Array) tagDone(t *reqTag, last bus.Completion, chosen int) {
	switch t.kind {
	case tagRead:
		// Verify-on-read: consult the oracle where a real array would check
		// the extent checksums. A hit fails over to the remaining clean
		// replicas (queueing an in-place repair); with verification off the
		// corrupt read flows to the caller and is only counted.
		bad := a.integrity && a.checkPieceRead(t.d, t.p, chosen, last)
		if bad && a.opts.VerifyReads {
			a.noteDetected(t.d, t.p, chosen)
			if t.hc != nil {
				t.hc.primaryFail()
				return
			}
			a.submitRead(t.ur, t.p)
			return
		}
		if t.hc != nil {
			t.hc.primaryDone(bad)
			return
		}
		if bad {
			a.noteSilent()
		}
		t.ur.pieceDone()
	case tagFGWrite:
		a.noteCopyWritten(t.d, t.fg.chunk, t.rep, t.fg.ver, t.fg.covers, last)
		a.fgDone(t.fg)
	case tagFirstWrite:
		// The caller's callback runs inside pieceDone and draws request IDs
		// when it resubmits, so it must come first; holding the request keeps
		// p out of the resubmission's hands until the other two are done.
		ur, p := t.ur, t.p
		ur.held = true
		ur.pieceDone()
		a.registerPropagation(p, t.d, chosen, last)
		a.releaseWriteGate(p.Chunk)
		ur.unhold()
	case tagPromote:
		dc := t.dc
		a.finishCopy(t.d, dc, true, last)
		a.putCopy(dc)
	case tagRef:
		t.d.trk.Observe(last)
		t.d.refInFlight = false
	case tagHedge:
		// Hedges verify like primaries: a corrupt winner must not answer the
		// caller.
		hc := t.hedgeOf
		bad := a.integrity && a.checkPieceRead(t.d, hc.p, chosen, last)
		if bad && a.opts.VerifyReads {
			a.noteDetected(t.d, hc.p, chosen)
			hc.hedgeFail()
			return
		}
		hc.hedgeDone(bad)
	case tagRebuildRead:
		st := t.rb
		st.read = nil
		if st.cancelled {
			return
		}
		// A verified rebuild refuses a corrupt source: condemn the copy
		// (queueing its repair) and re-pick — the mask now excludes it.
		// Unverified, the reconstruction faithfully copies the garbage and
		// the rebuilt replicas inherit the poison.
		bad := a.integrity && a.checkPieceRead(t.d, t.p, chosen, last)
		if bad && a.opts.VerifyReads {
			a.noteDetected(t.d, t.p, chosen)
			a.readForRebuild(st, t.p)
			return
		}
		a.writeRebuildCopies(st, t.p, bad)
	case tagScrubRead, tagScrubSource:
		verify := t.kind == tagScrubRead
		if t.d.failed {
			// The drive died under the read; its copies are gone, not
			// corrupt.
			if verify {
				a.scrubCtr.Skipped++
			}
			a.scrubNext()
			return
		}
		if a.checkPieceRead(t.d, t.p, t.rep, last) {
			// A divergent copy, or a would-be repair source that is
			// divergent too: condemn it and look for a source.
			a.scrubCtr.Corrupt++
			if a.obsRec != nil {
				a.obsRec.ScrubCorrupt++
			}
			a.scrubSourceRead(t.d, t.p.Chunk, t.rep)
			return
		}
		if verify {
			a.scrubCtr.Verified++
			if a.obsRec != nil {
				a.obsRec.ScrubVerified++
			}
		}
		a.scrubNext()
	case tagAdopt:
		a.noteCopyWritten(t.d, t.p.Chunk, t.rep, t.ver, t.covers, last)
	default:
		panic("core: completion on a recycled request tag")
	}
}

// failTag runs a request's failure continuation (drive failure or faulted-
// out dispatch). It reports whether the continuation re-enqueued the same
// pooled request (the transient-retry path of foreground-write and
// NVRAM-adoption copies), in which case the caller must not release it.
func (a *Array) failTag(t *reqTag) (reused bool) {
	switch t.kind {
	case tagRead:
		// A failure with no surviving duplicate retries against the
		// remaining mirrors (and fails there if none remain).
		if t.hc != nil {
			t.hc.primaryFail()
			return false
		}
		a.submitRead(t.ur, t.p)
	case tagFGWrite:
		// A copy lost to a drive failure mid-queue still counts toward
		// completion: the write survives on the remaining copies. A
		// transient double-fault with the drive alive must land eventually —
		// the copy is what keeps this mirror fresh.
		if !t.d.failed {
			t.pr.req.Arrive = a.sim.Now()
			a.enqueue(t.d, &t.pr.req)
			return true
		}
		a.fgDone(t.fg)
	case tagFirstWrite:
		// All duplicates gone: retry against the survivors (the gate is
		// still held by this write).
		a.submitWriteGated(t.ur, t.p)
	case tagPromote:
		// Keep trying while the drive lives (the copy holds a staleness
		// mark that must resolve); with the drive gone the copy is lost but
		// the entry still resolves.
		if !t.d.failed {
			a.promoteCopy(t.d, t.dc)
			return false
		}
		dc := t.dc
		a.finishCopy(t.d, dc, false, bus.Completion{})
		a.putCopy(dc)
	case tagRef:
		// A faulted reference read is simply dropped — the tracker retries
		// at the next due time — but the in-flight latch must clear or head
		// tracking stops forever.
		t.d.refInFlight = false
	case tagHedge:
		t.hedgeOf.hedgeFail()
	case tagRebuildRead:
		// The next survivor takes over; with none the chunk is lost.
		t.rb.read = nil
		if !t.rb.cancelled {
			a.readForRebuild(t.rb, t.p)
		}
	case tagScrubRead, tagScrubSource:
		a.scrubCtr.Faulted++
		a.scrubNext()
	case tagAdopt:
		// Recovery writes must land while the drive lives.
		if !t.d.failed {
			t.pr.req.Arrive = a.sim.Now()
			a.enqueue(t.d, &t.pr.req)
			return true
		}
	default:
		panic("core: failure on a recycled request tag")
	}
	return false
}

// allowed is the live scheduling predicate (sched.Request.AllowedFn) of
// the two kinds whose eligible replicas can change while they queue.
func (pr *pooledReq) allowed(j int) bool {
	t := &pr.tag
	switch t.kind {
	case tagFirstWrite:
		// While an earlier write to this chunk is still propagating, only a
		// replica with no propagation pending may take the new data, or the
		// chunk could end up with no up-to-date copy at all. It reads the
		// stale count alone: a known-corrupt replica may take a write.
		// Unlike the rebuild read (recheckRebuildRead), a queued first
		// write needs no re-check when this turns false: the chunk's write
		// gate, which the write holds, stops the count from rising, and
		// every decrement is a completion that kicks its drive.
		return pr.a.freshAt(t.d, t.p.Chunk, j).pending() == 0
	case tagRebuildRead:
		// A propagation completing while the read queues can change which
		// replicas are fresh, and a verify check can condemn one.
		return pr.a.usable(t.d, t.p.Chunk, j)
	}
	panic("core: live replica predicate on a request kind without one")
}
