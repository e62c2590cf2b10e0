package core

import (
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/sched"
)

// classOf maps a request to its observability class.
func classOf(req *sched.Request) obs.Class {
	switch {
	case req.Priority:
		return obs.Priority
	case req.Background:
		return obs.Background
	case req.Hedged:
		return obs.Hedge
	default:
		return obs.Foreground
	}
}

// opOf maps a request to its observability op.
func opOf(req *sched.Request) obs.Op {
	if req.Write {
		return obs.OpWrite
	}
	return obs.OpRead
}

// reqTag is the array-layer bookkeeping riding on each sched.Request. Hot
// paths set kind plus the context fields below and dispatch through
// Array.tagDone/failTag; cold paths keep the zero kind (tagClosure) with
// per-request closures.
type reqTag struct {
	// kind selects the completion/failure continuation (see pool.go).
	kind  tagKind
	group *dupGroup
	// onDone runs when the dispatched request fully completes (all extents
	// transferred). chosenReplica is the replica the scheduler picked.
	// Only consulted under tagClosure.
	onDone func(last bus.Completion, chosenReplica int)
	// onFail runs when a drive failure leaves the request with no copy to
	// read or write; nil means the failure is silently absorbed (delayed
	// propagation copies). Only consulted under tagClosure.
	onFail func()
	// ref marks head-tracking reference reads.
	ref bool
	// hc, when non-nil, is the hedge controller of this foreground read:
	// dispatching the request arms the hedge timer.
	hc *hedgeCtl
	// hedgeOf marks this request as the hedge duplicate of a controller
	// (so dispatching it closes the cancellation window).
	hedgeOf *hedgeCtl
	// offQueue records that the request has left its drive queue (by
	// dispatch or drive failure), so an expired ReadDeadline is a no-op.
	offQueue bool

	// pr points back to the pooled request this tag is embedded in; nil for
	// heap-allocated (cold path) requests, which are never recycled.
	pr *pooledReq
	// gen counts the pooled request's lives. A deadline event captures the
	// generation it was armed against and becomes a no-op once the request
	// is recycled.
	gen uint64
	// Context for the kind-dispatched continuations.
	ur  *userRequest
	p   *layout.Piece
	d   *drive
	rep int
	fg  *fgWrite
	dc  *delayedCopy
}

// dupGroup links duplicate copies of one read enqueued on several mirror
// disks (Section 3.3): as soon as one copy is scheduled, the rest are
// removed from their queues.
type dupGroup struct {
	claimed bool
	members []dupMember
	// inline backs members, so a duplicated read allocates only its group.
	inline [maxPoolReplicas]dupMember
}

type dupMember struct {
	d   *drive
	req *sched.Request
}

func newDupGroup() *dupGroup {
	g := &dupGroup{}
	g.members = g.inline[:0]
	return g
}

// enqueue inserts a request into a drive's foreground queue and tries to
// start the drive.
func (a *Array) enqueue(d *drive, req *sched.Request) {
	d.queue = append(d.queue, req)
	a.kick(d)
}

// removeFromQueue deletes a request from a drive's queue (it is an
// invariant violation if absent).
func removeFromQueue(d *drive, req *sched.Request) {
	for i, r := range d.queue {
		if r == req {
			d.queue = append(d.queue[:i], d.queue[i+1:]...)
			return
		}
	}
	panic("core: request missing from drive queue")
}

// kick starts work on a drive if it is idle: first overdue head-tracking
// reads, then the foreground queue under the configured policy, then
// delayed write propagation (which runs only when the foreground queue is
// empty, per Section 3.4).
func (a *Array) kick(d *drive) {
	if a.deferKicks {
		// SubmitBatch in progress: record the drive once and kick it at the
		// flush, after the whole batch has been routed into the queues.
		if !d.kickPending {
			d.kickPending = true
			a.pendingKicks = append(a.pendingKicks, d)
		}
		return
	}
	if a.crashed || d.failed || d.bus.Free() == 0 {
		return
	}
	now := a.sim.Now()
	if d.trk != nil && !d.refInFlight && d.trk.Due(now) {
		a.enqueueRef(d)
	}
	// Fill every free tag slot (one, without TCQ).
	dispatched := false
	for d.bus.Free() > 0 {
		choice, ok := d.sched.Pick(now, d.bus.ArmState(), d.queue, d.est)
		if !ok {
			break
		}
		d.lastActive = now
		a.dispatch(d, choice)
		dispatched = true
	}
	if dispatched || len(d.delayed) == 0 {
		return
	}
	if !d.bus.Idle() {
		return // tags still working; background waits for full idleness
	}
	// Background propagation waits out a short idle window so it does not
	// start a multi-millisecond write in front of the next request of an
	// in-progress burst.
	const idleDelay = 10 * des.Millisecond
	if wait := d.lastActive + idleDelay - now; wait > 0 {
		at := now + wait
		if d.recheckAt < at {
			d.recheckAt = at
			a.sim.At(at, d.kickFn)
		}
		return
	}
	// While foreground queues are saturated elsewhere in the array,
	// background propagation steps aside (admission control's other half:
	// shed new load, and keep what remains off the background's plate). A
	// recheck timer guarantees the delayed work still drains once the
	// overload clears even if no completion kicks this drive again.
	if a.overloaded() {
		at := now + throttleRecheck
		if d.recheckAt < at {
			d.recheckAt = at
			a.sim.At(at, d.kickFn)
		}
		return
	}
	a.dispatchDelayed(d)
}

// enqueueRef queues a priority read of the reference sector for the head
// tracker. Priority requests are picked ahead of the scan by every policy,
// so tracking cannot starve under load.
func (a *Array) enqueueRef(d *drive) {
	d.refInFlight = true
	a.RefReads++
	cmd := d.trk.RefCommand()
	p, err := d.dsk.Geom.LBAToPhys(cmd.LBA)
	if err != nil {
		panic(fmt.Sprintf("core: reference sector unmappable: %v", err))
	}
	req := &sched.Request{
		ID:       a.nextID(),
		Arrive:   a.sim.Now(),
		Priority: true,
		Replicas: []sched.Replica{{Extents: []disk.Extent{{Start: p, Count: cmd.Count}}}},
		Tag: &reqTag{
			ref: true,
			onDone: func(last bus.Completion, _ int) {
				d.trk.Observe(last)
				d.refInFlight = false
			},
			// A faulted reference read is simply dropped — the tracker
			// retries at the next due time — but the in-flight latch must
			// clear or head tracking stops forever.
			onFail: func() { d.refInFlight = false },
		},
	}
	d.queue = append(d.queue, req)
}

// dispatch removes the chosen request from the queue, claims its duplicate
// group, and runs its extents on the drive.
func (a *Array) dispatch(d *drive, choice sched.Choice) {
	// The scheduler already located the request: delete by index, keeping
	// queue order (ties break on it).
	req := d.queue[choice.Index]
	d.queue = append(d.queue[:choice.Index], d.queue[choice.Index+1:]...)
	tag := req.Tag.(*reqTag)
	tag.offQueue = true
	if g := tag.group; g != nil {
		if g.claimed {
			panic("core: dispatching an already-claimed duplicate")
		}
		g.claimed = true
		for _, m := range g.members {
			if m.req != req {
				removeFromQueue(m.d, m.req)
				// The cancelled loser can never be referenced again (the
				// deadline event checks g.claimed before touching members).
				if mt := m.req.Tag.(*reqTag); mt.pr != nil {
					a.putReq(mt.pr)
				}
			}
		}
		g.members = nil
	}
	if hc := tag.hedgeOf; hc != nil {
		hc.hedgeReq = nil // on the wire now; past cancellation
	}
	if hc := tag.hc; hc != nil {
		a.armHedge(hc, d)
	}
	a.Dispatches++
	r := a.startRun(d, req, req.Replicas[choice.Replica].Extents)
	r.kind = runDispatch
	r.choice = choice
	r.start = a.sim.Now()
	a.submitExtent(r)
}

// submitExtent issues the run's current extent on the bus. A faulted
// command is retried once in-drive (the SCSI-driver policy: one immediate
// reissue before escalating); a second fault on the same extent abandons
// the run with clean=false and the tag's failure path takes over. Timing of
// a faulted run must not feed calibration, breakdown, or histogram
// accounting.
func (a *Array) submitExtent(r *extentRun) {
	e := r.extents[r.idx]
	lba, err := r.d.dsk.Geom.PhysToLBA(e.Start)
	if err != nil {
		panic(fmt.Sprintf("core: layout produced unmappable extent %v: %v", e.Start, err))
	}
	r.d.bus.SubmitHandled(bus.Command{Op: r.op, LBA: lba, Count: e.Count}, r, 0)
}

// stepRun advances an extent run on each bus completion: retry the extent,
// move to the next one, or finish the run.
func (a *Array) stepRun(r *extentRun, comp bus.Completion) {
	d := r.d
	if comp.SlowBy > 0 {
		a.noteSlow(d, comp)
	}
	if comp.Latent || comp.Corrupt || comp.Torn {
		a.noteCorruption(d, comp)
		r.latent = r.latent || comp.Latent
		r.corrupt = r.corrupt || comp.Corrupt
		r.torn = r.torn || comp.Torn
	}
	if !comp.OK() {
		a.noteFault(d, comp.Fault)
		if !r.retried && !d.failed {
			a.faults.Retries++
			r.retries++
			if d.rec != nil {
				d.rec.Retry()
			}
			r.retried = true
			a.submitExtent(r)
			return
		}
		a.finishRun(r, comp, false)
		return
	}
	if r.idx+1 < len(r.extents) {
		r.idx++
		r.retried = false
		a.submitExtent(r)
		return
	}
	comp.Latent, comp.Corrupt, comp.Torn = r.latent, r.corrupt, r.torn
	a.finishRun(r, comp, true)
}

// finishRun retires an extent run and executes its continuation — the
// bodies of the old dispatch/dispatchDelayed completion closures. The run
// is released before the continuation so a synchronous resubmission
// (closed-loop workloads complete and reissue in the same event) reuses it
// immediately.
func (a *Array) finishRun(r *extentRun, last bus.Completion, clean bool) {
	kind, d, req, retries := r.kind, r.d, r.req, r.retries
	choice, start, c, pr := r.choice, r.start, r.dc, r.pr
	extents := r.extents
	a.putRun(r)
	switch kind {
	case runDispatch:
		tag := req.Tag.(*reqTag)
		d.lastActive = a.sim.Now()
		if !clean {
			// The in-drive retry also faulted (or the drive fail-stopped):
			// give up on this dispatch and reroute through the failure path
			// — for reads and first-copy writes that resubmits against the
			// surviving mirrors.
			a.faults.Failovers++
			if d.rec != nil {
				d.rec.FaultedRun(obs.Dispatch{
					Req: req.ID, Class: classOf(req), Op: opOf(req),
					Arrive: req.Arrive, Start: start, Retries: retries,
					Failover: true, Rebuild: req.Background,
				}, last.Fault, last.Observed)
			}
			reused := a.failTag(tag)
			a.kick(d)
			if !reused && tag.pr != nil {
				a.putReq(tag.pr)
			}
			return
		}
		if d.rec != nil {
			d.rec.Done(obs.Dispatch{
				Req: req.ID, Class: classOf(req), Op: opOf(req),
				Arrive: req.Arrive, Start: start, Retries: retries,
				Rebuild: req.Background,
			}, last.Timing, last.Observed)
		}
		a.account(d, req, choice, extents, start, last)
		if !req.Priority && !req.Background {
			if a.opts.Health.Enabled {
				a.observeHealth(d, last.Observed-start)
			}
			if a.opts.Hedge && a.opts.HedgeAfter == 0 && !req.Write && !req.Hedged {
				a.hedgeLat.observe(last.Observed - start)
			}
		}
		if !req.Priority && !req.Background && !req.Hedged {
			b := &a.breakdown
			b.N++
			b.Queue += start - req.Arrive
			b.Seek += last.Timing.Seek
			b.Rotate += last.Timing.Rotate
			b.Transfer += last.Timing.Transfer
			b.Overhead += (last.Observed - start) - last.Timing.Total()
		}
		a.tagDone(tag, last, choice.Replica)
		a.kick(d)
		if tag.pr != nil {
			a.putReq(tag.pr)
		}
	case runDelayed:
		if d.rec != nil {
			// Propagation bypasses the foreground queue, so its queue delay
			// is definitionally zero (Arrive == Start at dispatch).
			rec := obs.Dispatch{
				Req: req.ID, Class: obs.Delayed, Op: obs.OpWrite,
				Arrive: start, Start: start, Retries: retries, Rebuild: c.rebuild,
			}
			if clean {
				d.rec.Done(rec, last.Timing, last.Observed)
			} else {
				d.rec.FaultedRun(rec, last.Fault, last.Observed)
			}
		}
		switch {
		case clean:
			a.finishCopy(d, c, true, last)
			a.putCopy(c)
		case d.failed:
			// The copy dies with the drive; resolve its table entry.
			a.finishCopy(d, c, false, last)
			a.putCopy(c)
		default:
			// Double fault with the drive alive: the copy must still land.
			// Put it back at the front and let the next idle window retry.
			d.delayed = slices.Insert(d.delayed, 0, c)
		}
		a.kick(d)
		if pr != nil {
			a.putReq(pr)
		}
	}
}

// account feeds prediction accuracy and the slack feedback loop (prototype
// mode), and optionally the opportunistic phase update.
func (a *Array) account(d *drive, req *sched.Request, choice sched.Choice, extents []disk.Extent, start des.Time, last bus.Completion) {
	if d.trk == nil {
		return
	}
	if len(extents) == 1 && !req.Priority && !req.Background && a.opts.TCQDepth == 0 {
		// (Under TCQ the measured time includes the drive's internal
		// queueing, which the host prediction cannot see; accuracy
		// accounting only makes sense for host-scheduled commands.)
		measured := last.Observed - start
		rec := calib.PredictionRecord{Predicted: choice.Predicted, Measured: measured}
		d.acc.Add(rec)
		miss := rec.IsRotationMiss(d.est.RotationPeriod())
		if miss {
			a.RotationMisses++
		}
		d.slack.Record(miss)
	}
	if a.opts.OpportunisticTracking && !req.Priority {
		e := extents[len(extents)-1]
		endSector := e.Start
		endSector.Sector += e.Count - 1
		spt := d.dsk.Geom.SPTOf(endSector.Cyl)
		if endSector.Sector < spt { // stay on the same track for the angle
			d.trk.OpportunisticObserve(last, endSector)
		}
	}
}

// readCand is one mirror drive able to serve a read piece. tainted means
// the drive's copy of the chunk has stale or known-corrupt replicas (the
// request will carry an AllowedReplicas mask).
type readCand struct {
	d       *drive
	tainted bool
}

// submitRead routes one read piece: to an idle mirror disk directly, or
// duplicated into every candidate's queue (the paper's mirror heuristic).
func (a *Array) submitRead(ur *userRequest, p *layout.Piece) {
	var candArr [maxPoolReplicas]readCand
	cands := candArr[:0]
	anyUnreachable := false
	anyCorrupt := false
	for _, id := range p.Mirrors {
		d := a.drives[id]
		if d.failed || d.unreadable(p.Chunk) {
			// Gone outright, or a rebuilding spare that has not
			// reconstructed this chunk yet.
			anyUnreachable = true
			continue
		}
		knownBad := a.anyKnownBad(d, p.Chunk)
		if knownBad {
			anyCorrupt = true
		}
		tainted := knownBad || d.stale[p.Chunk] != nil
		if tainted && !a.anyUsable(d, p.Chunk) {
			continue // every replica here is stale or known-corrupt
		}
		cands = append(cands, readCand{d, tainted})
	}
	if len(cands) == 0 {
		// Degraded-mode reads fail here with ErrDataLost: every copy is on
		// a failed drive or was lost before rebuild reached it. When a
		// verify check condemned the last reachable copy the failure is
		// ErrCorruptData instead (detection worked; nothing clean remains).
		// The all-drives-alive case should be unreachable (the most recent
		// first-written copy is fresh by construction) but surfaces as a
		// failed read with ErrNoFreshReplica rather than killing a long
		// simulation — a staleness-tracking bug degrades, it does not
		// panic.
		switch {
		case anyUnreachable:
			ur.pieceFailed(fmt.Errorf("%w: chunk %d", ErrDataLost, p.Chunk))
		case anyCorrupt:
			ur.pieceFailed(fmt.Errorf("%w: chunk %d", ErrCorruptData, p.Chunk))
		default:
			ur.pieceFailed(fmt.Errorf("%w: chunk %d", ErrNoFreshReplica, p.Chunk))
		}
		return
	}
	// One hedge controller per routed piece: the dispatch of whichever copy
	// wins the queue race arms the hedge timer (see hedge.go). A failover
	// resubmission builds a fresh controller.
	var hc *hedgeCtl
	if a.opts.Hedge {
		hc = &hedgeCtl{a: a, ur: ur, p: p}
	}
	// Idle-disk fast path: send to the idle head closest to a copy,
	// preferring healthy drives over Suspect ones.
	var bestIdle *readCand
	var bestT des.Time
	bestRank := 0
	for i := range cands {
		c := &cands[i]
		if c.d.bus.Busy() || len(c.d.queue) > 0 {
			continue
		}
		rank := 0
		if a.suspectDrive(c.d) {
			rank = 1
		}
		t := a.bestAccess(c.d, p, c.tainted)
		if bestIdle == nil || rank < bestRank || (rank == bestRank && t < bestT) {
			bestIdle, bestRank, bestT = c, rank, t
		}
	}
	if bestIdle != nil {
		req := a.mkReadReq(ur, p, *bestIdle, nil, hc)
		a.enqueue(bestIdle.d, req)
		if a.opts.ReadDeadline > 0 {
			a.armDeadline(ur, p, nil, bestIdle.d, req)
		}
		return
	}
	if len(cands) == 1 {
		req := a.mkReadReq(ur, p, cands[0], nil, hc)
		a.enqueue(cands[0].d, req)
		if a.opts.ReadDeadline > 0 {
			a.armDeadline(ur, p, nil, cands[0].d, req)
		}
		return
	}
	if a.opts.DisableDupRequests {
		// Ablation: statically pick the mirror whose head currently looks
		// nearest (healthy drives first), without the cancel-on-claim
		// machinery.
		best := 0
		bestRank := 0
		if a.suspectDrive(cands[0].d) {
			bestRank = 1
		}
		bestT := a.bestAccess(cands[0].d, p, cands[0].tainted)
		for i := 1; i < len(cands); i++ {
			rank := 0
			if a.suspectDrive(cands[i].d) {
				rank = 1
			}
			t := a.bestAccess(cands[i].d, p, cands[i].tainted)
			if rank < bestRank || (rank == bestRank && t < bestT) {
				best, bestRank, bestT = i, rank, t
			}
		}
		req := a.mkReadReq(ur, p, cands[best], nil, hc)
		a.enqueue(cands[best].d, req)
		if a.opts.ReadDeadline > 0 {
			a.armDeadline(ur, p, nil, cands[best].d, req)
		}
		return
	}
	g := newDupGroup()
	for _, c := range cands {
		req := a.mkReadReq(ur, p, c, g, hc)
		g.members = append(g.members, dupMember{c.d, req})
	}
	for _, m := range g.members {
		m.d.queue = append(m.d.queue, m.req)
	}
	if a.opts.ReadDeadline > 0 {
		a.armDeadline(ur, p, g, nil, nil)
	}
	for _, m := range g.members {
		if g.claimed {
			break
		}
		a.kick(m.d)
	}
}

// mkReadReq builds one pooled read copy for a candidate drive. Completion
// and failure route through tagRead in pool.go — the same continuations the
// old per-request closures carried.
func (a *Array) mkReadReq(ur *userRequest, p *layout.Piece, c readCand, g *dupGroup, hc *hedgeCtl) *sched.Request {
	pr := a.getReq()
	req := &pr.req
	req.ID = a.nextID()
	req.Arrive = a.sim.Now()
	req.Replicas = fillReplicas(pr, p)
	if c.tainted {
		req.AllowedReplicas = a.readMaskInto(c.d, p.Chunk, pr.mask[:0])
	}
	// A copy queued on a Suspect drive is handicapped so a healthy
	// mirror's scan claims the shared duplicate first (see health.go).
	if a.suspectDrive(c.d) {
		req.Penalty = SuspectPenalty
	}
	t := &pr.tag
	t.kind = tagRead
	t.group = g
	t.hc = hc
	t.d = c.d
	t.ur = ur
	t.p = p
	return req
}

// bestAccess estimates the cheapest usable replica access for a piece on a
// drive (tainted consults the per-replica usability that readMask would
// materialize). Each (drive, replica) pair is scored once per routing
// decision and prototype-mode drives differ in geometry (their skews follow
// their spindle speeds), so nothing is cached across the mirror candidates.
func (a *Array) bestAccess(d *drive, p *layout.Piece, tainted bool) des.Time {
	best := des.Time(0)
	first := true
	for j, rep := range p.Replicas {
		if tainted && !a.replicaUsable(d, p.Chunk, j) {
			continue
		}
		e := rep[0]
		t := d.est.Access(d.bus.ArmState(), disk.Request{Start: e.Start, Count: e.Count}, a.sim.Now())
		if first || t < best {
			best, first = t, false
		}
	}
	return best
}

// replicasOf converts a layout piece to scheduler replicas.
func replicasOf(p *layout.Piece) []sched.Replica {
	out := make([]sched.Replica, len(p.Replicas))
	for j, exts := range p.Replicas {
		out[j] = sched.Replica{Extents: exts}
	}
	return out
}

func anyTrue(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}
