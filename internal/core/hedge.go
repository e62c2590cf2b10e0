package core

import (
	"fmt"
	"math/bits"

	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/sched"
)

// Hedged reads generalize the paper's mirror duplicate-request heuristic
// (Section 3.3) from submit time to dispatch time. The original trick
// duplicates a read into every mirror queue and cancels the losers the
// moment one scheduler claims a copy — it routes around a *busy* drive,
// but once a copy is dispatched the read is committed to that drive, slow
// or not. A hedge re-opens the race after dispatch: if the in-flight copy
// has not completed within the hedge delay, a duplicate is enqueued on
// another fresh mirror and whichever copy finishes first answers the
// caller (Dean & Barroso's tail-at-scale hedged request, applied inside
// one array). The loser is cancelled from its queue when still undispatched
// or its completion is discarded when already on the wire — commands in
// flight are never aborted, matching how the duplicate machinery already
// behaves.
//
// The delay is Options.HedgeAfter when pinned, or adaptively the observed
// p99 of clean foreground read service times: hedging the slowest 1% adds
// ~1% extra load in exchange for cutting the tail, and the p99 tracks the
// workload as it shifts. Suspect drives (see health.go) are avoided as
// hedge targets while any healthy candidate exists.

// hedgeBuckets and hedgeMinSamples size the adaptive-delay histogram: log2
// microsecond buckets (as in package obs) and the sample count below which
// hedging stays off — a p99 estimated from fewer than a hundred-odd
// samples is noise, and the first requests of a run would hedge blindly.
const (
	hedgeBuckets    = 23
	hedgeMinSamples = 128
)

// latHist is a minimal allocation-free log2 latency histogram for the
// adaptive hedge delay.
type latHist struct {
	count   int64
	buckets [hedgeBuckets]int64
}

func (h *latHist) observe(t des.Time) {
	us := int64(t)
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us))
	if b >= hedgeBuckets {
		b = hedgeBuckets - 1
	}
	h.buckets[b]++
	h.count++
}

// quantile returns the upper bound of the bucket holding the q-quantile,
// or ok=false below hedgeMinSamples. Bucket granularity (powers of two)
// is plenty: the delay only needs to separate "normal" from "tail".
func (h *latHist) quantile(q float64) (des.Time, bool) {
	if h.count < hedgeMinSamples {
		return 0, false
	}
	rank := int64(q*float64(h.count)) + 1
	if rank > h.count {
		rank = h.count
	}
	cum := int64(0)
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			return des.Time(int64(1) << uint(b)), true
		}
	}
	return 0, false
}

// HedgeCounters reports the lifecycle of every hedge: each issued hedge
// terminates exactly one way, so Issued == Won + Lost + Cancelled always
// reconciles.
type HedgeCounters struct {
	// Issued counts hedge duplicates enqueued.
	Issued int64
	// Won counts hedges that completed before their primary — the tail
	// latency the mechanism recovered.
	Won int64
	// Lost counts hedges beaten by their primary after dispatch (their
	// completion is discarded) or abandoned to a drive failure.
	Lost int64
	// Cancelled counts hedges removed from their queue undispatched when
	// the primary finished first — the cheap case.
	Cancelled int64
}

// Hedges returns a snapshot of the hedge counters.
func (a *Array) Hedges() HedgeCounters { return a.hedges }

// ShedCounters reports admission-control activity (see Submit).
type ShedCounters struct {
	// Overload counts logical requests rejected at Submit with ErrOverload.
	Overload int64
	// Deadline counts read pieces failed with ErrDeadlineExceeded after
	// waiting out Options.ReadDeadline undispatched.
	Deadline int64
}

// Sheds returns a snapshot of the admission-control counters.
func (a *Array) Sheds() ShedCounters { return a.sheds }

// hedgeDelay returns the current hedge delay; ok=false means hedging is
// not yet armed (adaptive mode still collecting samples). The adaptive
// delay is the observed p99, clamped to at most four times the median:
// when a fail-slow drive serves more than 1% of reads it pollutes the p99
// itself, and an unclamped delay would chase the very tail hedging is
// meant to cut. The median stays honest as long as most reads land on
// healthy drives.
func (a *Array) hedgeDelay() (des.Time, bool) {
	if a.hedgeAfter > 0 {
		return a.hedgeAfter, true
	}
	p99, ok := a.hedgeLat.quantile(0.99)
	if !ok {
		return 0, false
	}
	if p50, ok := a.hedgeLat.quantile(0.50); ok && p99 > 4*p50 {
		p99 = 4 * p50
	}
	return p99, true
}

// hedgeCtl tracks one foreground read piece through the primary/hedge
// race. Exactly one terminal transition settles it: the primary completes,
// the hedge completes, or both fail and the piece re-enters submitRead.
type hedgeCtl struct {
	a  *Array
	ur *userRequest
	p  *layout.Piece

	// settled: the piece has been answered (or handed back to submitRead);
	// every later event on this controller is a no-op — in particular the
	// discarded loser's completion.
	settled bool
	// primaryGone: the primary dispatch faulted out while the hedge was
	// live, so the hedge carries the read alone.
	primaryGone bool
	// hedgeLive: a hedge was issued and has not yet terminated.
	hedgeLive bool
	// hedgeReq is non-nil while the hedge sits undispatched in its drive's
	// queue (the window where it can be cancelled).
	hedgeReq     *pooledReq
	primaryDrive *drive
}

// armHedge schedules the hedge timer for a just-dispatched primary.
func (a *Array) armHedge(hc *hedgeCtl, d *drive) {
	hc.primaryDrive = d
	delay, ok := a.hedgeDelay()
	if !ok {
		return
	}
	a.sim.At(a.sim.Now()+delay, func() { a.fireHedge(hc) })
}

// fireHedge issues the duplicate if the primary is still in flight and a
// fresh replica exists elsewhere. Healthy drives are preferred over
// Suspect ones, then shorter queues; a hedge that lands on a Suspect drive
// anyway (no healthy candidate) carries the scheduling penalty.
func (a *Array) fireHedge(hc *hedgeCtl) {
	if hc.settled || hc.hedgeLive {
		return
	}
	var best *drive
	var buf [maxPoolReplicas]bool
	bestRank, bestQ := 0, 0
	for _, id := range hc.p.Mirrors {
		d := a.drives[id]
		if d == hc.primaryDrive || !a.holds(d, hc.p.Chunk) {
			continue
		}
		if mask := a.usableMask(d, hc.p.Chunk, buf[:0]); mask != nil && !anyTrue(mask) {
			continue
		}
		rank := 0
		if a.suspectDrive(d) {
			rank = 1
		}
		q := len(d.queue)
		if best == nil || rank < bestRank || (rank == bestRank && q < bestQ) {
			best, bestRank, bestQ = d, rank, q
		}
	}
	if best == nil {
		return
	}
	pr := a.getReq()
	req := &pr.req
	req.ID = a.nextID()
	req.Arrive = a.sim.Now()
	req.Hedged = true
	req.Replicas = fillReplicas(pr, hc.p)
	req.AllowedReplicas = a.usableMask(best, hc.p.Chunk, pr.mask[:0])
	if bestRank > 0 {
		req.Penalty = SuspectPenalty
	}
	pr.tag.kind = tagHedge
	pr.tag.hedgeOf = hc
	pr.tag.d = best
	// From here the piece has two readers, and the loser reads it after the
	// winner completed it: keep the request's arena out of the pool.
	hc.ur.noRecycle = true
	hc.hedgeLive = true
	hc.hedgeReq = pr
	a.hedges.Issued++
	if a.obsRec != nil {
		a.obsRec.HedgesIssued++
	}
	a.enqueue(best, req)
}

// primaryDone settles the race in the primary's favor (or discards the
// primary's completion if the hedge already won). bad reports that the
// winning data was corrupt with verification off: only the copy that
// actually answers the caller counts as a silent read.
func (hc *hedgeCtl) primaryDone(bad bool) {
	if hc.settled {
		return
	}
	hc.settled = true
	if bad {
		hc.a.noteSilent()
	}
	hc.cancelHedge()
	hc.ur.pieceDone()
}

// primaryFail reroutes a faulted-out primary: if a hedge is live it takes
// over the read; otherwise the piece re-enters submitRead (which builds a
// fresh controller).
func (hc *hedgeCtl) primaryFail() {
	if hc.settled {
		return
	}
	if hc.hedgeLive {
		hc.primaryGone = true
		return
	}
	hc.settled = true
	hc.a.submitRead(hc.ur, hc.p)
}

// hedgeDone settles the race in the hedge's favor (or discards the hedge's
// completion if the primary already won — Lost was counted then). bad
// marks a corrupt winner under verification-off, counted only because this
// copy answers the caller.
func (hc *hedgeCtl) hedgeDone(bad bool) {
	if hc.settled {
		return
	}
	hc.settled = true
	hc.hedgeLive = false
	if bad {
		hc.a.noteSilent()
	}
	hc.a.hedges.Won++
	if hc.a.obsRec != nil {
		hc.a.obsRec.HedgesWon++
	}
	hc.ur.pieceDone()
}

// hedgeFail retires a hedge that faulted out or died with its drive. With
// the primary also gone the piece re-enters submitRead; otherwise the
// primary is still in flight and simply keeps the read.
func (hc *hedgeCtl) hedgeFail() {
	if hc.settled {
		return
	}
	hc.hedgeLive = false
	hc.hedgeReq = nil
	hc.a.hedges.Lost++
	if hc.a.obsRec != nil {
		hc.a.obsRec.HedgesLost++
	}
	if hc.primaryGone {
		hc.settled = true
		hc.a.submitRead(hc.ur, hc.p)
	}
}

// crash settles the controller at a whole-array power failure: the piece
// fails with ErrCrashed unless already answered. The crash teardown visits
// each queued/in-flight copy exactly once, so the settled latch makes
// whichever of primary/hedge is visited first report the failure and the
// other a no-op.
func (hc *hedgeCtl) crash() {
	if hc.settled {
		return
	}
	hc.settled = true
	hc.hedgeLive = false
	hc.hedgeReq = nil
	hc.ur.pieceFailed(ErrCrashed)
}

// cancelHedge retires a live hedge after the primary won: removed from its
// queue when still undispatched, or left to complete and be discarded.
func (hc *hedgeCtl) cancelHedge() {
	if !hc.hedgeLive {
		return
	}
	hc.hedgeLive = false
	a := hc.a
	if hc.hedgeReq != nil {
		removeFromQueue(hc.hedgeReq.tag.d, &hc.hedgeReq.req)
		a.putReq(hc.hedgeReq)
		hc.hedgeReq = nil
		a.hedges.Cancelled++
		if a.obsRec != nil {
			a.obsRec.HedgesCancelled++
		}
		return
	}
	a.hedges.Lost++
	if a.obsRec != nil {
		a.obsRec.HedgesLost++
	}
}

// throttleRecheck is how often throttled background work re-tests the
// overload predicate. Short enough that background work resumes promptly
// after a burst drains; long enough that a saturated array is not spammed
// with recheck events.
const throttleRecheck = des.Millisecond

// overloaded reports whether any drive's foreground queue has reached half
// of MaxQueueDepth — the threshold where background work (delayed
// propagation, rebuild chunk starts) steps aside so foreground latency
// recovers first. Always false with admission control off.
//
// At MaxQueueDepth == 1 "half" and the shed threshold coincide: a queued
// foreground request is already at depth, so background work would only
// yield once foreground is being rejected — never actually deprioritized.
// There the predicate instead watches for any foreground activity at all
// (a queued request or a command on the bus), giving background work a
// genuine step-aside band while still draining when the array idles.
func (a *Array) overloaded() bool {
	depth := a.opts.MaxQueueDepth
	if depth == 0 {
		return false
	}
	if depth == 1 {
		for _, d := range a.drives {
			if len(d.queue) >= 1 || (!d.failed && d.bus.Busy()) {
				return true
			}
		}
		return false
	}
	half := (depth + 1) / 2
	for _, d := range a.drives {
		if len(d.queue) >= half {
			return true
		}
	}
	return false
}

// admit applies MaxQueueDepth admission control to a resolved request:
// a read is shed when every candidate drive of some piece is at depth; a
// write is shed when a drive that must take a copy is at depth (foreground
// mode writes land on every live mirror; delayed mode needs only the
// least-loaded one).
func (a *Array) admit(op Op, pieces []layout.Piece) error {
	depth := a.opts.MaxQueueDepth
	for i := range pieces {
		p := &pieces[i]
		minQ, candidates := 0, 0
		maxQ := 0
		for _, id := range p.Mirrors {
			d := a.drives[id]
			if !a.holds(d, p.Chunk) {
				continue
			}
			q := len(d.queue)
			if candidates == 0 || q < minQ {
				minQ = q
			}
			if q > maxQ {
				maxQ = q
			}
			candidates++
		}
		if candidates == 0 {
			continue // no survivors: let the routing fail with ErrDataLost
		}
		over := minQ >= depth
		if op == Write && a.opts.ForegroundWrites {
			over = maxQ >= depth
		}
		if over {
			a.sheds.Overload++
			if a.obsRec != nil {
				a.obsRec.ShedOverload++
			}
			// The bare sentinel, not an fmt.Errorf wrap: this is the hottest
			// path in the array during an overload burst, and a per-rejection
			// allocation is exactly the wrong time to allocate.
			return ErrOverload
		}
	}
	return nil
}

// armDeadline starts the ReadDeadline clock for one queued read piece: if
// neither the request (nor any member of its duplicate group) has been
// dispatched when it expires, the queued copies are removed and the piece
// fails with ErrDeadlineExceeded. In-flight commands are never aborted.
// The budget restarts when a failover resubmits the piece.
func (a *Array) armDeadline(ur *userRequest, p *layout.Piece, g *dupGroup, d *drive, req *sched.Request) {
	chunk := p.Chunk
	// The deadline event outlives the request when it completes in time, and
	// a pooled request may have been recycled into a different logical
	// request by then. The generation captured here tells a stale firing
	// apart from a live one (dupGroups are heap-allocated and use g.claimed
	// for the same purpose).
	var tag *reqTag
	var gen uint64
	if req != nil {
		tag = req.Tag.(*reqTag)
		gen = tag.gen
	}
	a.sim.At(a.sim.Now()+a.opts.ReadDeadline, func() {
		if g != nil {
			if g.claimed || len(g.members) == 0 {
				// Dispatched, or every member died with its drive and the
				// failover path owns the piece now.
				return
			}
			for _, m := range g.members {
				removeFromQueue(m.d, m.req)
				a.putReq(m.req.Tag.(*reqTag).pr)
			}
			g.members = nil
			g.claimed = true // nothing may dispatch this group anymore
		} else {
			if tag.gen != gen || tag.offQueue {
				return
			}
			tag.offQueue = true
			removeFromQueue(d, req)
			a.putReq(tag.pr)
		}
		a.sheds.Deadline++
		if a.obsRec != nil {
			a.obsRec.ShedDeadline++
		}
		ur.pieceFailed(fmt.Errorf("%w: chunk %d", ErrDeadlineExceeded, chunk))
	})
}
