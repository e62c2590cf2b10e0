package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/layout"
)

// The background scrubber closes the window verify-on-read leaves open:
// verification only touches data somebody reads, so a latent error in a
// cold chunk sits undetected until the day its mirror fails and the
// rebuild copies garbage. The scrubber walks every drive's chunk copies in
// cylinder order (chunks of a slot ascend physically), issuing
// Background-class verify reads that yield to foreground traffic, paced to
// a bandwidth cap exactly like rebuild reconstruction, and stepping aside
// entirely while any foreground queue crosses the half-depth overload
// threshold. A divergent copy is condemned, a clean source is re-read (the
// repair data has to come from somewhere), and the rewrite rides the
// delayed-write machinery as an in-place repair.
//
// One verify read is in flight at a time: the scan is a serial chain
// (issue -> complete -> pace -> issue), so the scrubber's foreground
// interference is bounded by a single Background command per array plus
// the paced repair writes.

// DefaultScrubMBps paces a scrubber that sets no explicit rate: gentle
// enough to hide under foreground traffic, fast enough to cover a
// prototype-sized volume in minutes of simulated time.
const DefaultScrubMBps = 4.0

// ScrubOptions configures the background scrubber.
type ScrubOptions struct {
	// MBps caps the verify-read bandwidth per pass. 0 means the array's
	// current scrub rate (Tuning.ScrubMBps, DefaultScrubMBps until set).
	MBps float64
	// Passes is how many full passes to run before the scrubber retires;
	// 0 means 1.
	Passes int
}

func (o ScrubOptions) validate() error {
	if o.MBps < 0 {
		return fmt.Errorf("core: negative scrub bandwidth %v", o.MBps)
	}
	if o.Passes < 0 {
		return fmt.Errorf("core: negative scrub pass count %d", o.Passes)
	}
	return nil
}

// ScrubCounters reports the scrubber's activity. Every cursor step ends in
// exactly one of Verified, Corrupt, Skipped, or Faulted; every Corrupt
// ends in one of RepairsQueued or Unrepairable, and every queued repair in
// Repaired or RepairsDropped.
type ScrubCounters struct {
	// Verified counts chunk copies read and found clean.
	Verified int64
	// Corrupt counts copies the verify check condemned.
	Corrupt int64
	// RepairsQueued/Repaired/RepairsDropped track the in-place rewrites of
	// condemned copies; Unrepairable counts condemnations with no clean
	// source left.
	RepairsQueued  int64
	Repaired       int64
	RepairsDropped int64
	Unrepairable   int64
	// Skipped counts copies the scan stepped over without reading: failed
	// or rebuilding-missing chunks, propagation-stale replicas (about to
	// be rewritten anyway), and chunks whose write gate is held.
	Skipped int64
	// Faulted counts verify reads abandoned to injected faults or drive
	// failures.
	Faulted int64
	// Passes counts completed full passes.
	Passes int64
}

// ScrubProgress describes the active scrub pass.
type ScrubProgress struct {
	Active bool
	// Pass is the 1-based pass number.
	Pass int
	// Done and Total count chunk copies of the current pass.
	Done, Total int64
}

// scrubState is one scrubber run (possibly several passes).
type scrubState struct {
	opts ScrubOptions
	walk copyWalk
	// pass is the 0-based pass index; done retires the scrubber.
	pass int
	done bool
	// passDone/passTotal count chunk copies for progress reporting.
	passDone  int64
	passTotal int64
	// pace caps the verify-read bandwidth, charging each chunk copy as
	// its read is issued.
	pace des.Pacer
}

// StartScrub begins a scrubber run. It turns the integrity oracle on (a
// scrub of an array that cannot corrupt data verifies everything clean,
// which is still an honest answer). Exactly one run at a time.
func (a *Array) StartScrub(o ScrubOptions) error {
	if err := o.validate(); err != nil {
		return err
	}
	if a.crashed {
		return fmt.Errorf("core: cannot start a scrub on a crashed array")
	}
	if a.scrub != nil && !a.scrub.done {
		return fmt.Errorf("core: scrub already running")
	}
	o.MBps = orDefault(o.MBps, a.scrubMBps)
	if o.Passes == 0 {
		o.Passes = 1
	}
	a.ensureIntegrity()
	s := &scrubState{opts: o, walk: copyWalk{cur: make([]scrubCursor, len(a.drives))}}
	for slot := range a.drives {
		s.passTotal += a.slotChunks(slot) * int64(a.opts.Config.Dr)
	}
	a.scrub = s
	a.scrubNext()
	return nil
}

// ScrubCounters returns a snapshot of the scrubber counters (cumulative
// across runs).
func (a *Array) ScrubCounters() ScrubCounters { return a.scrubCtr }

// ScrubProgress returns a snapshot of the active pass (zero value when no
// scrubber is running).
func (a *Array) ScrubProgress() ScrubProgress {
	s := a.scrub
	if s == nil || s.done {
		return ScrubProgress{}
	}
	return ScrubProgress{Active: true, Pass: s.pass + 1, Done: s.passDone, Total: s.passTotal}
}

// scrubNext schedules the next cursor step no earlier than the pacing
// allows.
func (a *Array) scrubNext() {
	s := a.scrub
	if s == nil || s.done {
		return
	}
	now := a.sim.Now()
	if at := s.pace.Ready(now); at > now {
		a.sim.At(at, func() { a.scrubTick(s) })
		return
	}
	a.scrubTick(s)
}

// scrubTick advances the scan by one chunk copy: take the walk's next
// copy, charge the pacing, and issue (or skip) the verify read. The
// chain continues from the read's completion.
func (a *Array) scrubTick(s *scrubState) {
	if s.done || s != a.scrub {
		return
	}
	// Foreground saturation pauses the scan entirely (same half-depth
	// predicate that throttles delayed propagation and rebuild starts).
	if a.overloaded() {
		a.sim.At(a.sim.Now()+throttleRecheck, func() { a.scrubTick(s) })
		return
	}
	slot, chunk, rep, ok := a.walkNext(&s.walk)
	if !ok {
		a.scrubPassDone(s)
		return
	}
	s.passDone++
	s.pace.Take(a.sim.Now(), a.chunkBytes(chunk), s.opts.MBps)

	d := a.drives[slot]
	_, gated := a.writeGate[chunk]
	// A copy with a propagation pending will be rewritten anyway.
	if !a.holds(d, chunk) || gated || a.freshAt(d, chunk, rep).pending() > 0 {
		a.scrubCtr.Skipped++
		a.scrubNext()
		return
	}
	a.issueScrubRead(d, a.chunkPiece(chunk), rep, tagScrubRead)
}

// issueScrubRead reads one copy of the chunk piece p (Background class,
// pinned to replica rep) as a verify read or a repair-source read (kind);
// its completion consults the oracle.
func (a *Array) issueScrubRead(d *drive, p *layout.Piece, rep int, kind tagKind) {
	pr := a.getReq()
	req := &pr.req
	req.ID = a.nextID()
	req.Arrive = a.sim.Now()
	req.Background = true
	req.Replicas = fillReplicas1(pr, p.Replicas[rep])
	pr.tag.kind = kind
	pr.tag.d = d
	pr.tag.p = p
	pr.tag.rep = rep
	a.enqueue(d, req)
}

// scrubSourceRead condemns the divergent copy and fetches the repair data
// from a clean source before queueing the in-place rewrite — the repair
// has to read the good data from somewhere, and that read is itself
// verified.
func (a *Array) scrubSourceRead(d *drive, chunk int64, rep int) {
	if !a.condemnWrong(d, chunk, rep, originScrub) {
		// Transient path corruption (the media is fine) or a copy already
		// condemned with a repair pending: nothing further to do.
		a.scrubNext()
		return
	}
	// condemnWrong queued the repair (or counted it unrepairable); now pay
	// for the source read that supplies the data. The repair write itself
	// drains through the delayed queue.
	p := a.chunkPiece(chunk)
	var src *drive
	srcRep := -1
	for _, id := range p.Mirrors {
		q := a.drives[id]
		if !a.holds(q, chunk) {
			continue
		}
		for j := 0; j < a.opts.Config.Dr; j++ {
			if q == d && j == rep || !a.usable(q, chunk, j) {
				continue
			}
			src, srcRep = q, j
			break
		}
		if src != nil {
			break
		}
	}
	if src == nil {
		a.scrubNext()
		return
	}
	a.issueScrubRead(src, p, srcRep, tagScrubSource)
}

// scrubPassDone retires a finished pass: rewind the cursors for the next
// one, or retire the scrubber.
func (a *Array) scrubPassDone(s *scrubState) {
	a.scrubCtr.Passes++
	if a.obsRec != nil {
		a.obsRec.ScrubPasses++
	}
	s.pass++
	if s.pass >= s.opts.Passes {
		s.done = true
		return
	}
	clear(s.walk.cur)
	s.walk.slot = 0
	s.passDone = 0
	a.scrubNext()
}
