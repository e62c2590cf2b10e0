// Package sched implements the per-drive scheduling policies evaluated in
// the paper: FCFS, SSTF, LOOK and SATF for conventional layouts, and the
// replica-aware extensions RLOOK and RSATF for SR-Arrays (Sections 2.4 and
// 3.3). A scheduler instance is per-drive and may carry state (LOOK's scan
// direction); the drive's queue is owned by the array layer and passed in
// at each decision point.
package sched

import (
	"fmt"
	"math"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
)

// Replica is one complete copy of a request's data on a drive: usually a
// single extent, occasionally split in two where the layout wraps around a
// track, and more for a large transfer that fragments over several tracks.
//
// A queued replica is re-scored at every dispatch until it is picked, so
// the first evaluation caches its extents' prepared targets. A target is
// valid only for the geometry that prepared it and only while the extent
// stays as it was: a Request belongs to one drive's queue (a mirror
// duplicate is a separate Request) and its Extents must not change once it
// has been offered to a scheduler. Assigning a fresh Replica{Extents: ...}
// drops the cache.
type Replica struct {
	Extents []disk.Extent

	// tgt holds the prepared targets of the (at most len(tgt)) extents;
	// unprepared while tgt[0] is the zero Target.
	tgt [2]disk.Target
}

// access predicts the replica's service time from arm state arm at time
// now. A replica of more extents than the cache holds (a large fragmented
// transfer) is prepared afresh on every call.
func (r *Replica) access(now des.Time, arm disk.State, write bool, est calib.AccessEstimator) des.Time {
	n := len(r.Extents)
	if n > len(r.tgt) {
		return est.AccessRun(arm, r.Extents, write, now)
	}
	if !r.tgt[0].Prepared() {
		for i, e := range r.Extents {
			est.Prepare(&r.tgt[i], e)
		}
	}
	if n == 1 {
		return est.AccessPrepared(arm, &r.tgt[0], write, now)
	}
	// Fragmented replicas pay per-extent overheads; rank on the full run
	// so a contiguous copy wins for large transfers.
	return est.AccessRunPrepared(arm, r.tgt[:n], write, now)
}

// first returns the leading extent, which determines positioning cost.
func (r Replica) first() disk.Extent { return r.Extents[0] }

// totalSectors sums the extents.
func (r Replica) totalSectors() int {
	n := 0
	for _, e := range r.Extents {
		n += e.Count
	}
	return n
}

// Request is one schedulable physical I/O on a drive, with its rotational
// replica alternatives. All replicas of a block live on the same cylinder
// (the SR-Array invariant), so replica choice never changes seek order —
// only rotational cost.
type Request struct {
	ID       uint64
	Write    bool
	Arrive   des.Time
	Replicas []Replica
	// AllowedReplicas masks which replicas may serve a read (a replica can
	// be stale while a delayed write is still propagating). Nil means all.
	AllowedReplicas []bool
	// AllowedFn, if set, overrides AllowedReplicas with a live predicate,
	// evaluated at scheduling time. First-copy writes use it so that
	// consecutive writes to a chunk keep landing on the one replica that
	// is fresh, preserving the at-least-one-fresh-replica invariant.
	AllowedFn func(replica int) bool
	// Priority requests (head-tracking reference reads) preempt the scan
	// order.
	Priority bool
	// Background requests (rebuild reconstruction reads) yield to
	// foreground traffic: while a schedulable foreground request is
	// pending, a background request sits out the decision until it has
	// waited BackgroundMaxWait, after which it competes normally so
	// rebuild cannot starve under sustained load.
	Background bool
	// Hedged marks a post-dispatch duplicate of an in-flight read (the
	// array's hedged-read mechanism); scheduling treats it like any
	// foreground request, observability classes it separately.
	Hedged bool
	// Penalty handicaps the request in access-time-ranked policies (the
	// SATF family's score and RLOOK's same-cylinder choice): the array
	// layer sets it on duplicates queued to a Suspect fail-slow drive so
	// that a healthy mirror's scan claims the shared copy first. It biases
	// only the comparison, never the predicted time reported in a Choice.
	Penalty des.Time
	// Tag carries array-layer bookkeeping through the scheduler untouched.
	Tag interface{}
}

// allowed reports whether replica i may be used.
func (r *Request) allowed(i int) bool {
	if r.AllowedFn != nil {
		return r.AllowedFn(i)
	}
	if r.Write {
		return true
	}
	return r.AllowedReplicas == nil || r.AllowedReplicas[i]
}

// Choice is a scheduling decision.
type Choice struct {
	Index     int // index into the queue
	Replica   int // index into Request.Replicas
	Predicted des.Time
}

// Scheduler picks the next request (and replica) from a drive queue.
type Scheduler interface {
	Name() string
	Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool)
}

// New constructs a scheduler by policy name: "fcfs", "rfcfs" (FCFS order
// with rotationally-best replica choice, the host side of the TCQ
// experiment), "sstf", "look", "clook", "satf", "rlook", "rsatf", and the
// aged variants "asatf"/"rasatf" that bound starvation.
func New(policy string) (Scheduler, error) {
	switch policy {
	case "fcfs":
		return fcfs{}, nil
	case "rfcfs":
		return fcfs{rotational: true}, nil
	case "sstf":
		return sstf{}, nil
	case "look":
		return &look{}, nil
	case "clook":
		return &look{circular: true}, nil
	case "satf":
		return &satf{}, nil
	case "asatf":
		return &satf{aging: DefaultAgingWeight}, nil
	case "rlook":
		return &look{rotational: true}, nil
	case "rsatf":
		return &satf{rotational: true}, nil
	case "rasatf":
		return &satf{rotational: true, aging: DefaultAgingWeight}, nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", policy)
	}
}

// IsRotationAware reports whether a policy name exploits rotational
// replicas.
func IsRotationAware(policy string) bool {
	return policy == "rlook" || policy == "rsatf" || policy == "rfcfs" || policy == "rasatf"
}

// priorityPick returns any pending priority request (served FCFS among
// themselves), used by every policy: reference-sector reads must not
// starve behind a long scan or the head tracker drifts.
func priorityPick(queue []*Request) (int, bool) {
	for i, r := range queue {
		if r.Priority {
			return i, true
		}
	}
	return 0, false
}

// BackgroundMaxWait bounds how long a background request defers to
// foreground traffic. Within the window a background request is invisible
// whenever foreground work is pending; once it has waited this long it
// competes like any other request. 50 ms keeps rebuild reads off the
// critical path of bursty foreground traffic while guaranteeing rebuild
// progress at least every few revolutions under saturation.
const BackgroundMaxWait = 50 * des.Millisecond

// foregroundPending reports whether any schedulable non-background request
// is waiting. Only when one is does background deferral apply — an
// otherwise idle drive serves background work immediately.
func foregroundPending(queue []*Request) bool {
	for _, r := range queue {
		if !r.Background && schedulable(r) {
			return true
		}
	}
	return false
}

// anyBackground is the cheap pre-check that keeps the common (no
// background work) Pick path at a single flag scan.
func anyBackground(queue []*Request) bool {
	for _, r := range queue {
		if r.Background {
			return true
		}
	}
	return false
}

// deferBG reports whether request r sits out this decision: background,
// foreground pending, and still within the deferral window.
func deferBG(now des.Time, r *Request, fg bool) bool {
	return fg && r.Background && now-r.Arrive < BackgroundMaxWait
}

// schedulable reports whether any replica of the request may currently be
// used. A duplicate write on a mirror disk whose replicas are all stale is
// not schedulable there (a fresher mirror will claim it).
func schedulable(req *Request) bool {
	for i := range req.Replicas {
		if req.allowed(i) {
			return true
		}
	}
	return false
}

// bestAllowedReplica is the fused core of the scan loops: one pass over
// the request's replicas, evaluating allowed() exactly once per replica and
// estimating only the allowed ones. ok is false when no replica may be
// used (the request is not schedulable). Scanning policies use this
// instead of a schedulable() pre-pass followed by bestReplica, which
// walked every replica list twice — and evaluated live AllowedFn
// predicates twice per replica — on every Pick.
func bestAllowedReplica(now des.Time, arm disk.State, req *Request, est calib.AccessEstimator, rotational bool) (int, des.Time, bool) {
	bestIdx, bestT := -1, des.Time(math.Inf(1))
	for i := range req.Replicas {
		if !req.allowed(i) {
			continue
		}
		t := req.Replicas[i].access(now, arm, req.Write, est)
		if t < bestT {
			bestIdx, bestT = i, t
		}
		if !rotational {
			break // only the first allowed replica
		}
	}
	return bestIdx, bestT, bestIdx >= 0
}

// bestReplica returns the allowed replica of the request with the lowest
// predicted access time. When rotational is false only the primary (or
// first allowed) replica is considered — conventional schedulers do not
// know about rotational copies. The request must be schedulable.
func bestReplica(now des.Time, arm disk.State, req *Request, est calib.AccessEstimator, rotational bool) (int, des.Time) {
	idx, t, ok := bestAllowedReplica(now, arm, req, est, rotational)
	if !ok {
		panic("sched: bestReplica on an unschedulable request")
	}
	return idx, t
}

// --- FCFS / RFCFS ---

// fcfs serves requests in arrival order. With rotational=true (RFCFS) it
// still serves in arrival order but picks the rotationally closest
// replica of each request — the host contribution that remains valuable
// when the drive itself schedules (TCQ).
type fcfs struct {
	rotational bool
}

func (f fcfs) Name() string {
	if f.rotational {
		return "rfcfs"
	}
	return "fcfs"
}

func (f fcfs) Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool) {
	if len(queue) == 0 {
		return Choice{}, false
	}
	idx := -1
	if i, ok := priorityPick(queue); ok {
		idx = i
	} else {
		fg := anyBackground(queue) && foregroundPending(queue)
		for i, r := range queue {
			if !schedulable(r) || deferBG(now, r, fg) {
				continue
			}
			if idx < 0 || r.Arrive < queue[idx].Arrive {
				idx = i
			}
		}
	}
	if idx < 0 {
		return Choice{}, false
	}
	rep, t := bestReplica(now, arm, queue[idx], est, f.rotational)
	return Choice{Index: idx, Replica: rep, Predicted: t}, true
}

// --- SSTF ---

type sstf struct{}

func (sstf) Name() string { return "sstf" }

func (sstf) Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool) {
	if len(queue) == 0 {
		return Choice{}, false
	}
	if i, ok := priorityPick(queue); ok {
		rep, t := bestReplica(now, arm, queue[i], est, false)
		return Choice{Index: i, Replica: rep, Predicted: t}, true
	}
	fg := anyBackground(queue) && foregroundPending(queue)
	bestIdx, bestDist := -1, math.MaxInt64
	for i, r := range queue {
		if !schedulable(r) || deferBG(now, r, fg) {
			continue
		}
		d := absCyl(r.Replicas[0].first().Start.Cyl - arm.Cyl)
		if d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	if bestIdx < 0 {
		return Choice{}, false
	}
	rep, t := bestReplica(now, arm, queue[bestIdx], est, false)
	return Choice{Index: bestIdx, Replica: rep, Predicted: t}, true
}

func absCyl(d int) int {
	if d < 0 {
		return -d
	}
	return d
}

// --- LOOK / RLOOK ---

// look scans the cylinders alternately outward and inward, servicing the
// nearest request in the scan direction. With rotational=true (RLOOK) it
// additionally picks the rotationally closest replica of the chosen
// request (paper Section 2.4). With circular=true (C-LOOK) the scan only
// moves upward, jumping back to the lowest pending cylinder at the end of
// each sweep — trading a little mean latency for lower variance.
type look struct {
	rotational bool
	circular   bool
	dirUp      bool
	inited     bool
	// schedBuf memoizes schedulable() per queue slot within a single Pick:
	// a Pick can scan the queue up to three times (forward scan, flipped or
	// wrapped scan, same-cylinder selection) and AllowedFn predicates are
	// not free. Scratch only — valid for the duration of one Pick call.
	schedBuf []bool
}

func (l *look) Name() string {
	if l.circular {
		return "clook"
	}
	if l.rotational {
		return "rlook"
	}
	return "look"
}

func (l *look) Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool) {
	if len(queue) == 0 {
		return Choice{}, false
	}
	if !l.inited {
		l.dirUp, l.inited = true, true
	}
	if i, ok := priorityPick(queue); ok {
		rep, t := bestReplica(now, arm, queue[i], est, l.rotational)
		return Choice{Index: i, Replica: rep, Predicted: t}, true
	}
	if cap(l.schedBuf) < len(queue) {
		l.schedBuf = make([]bool, len(queue))
	}
	l.schedBuf = l.schedBuf[:len(queue)]
	fg := anyBackground(queue) && foregroundPending(queue)
	for i, r := range queue {
		l.schedBuf[i] = schedulable(r) && !deferBG(now, r, fg)
	}
	idx := l.scan(arm, queue)
	if idx < 0 {
		if l.circular {
			// Wrap: restart the upward sweep from the lowest pending
			// cylinder.
			idx = l.scan(disk.State{Cyl: -1}, queue)
		} else {
			l.dirUp = !l.dirUp
			idx = l.scan(arm, queue)
		}
	}
	if idx < 0 {
		return Choice{}, false
	}
	// Among same-cylinder requests, take the rotationally best (RLOOK) or
	// the earliest arrival (plain LOOK has no rotational knowledge).
	cyl := queue[idx].Replicas[0].first().Start.Cyl
	if l.rotational {
		bestIdx, bestRep := -1, 0
		bestT, bestScore := des.Time(math.Inf(1)), des.Time(math.Inf(1))
		for i, r := range queue {
			if !l.schedBuf[i] || r.Replicas[0].first().Start.Cyl != cyl {
				continue
			}
			rep, t := bestReplica(now, arm, r, est, true)
			if score := t + r.Penalty; score < bestScore {
				bestIdx, bestRep, bestT, bestScore = i, rep, t, score
			}
		}
		return Choice{Index: bestIdx, Replica: bestRep, Predicted: bestT}, true
	}
	bestIdx := idx
	for i, r := range queue {
		if l.schedBuf[i] && r.Replicas[0].first().Start.Cyl == cyl && r.Arrive < queue[bestIdx].Arrive {
			bestIdx = i
		}
	}
	rep, t := bestReplica(now, arm, queue[bestIdx], est, false)
	return Choice{Index: bestIdx, Replica: rep, Predicted: t}, true
}

// scan returns the queue index whose cylinder is nearest to the arm in the
// current direction, or -1 if none lies that way. Callers must have filled
// l.schedBuf for this queue.
func (l *look) scan(arm disk.State, queue []*Request) int {
	bestIdx, bestDist := -1, math.MaxInt64
	for i, r := range queue {
		if !l.schedBuf[i] {
			continue
		}
		c := r.Replicas[0].first().Start.Cyl
		var d int
		if l.dirUp {
			d = c - arm.Cyl
		} else {
			d = arm.Cyl - c
		}
		if d < 0 {
			continue
		}
		if d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return bestIdx
}

// --- SATF / RSATF ---

// DefaultAgingWeight is the credit per microsecond of waiting that the
// aged SATF variants subtract from a request's predicted access time.
// Greedy SATF can starve a request whose position stays inconvenient;
// with aging, every microsecond in the queue makes a request look
// cheaper, so its wait is bounded (cf. the batched/weighted variants in
// Jacobson & Wilkes and Seltzer et al.). The default bounds any wait to
// roughly (access-time range)/weight ≈ 200 ms on the reference drive, and
// that bound is not free: on the benchmark's array-read-closed (a 2x3
// SR-Array, 48 clients, 95% reads) it cuts write p99 from ~4.9 s to
// ~226 ms but raises read p50 from 12.9 to 23.8 ms (+85%). Only the
// single-disk, read-only ablation-aging case costs a few percent of mean
// latency.
const DefaultAgingWeight = 0.05

// satf greedily picks the request with the shortest predicted access time.
// With rotational=true (RSATF) all rotational replicas compete; otherwise
// only primaries do. A nonzero aging weight subtracts credit for time
// spent waiting.
type satf struct {
	rotational bool
	aging      float64
}

func (s *satf) Name() string {
	switch {
	case s.rotational && s.aging > 0:
		return "rasatf"
	case s.rotational:
		return "rsatf"
	case s.aging > 0:
		return "asatf"
	}
	return "satf"
}

func (s *satf) Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool) {
	if len(queue) == 0 {
		return Choice{}, false
	}
	if i, ok := priorityPick(queue); ok {
		rep, t := bestReplica(now, arm, queue[i], est, s.rotational)
		return Choice{Index: i, Replica: rep, Predicted: t}, true
	}
	fg := anyBackground(queue) && foregroundPending(queue)
	bestIdx, bestRep := -1, 0
	bestT := des.Time(math.Inf(1))
	bestScore := math.Inf(1)
	for i, r := range queue {
		if deferBG(now, r, fg) {
			continue
		}
		rep, t, ok := bestAllowedReplica(now, arm, r, est, s.rotational)
		if !ok {
			continue
		}
		score := float64(t+r.Penalty) - s.aging*float64(now-r.Arrive)
		if score < bestScore {
			bestIdx, bestRep, bestT, bestScore = i, rep, t, score
		}
	}
	if bestIdx < 0 {
		return Choice{}, false
	}
	return Choice{Index: bestIdx, Replica: bestRep, Predicted: bestT}, true
}

// PickObserver receives every successful scheduling decision of a wrapped
// scheduler. Implementations must be cheap and allocation-free: they run
// on the dispatch hot path.
type PickObserver interface {
	ObservePick(queueLen int, c Choice, ok bool)
}

// Observe wraps a scheduler so that every Pick is reported to o. The
// wrapper forwards Name and Pick unchanged, so wrapping never perturbs
// scheduling decisions — only watches them.
func Observe(s Scheduler, o PickObserver) Scheduler {
	return observed{inner: s, obs: o}
}

type observed struct {
	inner Scheduler
	obs   PickObserver
}

func (w observed) Name() string { return w.inner.Name() }

func (w observed) Pick(now des.Time, arm disk.State, queue []*Request, est calib.AccessEstimator) (Choice, bool) {
	c, ok := w.inner.Pick(now, arm, queue, est)
	w.obs.ObservePick(len(queue), c, ok)
	return c, ok
}
