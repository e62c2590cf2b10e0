// Package cluster turns N brick arrays into one replicated volume. A
// Cluster implements core.Volume over bricks that are themselves
// core.Volumes (normally *core.Array): logical extents are placed on R
// distinct bricks by a weighted rendezvous extent map, reads fail over
// across surviving replicas behind a per-brick circuit breaker, writes
// quorum onto whatever replicas are up and log the rest as divergence, and
// a paced backfill re-replicates stale extents when a brick returns (or a
// dead brick's extents onto survivors). The brick is the failure domain:
// everything one array's tolerance stack survives (drive loss, fail-slow,
// corruption), the cluster extends to the loss of the whole brick.
//
// A Cluster runs in one of two topologies, through one router path: every
// router-to-brick crossing goes through a send function, and the healthy
// path's crossings are closures cached on pooled request objects, so the
// router adds zero allocations over submitting to the brick directly.
//
//   - Colocated (New): the router and every brick share one des.Sim, and
//     the link is inline with zero latency — a crossing runs at once, so a
//     submission reaches the brick in the same call. The Cluster is a
//     fully functional core.Volume; this is what the service gateway
//     fronts.
//
//   - Sharded (NewSharded): the router lives on shard 0 of a des.Sharded
//     engine and each brick on its own shard, with every crossing paying
//     the link latency (which must be >= the engine's lookahead). Submit
//     must be called from shard-0 events; Drain, Crash and Recover are
//     unavailable (the caller owns the engine's run loop, and bricks crash
//     on their own shards) and aggregate accessors are only meaningful
//     while the engine is quiescent.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
)

// maxReplicas bounds R so per-piece replica state (and the cached
// completion closures the pooled fast path needs) can live inline.
const maxReplicas = 4

// SendFunc ships fn from the sender's shard to the receiver's, to run at
// the given absolute instant (des.Sharded.Send's shape).
type SendFunc func(from, to int, at des.Time, fn func())

// Options configures a Cluster.
type Options struct {
	// Replicas is R, the cross-brick replication factor (1..maxReplicas).
	// 1 means routing without redundancy: the extent map shards the volume
	// but a brick outage is client-visible, exactly as before the cluster
	// existed.
	Replicas int
	// ExtentSectors is the placement granularity (default 4096 sectors).
	ExtentSectors int64
	// Seed feeds the rendezvous hash; the extent map is a pure function of
	// (Seed, brick capacities, Replicas, ExtentSectors).
	Seed int64
	// Headroom reserves this fraction of the slot pool for DeclareDead
	// re-replication (default 1/16; the capacity side of the tradeoff).
	// Negative means exactly zero headroom — the full slot pool holds
	// extents, which is what makes a one-brick R=1 cluster address- and
	// size-identical to the bare brick.
	Headroom float64
	// ProbeTries bounds the half-open probes after a breaker trip (default
	// 64) before the brick is parked Open until Recover or DeclareDead.
	ProbeTries int
	// BackfillMBps paces backfill and re-replication copies, the same
	// bandwidth discipline as rebuild and scrub (default 32 MB/s).
	BackfillMBps float64
}

func (o *Options) fill() {
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	if o.ExtentSectors == 0 {
		o.ExtentSectors = 4096
	}
	if o.Headroom == 0 {
		o.Headroom = 1.0 / 16
	} else if o.Headroom < 0 {
		o.Headroom = 0
	}
	if o.ProbeTries == 0 {
		o.ProbeTries = 64
	}
	if o.BackfillMBps == 0 {
		o.BackfillMBps = 32
	}
}

// Counters is the cluster's own accounting, alongside the per-brick
// counters the bricks keep. After every outage has been recovered or
// declared dead and backfill has drained, Diverged == Backfilled +
// Abandoned reconciles exactly — every divergence-log entry terminates
// exactly one way.
type Counters struct {
	// ReadFailovers counts read attempts rerouted to another replica after
	// a failure; AllDown counts submissions rejected synchronously with
	// ErrCrashed because no replica of some extent was reachable.
	ReadFailovers int64
	AllDown       int64
	// Trips counts Healthy/Suspect → Open transitions; Suspects counts
	// entries into Suspect; Probes/ProbeFails count half-open probes.
	Trips      int64
	Suspects   int64
	Probes     int64
	ProbeFails int64
	// Diverged counts divergence-log entries created (an extent replica
	// that missed a write, or a dead brick's extent adopted empty by a
	// survivor); Backfilled counts entries cleared by a completed copy;
	// Abandoned counts entries written off (their brick was declared dead,
	// or no fresh source survives). Recopies counts extra copy rounds
	// forced by client writes dirtying an extent mid-copy.
	Diverged   int64
	Backfilled int64
	Abandoned  int64
	Recopies   int64
	// Adopted counts dead-brick replicas reassigned to a survivor;
	// Unplaced counts those no survivor could adopt (headroom exhausted).
	Adopted  int64
	Unplaced int64
}

// Cluster is a replicated volume over brick arrays. It implements
// core.Volume.
type Cluster struct {
	sims []*des.Sim // sims[0] = router; sims[1+b] = brick b
	send SendFunc
	lat  des.Time // 0 in the colocated topology
	bs   []core.Volume
	opts Options
	pm   *extentMap
	br   []brickState
	ctr  Counters

	allEwmaNs  float64
	allSamples int64

	pending int // in-flight logical requests
	free    *request
}

// New builds a colocated cluster: every brick must live on sim, and the
// router schedules on it too. Its link runs each crossing inline.
func New(sim *des.Sim, bricks []core.Volume, opts Options) (*Cluster, error) {
	sims := make([]*des.Sim, len(bricks)+1)
	sims[0] = sim
	for i, b := range bricks {
		if b.Sim() != sim {
			return nil, fmt.Errorf("cluster: brick %d lives on a different sim (want NewSharded for a sharded topology)", i)
		}
		sims[1+i] = sim
	}
	return build(sims, func(_, _ int, _ des.Time, fn func()) { fn() }, 0, bricks, opts)
}

// NewSharded builds a sharded cluster: the router on sims[0], brick b on
// sims[1+b] (which must be bricks[b].Sim()), every crossing sent through
// send at +lat. lat must satisfy the engine's lookahead bound.
func NewSharded(sims []*des.Sim, send SendFunc, lat des.Time, bricks []core.Volume, opts Options) (*Cluster, error) {
	if len(sims) != len(bricks)+1 {
		return nil, fmt.Errorf("cluster: %d sims for %d bricks (want bricks+1)", len(sims), len(bricks))
	}
	if send == nil || lat <= 0 {
		return nil, fmt.Errorf("cluster: sharded topology needs a send function and a positive link latency")
	}
	for i, b := range bricks {
		if b.Sim() != sims[1+i] {
			return nil, fmt.Errorf("cluster: brick %d is not on sims[%d]", i, 1+i)
		}
	}
	return build(sims, send, lat, bricks, opts)
}

func build(sims []*des.Sim, send SendFunc, lat des.Time, bricks []core.Volume, opts Options) (*Cluster, error) {
	if len(bricks) == 0 {
		return nil, fmt.Errorf("cluster: no bricks")
	}
	opts.fill()
	caps := make([]int64, len(bricks))
	for i, b := range bricks {
		caps[i] = b.DataSectors()
	}
	pm, err := buildExtentMap(caps, opts.Replicas, opts.ExtentSectors, opts.Headroom, opts.Seed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		sims: sims, send: send, lat: lat, bs: bricks, opts: opts, pm: pm,
		br: make([]brickState, len(bricks)),
	}
	for i := range c.br {
		c.br[i].div = make(map[int64]*divEntry)
	}
	return c, nil
}

func (c *Cluster) rsim() *des.Sim { return c.sims[0] }

// brickSubmit routes one raw brick I/O (probe or backfill copy) over the
// link and reports the outcome back on the router shard. Allocation here
// is fine: probes and copies are failure/background paths.
func (c *Cluster) brickSubmit(b int, op core.Op, off int64, count int, done func(ok bool, err error)) {
	brick := c.bs[b]
	bsim := c.sims[1+b]
	c.send(0, 1+b, c.rsim().Now()+c.lat, func() {
		err := brick.Submit(op, off, count, false, func(r core.Result) {
			ok, rerr := !r.Failed, r.Err
			c.send(1+b, 0, bsim.Now()+c.lat, func() { done(ok, rerr) })
		})
		if err != nil {
			c.send(1+b, 0, bsim.Now()+c.lat, func() { done(false, err) })
		}
	})
}

// --- request / piece pool -------------------------------------------------

// inlinePieces is the per-request inline piece capacity; requests spanning
// more extents spill to an allocated slice (rare for small I/O against
// large extents) and skip the pool on release.
const inlinePieces = 2

// request is one logical cluster I/O in flight.
type request struct {
	c    *Cluster
	next *request // pool free list

	op     core.Op
	off    int64
	count  int
	async  bool
	submit des.Time
	done   func(core.Result)

	// remaining counts pieces without a logical outcome; inflight counts
	// outstanding brick callbacks. The request completes at remaining==0
	// and recycles at inflight==0.
	remaining int
	inflight  int
	failed    bool
	err       error
	reported  bool

	pieces [inlinePieces]piece
	extra  []piece
}

// piece is one extent-aligned fragment of a request.
type piece struct {
	req *request
	ext int64
	// within/count locate the fragment inside the extent.
	within int64
	count  int

	done  bool
	tried [maxReplicas]bool

	// write fan-out state.
	pendingAcks int8
	okAcks      int8
	firstErr    error

	// hops[k] records replica slot k's attempt. Its crossings are built
	// once per pooled piece, so the healthy path allocates nothing. A slot
	// carries at most one attempt per piece life (reads mark it tried,
	// writes issue each target once), and a piece recycles only once every
	// attempt has landed, so nothing can reach a slot's closures from a
	// previous life.
	hops [maxReplicas]hop
}

// hop is one replica attempt: where issue sent it, and its crossing to the
// brick and back. The router writes off and b before sending toBrick; the
// brick writes res before sending toRouter. In the sharded topology the
// engine's epoch barrier orders each write before the other shard's read;
// in the colocated one each crossing runs inline, in program order.
type hop struct {
	off int64 // brick offset of the attempt
	b   int   // brick the attempt went to, fixed at issue time
	res core.Result

	toBrick   func()            // on the brick's shard: submit to brick b
	brickDone func(core.Result) // brick b's completion: store res, cross back
	toRouter  func()            // on the router shard: land res
}

// init wires piece p of request r: its back-pointer and the cached
// closures of every replica slot.
func (p *piece) init(r *request) {
	p.req = r
	c := r.c
	for k := 0; k < maxReplicas; k++ {
		k := k
		h := &p.hops[k]
		h.toBrick = func() {
			if err := c.bs[h.b].Submit(p.req.op, h.off, p.count, p.req.async, h.brickDone); err != nil {
				h.brickDone(core.Result{Failed: true, Err: err})
			}
		}
		h.brickDone = func(res core.Result) {
			h.res = res
			c.send(1+h.b, 0, c.sims[1+h.b].Now()+c.lat, h.toRouter)
		}
		h.toRouter = func() { p.replicaDone(k, h.res) }
	}
}

func (c *Cluster) getReq() *request {
	r := c.free
	if r != nil {
		c.free = r.next
		r.next = nil
		return r
	}
	r = &request{c: c}
	for i := range r.pieces {
		r.pieces[i].init(r)
	}
	return r
}

func (c *Cluster) putReq(r *request) {
	if r.extra != nil {
		return // spilled requests go to the garbage collector
	}
	r.done = nil
	r.err = nil
	r.next = c.free
	c.free = r
}

// newPiece hands out piece i of a request, spilling past the inline array.
// The spill slice is sized once per request (in Submit) and must never
// grow: the cached closures capture piece addresses.
func (r *request) newPiece(i int) *piece {
	if i < inlinePieces {
		return &r.pieces[i]
	}
	p := &r.extra[i-inlinePieces]
	if p.req == nil {
		p.init(r)
	}
	return p
}

func (p *piece) reset(ext, within int64, count int) {
	p.ext, p.within, p.count = ext, within, count
	p.done = false
	p.pendingAcks, p.okAcks = 0, 0
	p.firstErr = nil
	for k := range p.tried {
		p.tried[k] = false
	}
}

// --- submission -----------------------------------------------------------

// extentReachable reports whether any replica of extent e can take op
// right now, per the router's view (breaker + divergence log).
func (c *Cluster) extentReachable(e int64, op core.Op) bool {
	for k := 0; k < c.pm.r; k++ {
		l := c.pm.locOf(e, k)
		if l.brick < 0 {
			continue
		}
		st := &c.br[l.brick]
		if st.dead || st.state == Open {
			continue
		}
		if op == core.Read {
			if _, stale := st.div[e]; stale {
				continue
			}
		}
		return true
	}
	return false
}

// Submit issues one logical request (core.Volume). It returns ErrCrashed
// synchronously only when *every* replica of some covered extent is
// unreachable — a partial outage fails over silently; that distinction is
// what lets the gateway map ErrCrashed to 503 only for true full outages.
func (c *Cluster) Submit(op core.Op, off int64, count int, async bool, done func(core.Result)) error {
	if off < 0 || count <= 0 || off+int64(count) > c.DataSectors() {
		return fmt.Errorf("cluster: request [%d, %d) outside volume of %d sectors", off, off+int64(count), c.DataSectors())
	}
	first := off / c.pm.extentSectors
	last := (off + int64(count) - 1) / c.pm.extentSectors
	for e := first; e <= last; e++ {
		if !c.extentReachable(e, op) {
			c.ctr.AllDown++
			return core.ErrCrashed
		}
	}
	r := c.getReq()
	r.op, r.off, r.count, r.async = op, off, count, async
	r.submit = c.rsim().Now()
	r.done = done
	r.remaining = int(last - first + 1)
	r.inflight = 0
	r.failed, r.err, r.reported = false, nil, false
	if n := r.remaining - inlinePieces; n > 0 && n > len(r.extra) {
		r.extra = make([]piece, n)
	}
	c.pending++
	for i, e := 0, first; e <= last; i, e = i+1, e+1 {
		p := r.newPiece(i)
		start, end := e*c.pm.extentSectors, (e+1)*c.pm.extentSectors
		if off > start {
			start = off
		}
		if off+int64(count) < end {
			end = off + int64(count)
		}
		p.reset(e, start-e*c.pm.extentSectors, int(end-start))
		if op == core.Read {
			p.startRead()
		} else {
			p.startWrite()
		}
	}
	r.maybeRecycle()
	return nil
}

// SubmitBatch submits ops in order, stopping at the first error
// (core.Volume). The bricks' own batch amortization is not used: the
// cluster's routing already touches several bricks per batch.
func (c *Cluster) SubmitBatch(ops []core.BatchOp) (int, error) {
	n := 0
	for i := range ops {
		o := &ops[i]
		if err := c.Submit(o.Op, o.Off, o.Count, o.Async, o.Done); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// SubmitBatchErrs attempts every op and returns index-aligned errors
// (core.Volume).
func (c *Cluster) SubmitBatchErrs(ops []core.BatchOp) ([]error, int) {
	var errs []error
	n := 0
	for i := range ops {
		o := &ops[i]
		if err := c.Submit(o.Op, o.Off, o.Count, o.Async, o.Done); err != nil {
			if errs == nil {
				errs = make([]error, len(ops))
			}
			errs[i] = err
			continue
		}
		n++
	}
	return errs, n
}

// --- read path ------------------------------------------------------------

// pickReplica chooses the next untried replica for a read: placed, not
// dead, breaker not Open, not stale — Healthy bricks before Suspect ones,
// placement order breaking ties. Returns -1 when no candidate remains.
func (p *piece) pickReplica() int {
	c := p.req.c
	pick := -1
	for pass := 0; pass < 2; pass++ {
		want := Healthy
		if pass == 1 {
			want = Suspect
		}
		for k := 0; k < c.pm.r; k++ {
			if p.tried[k] {
				continue
			}
			l := c.pm.locOf(p.ext, k)
			if l.brick < 0 {
				continue
			}
			st := &c.br[l.brick]
			if st.dead || st.state != want {
				continue
			}
			if _, stale := st.div[p.ext]; stale {
				continue
			}
			pick = k
			break
		}
		if pick >= 0 {
			break
		}
	}
	return pick
}

// startRead issues the piece's next read attempt.
func (p *piece) startRead() {
	k := p.pickReplica()
	if k < 0 {
		p.fail(core.ErrCrashed)
		return
	}
	p.tried[k] = true
	p.issue(k, p.req.c.pm.locOf(p.ext, k))
}

// issue routes one replica attempt over the link through slot k's cached
// closures, without allocating.
func (p *piece) issue(k int, l replicaLoc) {
	c := p.req.c
	h := &p.hops[k]
	h.off, h.b = c.pm.brickOff(l, p.within), int(l.brick)
	p.req.inflight++
	c.send(0, 1+h.b, c.rsim().Now()+c.lat, h.toBrick)
}

// replicaDone lands one brick completion (or synchronous rejection) on the
// router shard. The breaker hears about the brick the attempt went to:
// DeclareDead may have re-placed slot k on another brick since.
func (p *piece) replicaDone(k int, r core.Result) {
	c := p.req.c
	if p.req.inflight == 0 {
		panic("cluster: replica completion with no attempt in flight")
	}
	p.req.inflight--
	if r.Failed {
		c.noteFailure(p.hops[k].b, r.Err)
	} else {
		c.noteSuccess(p.hops[k].b, r.Done-r.Submit)
	}
	if p.req.op == core.Read {
		p.readAttemptDone(!r.Failed)
	} else {
		p.writeAckDone(k, !r.Failed, r.Err)
	}
	p.req.maybeRecycle()
}

// readAttemptDone resolves one read attempt: a success completes the
// piece; a failure fails over to the next replica at once until none
// remain.
func (p *piece) readAttemptDone(ok bool) {
	if p.done {
		return
	}
	if ok {
		p.succeed()
		return
	}
	p.req.c.ctr.ReadFailovers++
	p.startRead()
}

// --- write path -----------------------------------------------------------

// startWrite fans the piece out to every placed, routable replica. Replicas
// behind an Open breaker (or on a dead brick) are logged as divergent;
// replicas already divergent are skipped with their entry dirtied so an
// in-flight backfill copy re-copies. Submit's reachability precheck
// guarantees at least one target exists.
func (p *piece) startWrite() {
	c := p.req.c
	var targets [maxReplicas]int8
	nt := 0
	for k := 0; k < c.pm.r; k++ {
		l := c.pm.locOf(p.ext, k)
		if l.brick < 0 {
			continue
		}
		st := &c.br[l.brick]
		if st.dead || st.state == Open {
			c.diverge(int(l.brick), p.ext)
			continue
		}
		if ent, stale := st.div[p.ext]; stale {
			ent.gen++
			continue
		}
		targets[nt] = int8(k)
		nt++
	}
	if nt == 0 {
		// Raced a breaker trip between the precheck and the fan-out.
		p.fail(core.ErrCrashed)
		return
	}
	p.pendingAcks = int8(nt)
	for i := 0; i < nt; i++ {
		k := int(targets[i])
		p.issue(k, c.pm.locOf(p.ext, k))
	}
}

// writeAckDone retires slot k's ack. A failed replica diverges (the write
// may not have reached its media) on whichever brick holds slot k now; the
// piece succeeds if any replica acked.
func (p *piece) writeAckDone(k int, ok bool, err error) {
	c := p.req.c
	if ok {
		p.okAcks++
	} else {
		if l := c.pm.locOf(p.ext, k); l.brick >= 0 {
			c.diverge(int(l.brick), p.ext)
		}
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	p.pendingAcks--
	if p.pendingAcks > 0 || p.done {
		return
	}
	if p.okAcks > 0 {
		p.succeed()
	} else {
		err := p.firstErr
		if err == nil {
			err = core.ErrCrashed
		}
		p.fail(err)
	}
}

// --- completion -----------------------------------------------------------

func (p *piece) succeed() {
	p.done = true
	p.req.pieceDone()
}

func (p *piece) fail(err error) {
	p.done = true
	r := p.req
	r.failed = true
	if r.err == nil {
		r.err = err
	}
	r.pieceDone()
}

func (r *request) pieceDone() {
	r.remaining--
	if r.remaining > 0 || r.reported {
		return
	}
	r.reported = true
	c := r.c
	c.pending--
	if r.done != nil {
		r.done(core.Result{
			Op: r.op, Off: r.off, Count: r.count, Async: r.async,
			Submit: r.submit, Done: c.rsim().Now(),
			Failed: r.failed, Err: r.err,
		})
	}
}

// maybeRecycle returns the request to the pool once the logical outcome is
// reported and no brick callback can still arrive.
func (r *request) maybeRecycle() {
	if r.reported && r.remaining == 0 && r.inflight == 0 {
		r.c.putReq(r)
	}
}

// --- core.Volume ----------------------------------------------------------

// Sim returns the router's simulator (shard 0 in a sharded topology).
func (c *Cluster) Sim() *des.Sim { return c.sims[0] }

// DataSectors is the replicated logical capacity: raw brick capacity
// divided by R, minus placement headroom — capacity traded for surviving
// brick loss, the cluster-level instance of the paper's tradeoff.
func (c *Cluster) DataSectors() int64 { return c.pm.extents * c.pm.extentSectors }

// Disks sums the bricks' drives.
func (c *Cluster) Disks() int {
	n := 0
	for _, b := range c.bs {
		n += b.Disks()
	}
	return n
}

// Idle reports no in-flight requests, no pending or active backfill, and
// every brick idle. Only meaningful in a colocated topology (or a
// quiescent sharded engine).
func (c *Cluster) Idle() bool {
	if c.pending > 0 {
		return false
	}
	for b := range c.br {
		st := &c.br[b]
		if st.backfillActive {
			return false
		}
		if len(st.div) > 0 && !st.dead && st.state != Open {
			return false
		}
	}
	for b, v := range c.bs {
		if c.br[b].dead {
			// A dead brick never drains (it is typically still crashed);
			// the cluster no longer owes it anything.
			continue
		}
		if !v.Idle() {
			return false
		}
	}
	return true
}

// Drain steps the router's simulator until Idle, bounded by maxTime.
// Unavailable in a sharded topology, where the caller owns the engine.
func (c *Cluster) Drain(maxTime des.Time) bool {
	if c.lat > 0 {
		panic("cluster: Drain on a sharded cluster (run the engine instead)")
	}
	sim := c.rsim()
	deadline := sim.Now() + maxTime
	for !c.Idle() {
		if !sim.Step() || sim.Now() > deadline {
			return c.Idle()
		}
	}
	return true
}

// Faults sums the bricks' fault counters.
func (c *Cluster) Faults() core.FaultCounters {
	var t core.FaultCounters
	for _, b := range c.bs {
		f := b.Faults()
		t.Transients += f.Transients
		t.Timeouts += f.Timeouts
		t.Retries += f.Retries
		t.Failovers += f.Failovers
		t.FailedReads += f.FailedReads
		t.FailedWrites += f.FailedWrites
		t.RebuildsStarted += f.RebuildsStarted
		t.RebuildsDone += f.RebuildsDone
		t.LostChunks += f.LostChunks
		t.SlowCommands += f.SlowCommands
		t.Stutters += f.Stutters
		t.Evictions += f.Evictions
		t.LatentErrors += f.LatentErrors
		t.TornWrites += f.TornWrites
		t.CorruptReads += f.CorruptReads
		t.SilentReads += f.SilentReads
		t.VerifyDetected += f.VerifyDetected
		t.RepairsQueued += f.RepairsQueued
		t.RepairsDone += f.RepairsDone
		t.RepairsDropped += f.RepairsDropped
		t.Unrepairable += f.Unrepairable
	}
	return t
}

// Hedges sums the bricks' in-array hedge counters.
func (c *Cluster) Hedges() core.HedgeCounters {
	var t core.HedgeCounters
	for _, b := range c.bs {
		h := b.Hedges()
		t.Issued += h.Issued
		t.Won += h.Won
		t.Lost += h.Lost
		t.Cancelled += h.Cancelled
	}
	return t
}

// Sheds sums the bricks' admission counters.
func (c *Cluster) Sheds() core.ShedCounters {
	var t core.ShedCounters
	for _, b := range c.bs {
		s := b.Sheds()
		t.Overload += s.Overload
		t.Deadline += s.Deadline
	}
	return t
}

// Tuning reports brick 0's tuning (bricks are tuned in lockstep through
// SetTuning).
func (c *Cluster) Tuning() core.Tuning { return c.bs[0].Tuning() }

// SetTuning fans the tuning out to every brick.
func (c *Cluster) SetTuning(t core.Tuning) error {
	for i, b := range c.bs {
		if err := b.SetTuning(t); err != nil {
			return fmt.Errorf("cluster: brick %d: %w", i, err)
		}
	}
	return nil
}

// Crashed reports a full-cluster outage: every brick down.
func (c *Cluster) Crashed() bool {
	for _, b := range c.bs {
		if !b.Crashed() {
			return false
		}
	}
	return true
}

// Crash power-fails every brick (colocated topologies only — the router
// must be able to reach the bricks synchronously).
func (c *Cluster) Crash() error {
	if c.lat > 0 {
		return fmt.Errorf("cluster: Crash on a sharded cluster (crash bricks on their own shards)")
	}
	for i, b := range c.bs {
		if b.Crashed() {
			continue
		}
		if err := b.Crash(); err != nil {
			return fmt.Errorf("cluster: brick %d: %w", i, err)
		}
		c.trip(i)
	}
	return nil
}

// Recover powers every crashed brick back on and reopens its route.
func (c *Cluster) Recover() error {
	if c.lat > 0 {
		return fmt.Errorf("cluster: Recover on a sharded cluster (recover bricks on their own shards)")
	}
	for i, b := range c.bs {
		if !b.Crashed() {
			continue
		}
		if err := b.Recover(); err != nil {
			return fmt.Errorf("cluster: brick %d: %w", i, err)
		}
		c.closeBreaker(i)
	}
	return nil
}

// Recovery sums the bricks' crash/recovery counters.
func (c *Cluster) Recovery() core.RecoveryCounters {
	var t core.RecoveryCounters
	for _, b := range c.bs {
		r := b.Recovery()
		t.Crashes += r.Crashes
		t.Recoveries += r.Recoveries
		t.LostDelayed += r.LostDelayed
		t.Adopted += r.Adopted
		t.Scanned += r.Scanned
		t.DivergentFound += r.DivergentFound
		t.RepairsQueued += r.RepairsQueued
		t.Repaired += r.Repaired
		t.RepairsDropped += r.RepairsDropped
		t.Unrepairable += r.Unrepairable
		t.RecoveryTime += r.RecoveryTime
	}
	return t
}

var _ core.Volume = (*Cluster)(nil)

// --- cluster-specific surface ---------------------------------------------

// State reports brick b's breaker state.
func (c *Cluster) State(b int) Health { return c.br[b].state }

// Counters snapshots the cluster-level accounting.
func (c *Cluster) Counters() Counters { return c.ctr }

// DivergencePending reports the live divergence-log entries across all
// bricks — 0 once backfill has fully reconciled.
func (c *Cluster) DivergencePending() int {
	n := 0
	for b := range c.br {
		n += len(c.br[b].div)
	}
	return n
}
