package cluster

import (
	"fmt"

	"repro/internal/core"
)

// Backfill is the cluster's re-replication path: every extent replica that
// missed writes during an outage (or was adopted empty by a survivor after
// DeclareDead) sits in its brick's divergence log until a paced background
// copy — read the extent from a fresh replica, write it to the stale one —
// clears it. Pacing uses the des.Pacer that rebuild, scrub and the
// recovery scan use, charged one extent per copy at BackfillMBps: each
// copy starts one interval after the previous one settles, so backfill
// competes for bandwidth like any other background class instead of
// flooding a just-recovered brick.
//
// The log's lifecycle invariant is exact: every entry ever created
// terminates as precisely one of backfilled or abandoned, so after the
// cluster drains,
//
//	Counters.Diverged == Counters.Backfilled + Counters.Abandoned
//
// always reconciles. Client writes that arrive while an extent is being
// copied dirty the entry (a generation bump); the copy observes the bump
// when its write lands and re-copies, so a cleared entry is always fresh.

// diverge logs extent e stale on brick b (idempotent while pending).
func (c *Cluster) diverge(b int, e int64) {
	st := &c.br[b]
	if _, ok := st.div[e]; ok {
		return
	}
	st.div[e] = &divEntry{}
	st.divQ = append(st.divQ, e)
	c.ctr.Diverged++
}

// startBackfill begins (or resumes) brick b's paced backfill after its
// breaker closes.
func (c *Cluster) startBackfill(b int) {
	st := &c.br[b]
	if st.backfillActive || st.dead || len(st.div) == 0 {
		return
	}
	st.backfillActive = true
	c.rsim().At(st.backfill.Ready(c.rsim().Now()), func() { c.backfillStep(b) })
}

// backfillStep copies the next pending extent onto brick b. One extent per
// pacing interval: the next step is armed only after this copy resolves.
func (c *Cluster) backfillStep(b int) {
	st := &c.br[b]
	if !st.backfillActive {
		return
	}
	if st.dead || st.state == Open {
		// The brick went away again mid-backfill (the double-crash case):
		// park with every remaining entry intact; the next recovery (or
		// DeclareDead) takes over.
		st.backfillActive = false
		return
	}
	var e int64
	found := false
	for len(st.divQ) > 0 {
		e = st.divQ[0]
		st.divQ = st.divQ[1:]
		if ent, ok := st.div[e]; ok && !ent.copying {
			found = true
			break
		}
	}
	if !found {
		st.backfillActive = false
		return
	}
	st.div[e].copying = true
	c.copyExtent(b, e, st.div[e].gen)
}

// copyExtent runs one extent copy: read from a fresh replica, write to the
// stale one, then settle the entry.
func (c *Cluster) copyExtent(b int, e int64, gen uint32) {
	src := c.freshSource(e, b)
	if src < 0 {
		if !c.sourceMayReturn(e, b) {
			// Every other replica is dead or unplaced: this copy can never
			// be sourced. Write the entry off instead of retrying forever.
			st := &c.br[b]
			if _, ok := st.div[e]; ok {
				delete(st.div, e)
				c.ctr.Abandoned++
			}
			c.paceNext(b)
			return
		}
		// A potential source is merely Open — it may come back. Park this
		// brick's backfill with the entry pending; the source's breaker
		// closing will kick every parked backfill awake.
		st := &c.br[b]
		if ent, ok := st.div[e]; ok {
			ent.copying = false
			st.divQ = append(st.divQ, e)
		}
		st.backfillActive = false
		return
	}
	srcOff := c.pm.brickOff(c.locOn(e, src), 0)
	n := int(c.pm.extentSectors)
	c.brickSubmit(src, core.Read, srcOff, n, func(ok bool, err error) {
		if !ok {
			c.noteFailure(src, err)
			c.settleCopy(b, e, gen, false, err)
			return
		}
		st := &c.br[b]
		if st.dead || st.state == Open {
			c.settleCopy(b, e, gen, false, core.ErrCrashed)
			return
		}
		dst := c.locOn(e, b)
		if dst.brick != int32(b) {
			// The extent moved off this brick while the read was in
			// flight (DeclareDead raced the copy); drop the work.
			c.settleCopy(b, e, gen, false, nil)
			return
		}
		c.brickSubmit(b, core.Write, c.pm.brickOff(dst, 0), n, func(ok bool, err error) {
			if !ok {
				c.noteFailure(b, err)
			}
			c.settleCopy(b, e, gen, ok, err)
		})
	})
}

// settleCopy resolves one finished (or aborted) extent copy and paces the
// next step.
func (c *Cluster) settleCopy(b int, e int64, gen uint32, ok bool, err error) {
	st := &c.br[b]
	ent, live := st.div[e]
	if live {
		ent.copying = false
		switch {
		case !ok:
			// Failed copy: the entry stays pending for the next recovery
			// (or abandonment). Requeue it behind the survivors.
			st.divQ = append(st.divQ, e)
		case ent.gen != gen:
			// A client write dirtied the extent mid-copy: go around again.
			c.ctr.Recopies++
			st.divQ = append(st.divQ, e)
		default:
			delete(st.div, e)
			c.ctr.Backfilled++
		}
	}
	c.paceNext(b)
}

// paceNext arms brick b's next backfill step one pacing interval out, or
// parks the loop when nothing (or no route) remains.
func (c *Cluster) paceNext(b int) {
	st := &c.br[b]
	if st.dead || st.state == Open || len(st.div) == 0 {
		st.backfillActive = false
		return
	}
	// Every step runs at or after the pacer's ready instant, so this charge
	// spaces the next copy one interval from the one that just settled.
	now := c.rsim().Now()
	st.backfill.Take(now, c.pm.extentSectors*512, c.opts.BackfillMBps)
	c.rsim().At(st.backfill.Ready(now), func() { c.backfillStep(b) })
}

// sourceMayReturn reports whether any replica of e other than b's sits on
// a brick that could ever serve again (placed and not declared dead).
func (c *Cluster) sourceMayReturn(e int64, b int) bool {
	for k := 0; k < c.pm.r; k++ {
		l := c.pm.locOf(e, k)
		if l.brick < 0 || int(l.brick) == b {
			continue
		}
		if !c.br[l.brick].dead {
			return true
		}
	}
	return false
}

// freshSource picks the best brick holding a fresh replica of extent e,
// excluding brick `not`: Healthy preferred, then Suspect, placement order
// breaking ties. Returns -1 when no fresh replica is reachable.
func (c *Cluster) freshSource(e int64, not int) int {
	for pass := 0; pass < 2; pass++ {
		want := Healthy
		if pass == 1 {
			want = Suspect
		}
		for k := 0; k < c.pm.r; k++ {
			l := c.pm.locOf(e, k)
			if l.brick < 0 || int(l.brick) == not {
				continue
			}
			st := &c.br[l.brick]
			if st.dead || st.state != want {
				continue
			}
			if _, stale := st.div[e]; stale {
				continue
			}
			return int(l.brick)
		}
	}
	return -1
}

// locOn returns extent e's replica location on brick b (zero replicaLoc
// with brick -1 if the brick no longer holds it).
func (c *Cluster) locOn(e int64, b int) replicaLoc {
	for k := 0; k < c.pm.r; k++ {
		if l := c.pm.locOf(e, k); int(l.brick) == b {
			return l
		}
	}
	return replicaLoc{brick: unplaced}
}

// DeclareDead removes brick b from the cluster permanently: its breaker is
// parked Open, its pending divergence entries are written off as
// Abandoned, and every extent replica it held is adopted by the best
// surviving brick with headroom (becoming a fresh divergence entry there,
// cleared by that brick's backfill). Colocated and sharded topologies
// alike — DeclareDead is pure router state plus background copies.
func (c *Cluster) DeclareDead(b int) error {
	if b < 0 || b >= len(c.bs) {
		return fmt.Errorf("%w: DeclareDead(%d) with %d bricks", core.ErrDriveIndex, b, len(c.bs))
	}
	st := &c.br[b]
	if st.dead {
		return fmt.Errorf("cluster: brick %d already declared dead", b)
	}
	st.dead = true
	if st.state != Open {
		st.state = Open
		c.ctr.Trips++
	}
	st.backfillActive = false
	// Abandon the dead brick's own log: those copies will never land.
	for _, e := range st.divQ {
		if _, ok := st.div[e]; ok {
			delete(st.div, e)
			c.ctr.Abandoned++
		}
	}
	st.divQ = st.divQ[:0]
	// Re-replicate: walk extents in order (determinism) and hand each of
	// the dead brick's replicas to the rendezvous runner-up.
	for e := int64(0); e < c.pm.extents; e++ {
		for k := 0; k < c.pm.r; k++ {
			if c.pm.locOf(e, k).brick != int32(b) {
				continue
			}
			nb := c.pm.adopt(e, k, func(x int) bool { return c.br[x].dead })
			if nb < 0 {
				c.ctr.Unplaced++
				continue
			}
			c.ctr.Adopted++
			// The adopted slot holds nothing yet: it is divergent by
			// construction and backfills like any outage entry.
			c.diverge(nb, e)
		}
	}
	for nb := range c.br {
		if !c.br[nb].dead && c.br[nb].state != Open {
			c.startBackfill(nb)
		}
	}
	return nil
}
