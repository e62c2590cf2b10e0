package cluster

import (
	"errors"

	"repro/internal/core"
	"repro/internal/des"
)

// The per-brick circuit breaker keeps the router from paying a timeout (or
// an outage-long stall) on every request to a dead brick. Each brick walks
// a three-state machine on the router's shard:
//
//	Healthy — full traffic. Failures are counted; ErrCrashed or a run of
//	  consecutive failures trips the breaker straight to Open.
//	Suspect — the brick still serves traffic but is deprioritized: reads
//	  prefer Healthy replicas. Entered on any failure or when the brick's
//	  latency EWMA runs suspectFactor above the cluster-wide EWMA; left
//	  when the EWMA settles back under returnFactor.
//	Open — no traffic is routed to the brick at all. Entered on
//	  ErrCrashed or failThreshold consecutive failures. While Open the
//	  router sends half-open probes on the virtual clock with doubling
//	  backoff; a probe that completes closes the breaker (and starts the
//	  brick's backfill), a failed probe re-arms the next one.
//
// All transitions run on the router shard — brick results arrive there as
// messages — so the machine is deterministic under any worker count.
type Health int

const (
	// Healthy routes normally.
	Healthy Health = iota
	// Suspect routes, deprioritized.
	Suspect
	// Open routes nothing; half-open probes test the brick.
	Open
)

// String names the state for digests and tests.
func (s Health) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Open:
		return "open"
	default:
		return "?"
	}
}

// The breaker's thresholds.
const (
	// ewmaAlpha is the smoothing constant of the latency trackers: ~1/16
	// of each new sample, matching the drive-level health tracker's horizon.
	ewmaAlpha = 1.0 / 16
	// ewmaSamples is the minimum samples (per brick and cluster-wide)
	// before latency judgments engage.
	ewmaSamples = 16
	// A brick goes Suspect when its latency EWMA exceeds suspectFactor
	// times the cluster-wide EWMA, and returns to Healthy at returnFactor
	// times it or less.
	suspectFactor = 3.0
	returnFactor  = 1.5
	// failThreshold consecutive failures trip the breaker; ErrCrashed
	// trips it at once.
	failThreshold = 3
	// The first half-open probe goes probeAfter after a trip, doubling
	// per failed probe up to probeMax.
	probeAfter = 2 * des.Millisecond
	probeMax   = 20 * des.Millisecond
)

// brickState is one brick's router-side bookkeeping: breaker, latency
// tracker, probe schedule, and divergence log.
type brickState struct {
	state Health
	// dead marks a brick removed by DeclareDead: permanently Open, no
	// probes, no placements.
	dead bool

	consecFails int
	ewmaNs      float64
	samples     int64

	probeArmed   bool
	probeBackoff des.Time
	probeTries   int

	// div is the divergence log: extents whose replica on this brick
	// missed writes during an outage. divQ preserves first-diverged order
	// (the deterministic backfill order); cleared entries stay in divQ and
	// are skipped on pop.
	div  map[int64]*divEntry
	divQ []int64

	backfillActive bool
	backfill       des.Pacer
}

// divEntry tracks one stale extent on one brick.
type divEntry struct {
	// gen increments on every client write that had to skip this replica
	// while the entry was pending; a backfill copy snapshots gen at its
	// read and re-copies if it changed by the time the write lands.
	gen uint32
	// copying marks an in-flight backfill copy (the entry must not be
	// popped twice).
	copying bool
}

// noteSuccess feeds one successful brick completion into the breaker.
func (c *Cluster) noteSuccess(b int, lat des.Time) {
	st := &c.br[b]
	st.consecFails = 0
	ns := float64(lat) * 1000
	st.samples++
	if st.samples == 1 {
		st.ewmaNs = ns
	} else {
		st.ewmaNs += ewmaAlpha * (ns - st.ewmaNs)
	}
	c.allSamples++
	if c.allSamples == 1 {
		c.allEwmaNs = ns
	} else {
		c.allEwmaNs += ewmaAlpha * (ns - c.allEwmaNs)
	}
	if st.dead {
		return
	}
	switch st.state {
	case Healthy:
		if st.samples >= ewmaSamples && c.allSamples >= ewmaSamples &&
			st.ewmaNs > suspectFactor*c.allEwmaNs {
			st.state = Suspect
			c.ctr.Suspects++
		}
	case Suspect:
		if st.ewmaNs <= returnFactor*c.allEwmaNs {
			st.state = Healthy
		}
	}
}

// noteFailure feeds one failed brick interaction (sync submit error or
// failed completion) into the breaker. ErrOverload is backpressure, not
// brick damage, and never moves the state machine.
func (c *Cluster) noteFailure(b int, err error) {
	st := &c.br[b]
	if errors.Is(err, core.ErrOverload) {
		return
	}
	if errors.Is(err, core.ErrCrashed) {
		c.trip(b)
		return
	}
	st.consecFails++
	if st.consecFails >= failThreshold {
		c.trip(b)
		return
	}
	if st.state == Healthy && !st.dead {
		st.state = Suspect
		c.ctr.Suspects++
	}
}

// trip opens the breaker and arms the first half-open probe.
func (c *Cluster) trip(b int) {
	st := &c.br[b]
	if st.state == Open {
		return
	}
	st.state = Open
	st.consecFails = 0
	c.ctr.Trips++
	if st.dead {
		return
	}
	st.probeBackoff = probeAfter
	st.probeTries = 0
	c.armProbe(b)
}

// armProbe schedules the next half-open probe on the virtual clock.
func (c *Cluster) armProbe(b int) {
	st := &c.br[b]
	if st.probeArmed || st.dead || st.probeTries >= c.opts.ProbeTries {
		return
	}
	st.probeArmed = true
	at := c.rsim().Now() + st.probeBackoff
	c.rsim().At(at, func() { c.probe(b) })
}

// probe issues one half-open read against the brick. The probe is a real
// request through the normal link — in sharded mode it crosses to the
// brick's shard and back — so a "healthy" verdict means the data path
// works, not just that a flag flipped.
func (c *Cluster) probe(b int) {
	st := &c.br[b]
	st.probeArmed = false
	if st.dead || st.state != Open {
		return
	}
	st.probeTries++
	c.ctr.Probes++
	count := int(c.pm.extentSectors)
	if count > 8 {
		count = 8
	}
	c.brickSubmit(b, core.Read, 0, count, func(ok bool, err error) {
		if ok {
			c.closeBreaker(b)
			return
		}
		c.ctr.ProbeFails++
		st := &c.br[b]
		st.probeBackoff *= 2
		if st.probeBackoff > probeMax {
			st.probeBackoff = probeMax
		}
		c.armProbe(b)
	})
}

// closeBreaker returns an Open brick to service (probe success, or an
// explicit Recover) and kicks its backfill.
func (c *Cluster) closeBreaker(b int) {
	st := &c.br[b]
	if st.dead || st.state != Open {
		return
	}
	// Re-enter Healthy with fresh latency trackers: the outage's stalled
	// completions must not poison the EWMA and re-Suspect a working brick.
	st.state = Healthy
	st.consecFails = 0
	st.ewmaNs = 0
	st.samples = 0
	// Kick every serviceable brick's backfill, not just this one: a
	// parked backfill elsewhere may have been waiting for this brick to
	// come back as its copy source.
	for nb := range c.br {
		if s := &c.br[nb]; !s.dead && s.state != Open {
			c.startBackfill(nb)
		}
	}
}
