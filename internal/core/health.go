package core

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/des"
)

// Fail-slow health tracking: real drives mostly degrade by getting slow —
// media retries, remapped sectors, firmware stalls — long before they
// fail-stop, and a single stuttering drive drags the whole array's tail
// latency while every fail-stop detector stays silent. The tracker smooths
// each drive's clean foreground service times with an EWMA, compares it
// against the array median (its peers see the same workload, so the median
// is the healthy baseline), folds in the injected-fault counters from the
// retry/failover layer, and walks each drive through
//
//	Healthy -> Suspect -> Evicted
//
// Suspect drives keep serving but are deprioritized: duplicate-request
// groups and hedged reads prefer healthy mirrors, and requests that do
// land on a suspect drive carry a scheduling penalty so the drive's
// SATF/RSATF scan serves its exclusive work first. Eviction proactively
// fail-stops the drive — Thomasian's proactive-replacement argument — and
// the existing hot-spare rebuild machinery restores redundancy. A drive
// whose EWMA recovers (transient congestion, not degradation) drops back
// from Suspect to Healthy; Evicted is terminal.

// HealthState classifies one drive's fail-slow condition.
type HealthState int

const (
	// HealthHealthy tracks near the array median.
	HealthHealthy HealthState = iota
	// HealthSuspect is persistently slower than its peers (or surfacing
	// faults) and is deprioritized as a read target.
	HealthSuspect
	// HealthEvicted was proactively fail-stopped by the tracker.
	HealthEvicted
)

func (s HealthState) String() string {
	switch s {
	case HealthSuspect:
		return "suspect"
	case HealthEvicted:
		return "evicted"
	default:
		return "healthy"
	}
}

// HealthOptions configures the tracker. The zero value disables it; a
// zero field of an enabled tracker selects the default noted on it.
type HealthOptions struct {
	// Enabled turns tracking on.
	Enabled bool
	// SuspectRatio is the drive-EWMA over array-median ratio at which a
	// drive becomes Suspect. 0 means 2.
	SuspectRatio float64
	// EvictRatio is the ratio at which a drive is proactively evicted.
	// 0 means 3.5; negative disables eviction (detection only).
	EvictRatio float64
	// MinSamples is how many clean completions a drive must contribute
	// before its EWMA takes part in judgements. 0 means 32.
	MinSamples int64
	// Alpha is the EWMA smoothing factor. 0 means 0.125 (an 8-sample time
	// constant: fast enough to catch a stutter window, slow enough to
	// ignore one unlucky seek).
	Alpha float64
	// EvictFaults evicts at this many faults. 0 means 64; negative
	// disables fault-based eviction.
	EvictFaults int64
}

func (h HealthOptions) validate() error {
	if !h.Enabled {
		return nil
	}
	if h.SuspectRatio < 0 || h.Alpha < 0 || h.Alpha > 1 || h.MinSamples < 0 {
		return fmt.Errorf("core: invalid health options %+v", h)
	}
	if sr, er := h.suspectRatio(), h.evictRatio(); er > 0 && er < sr {
		return fmt.Errorf("core: evict ratio %v below suspect ratio %v", er, sr)
	}
	return nil
}

func (h HealthOptions) suspectRatio() float64 {
	if h.SuspectRatio == 0 {
		return 2
	}
	return h.SuspectRatio
}

// evictRatio returns the eviction threshold, <= 0 meaning disabled.
func (h HealthOptions) evictRatio() float64 {
	if h.EvictRatio == 0 {
		return 3.5
	}
	return h.EvictRatio
}

func (h HealthOptions) minSamples() int64 {
	if h.MinSamples == 0 {
		return 32
	}
	return h.MinSamples
}

func (h HealthOptions) alpha() float64 {
	if h.Alpha == 0 {
		return 0.125
	}
	return h.Alpha
}

// evictFaults returns the fault-count eviction threshold, <= 0 disabled.
func (h HealthOptions) evictFaults() int64 {
	if h.EvictFaults == 0 {
		return 64
	}
	return h.EvictFaults
}

// SuspectPenalty is the scheduling handicap a request carries when it is
// enqueued on a Suspect drive: about half a rotation plus an average seek
// on the reference drive, enough that a healthy mirror's scan claims a
// shared duplicate first without making the suspect drive unusable.
const SuspectPenalty = 4 * des.Millisecond

// DriveHealth reports the tracked health state of drive slot i (always
// HealthHealthy when tracking is disabled; an evicted or fail-stopped
// slot whose spare took over reports the spare's state).
func (a *Array) DriveHealth(i int) HealthState {
	if i < 0 || i >= len(a.drives) {
		return HealthEvicted
	}
	return a.drives[i].health
}

// suspectDrive reports whether d should be deprioritized as a read or
// hedge target.
func (a *Array) suspectDrive(d *drive) bool {
	return a.opts.Health.Enabled && d.health != HealthHealthy
}

// observeHealth feeds one clean foreground service time into the drive's
// EWMA and re-evaluates its state.
func (a *Array) observeHealth(d *drive, service des.Time) {
	h := &a.opts.Health
	us := float64(service)
	if d.healthN == 0 {
		d.ewmaUS = us
	} else {
		d.ewmaUS += h.alpha() * (us - d.ewmaUS)
	}
	d.healthN++
	a.evaluateHealth(d)
}

// healthFault counts one injected fault against the drive and re-evaluates
// (a timing-out drive can look clean on its surviving completions).
func (a *Array) healthFault(d *drive) {
	d.faultCount++
	a.evaluateHealth(d)
}

// medianEWMA computes the median drive EWMA over alive drives with enough
// samples, reusing the array's scratch buffer. Returns 0 when fewer than
// two drives qualify — one drive has no peers to be slower than.
func (a *Array) medianEWMA() float64 {
	s := a.healthScratch[:0]
	min := a.opts.Health.minSamples()
	for _, d := range a.drives {
		if !d.failed && d.healthN >= min {
			s = append(s, d.ewmaUS)
		}
	}
	a.healthScratch = s
	if len(s) < 2 {
		return 0
	}
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// evaluateHealth runs the state machine for one drive.
func (a *Array) evaluateHealth(d *drive) {
	h := &a.opts.Health
	if d.failed || d.health == HealthEvicted {
		return
	}
	var ratio float64
	if d.healthN >= h.minSamples() {
		if med := a.medianEWMA(); med > 0 {
			ratio = d.ewmaUS / med
		}
	}
	evict := (h.evictRatio() > 0 && ratio >= h.evictRatio()) ||
		(h.evictFaults() > 0 && d.faultCount >= h.evictFaults())
	// A drive that has surfaced this many injected faults is Suspect
	// whatever its latency.
	const suspectFaults = 16
	suspect := evict || ratio >= h.suspectRatio() || d.faultCount >= suspectFaults

	if evict && a.canEvict() {
		a.setHealth(d, HealthEvicted)
		a.faults.Evictions++
		if a.obsRec != nil {
			a.obsRec.Evictions++
		}
		// FailDrive reroutes the queue and starts the hot-spare rebuild;
		// the drive index is its current slot (spares are re-slotted).
		if err := a.FailDrive(d.id); err != nil {
			panic(fmt.Sprintf("core: evicting drive %d: %v", d.id, err))
		}
		return
	}
	switch {
	case suspect && d.health == HealthHealthy:
		a.setHealth(d, HealthSuspect)
	case !suspect && d.health == HealthSuspect:
		// The slowness cleared (transient congestion, not degradation).
		a.setHealth(d, HealthHealthy)
	}
}

// canEvict reports whether proactively failing a drive is safe and useful:
// the configuration must survive the loss (mirror redundancy), a spare
// must be ready to take over, and no rebuild may already be running —
// otherwise the drive stays Suspect and only loses read preference.
func (a *Array) canEvict() bool {
	return a.opts.Config.Dm >= 2 && len(a.spares) > 0 && a.rebuild == nil
}

func (a *Array) setHealth(d *drive, s HealthState) {
	d.health = s
	if d.rec != nil {
		d.rec.Health.Set(int64(s))
	}
}

// noteSlow attributes one inflated completion to its drive: the fail-slow
// model surfaces SlowBy/Stutter per completion precisely so slowness is
// distinguishable from queueing at the layer that can act on it.
func (a *Array) noteSlow(d *drive, comp bus.Completion) {
	a.faults.SlowCommands++
	if comp.Stutter {
		a.faults.Stutters++
	}
	if d.rec != nil {
		d.rec.Slow(comp.SlowBy, comp.Stutter)
	}
}
