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
// is the healthy baseline), and walks each drive through
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
	// HealthSuspect is persistently slower than its peers and is
	// deprioritized as a read target.
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

// Health tracker constants. A drive must contribute healthMinSamples
// clean completions before its EWMA takes part in judgements; the EWMA
// smooths with healthAlpha (a 4-sample time constant: fast enough to
// catch a stutter window within a short run, slow enough to ignore one
// unlucky seek); a drive whose EWMA reaches healthSuspectRatio times the
// array median becomes Suspect.
const (
	healthMinSamples   = 16
	healthAlpha        = 0.25
	healthSuspectRatio = 2
)

// HealthOptions configures the tracker. The zero value disables it.
type HealthOptions struct {
	// Enabled turns tracking on.
	Enabled bool
	// EvictRatio is the drive-EWMA over array-median ratio at which a
	// drive is proactively evicted. 0 means 3.5; negative disables
	// eviction (detection only). A positive ratio may not be below the
	// Suspect ratio, 2.
	EvictRatio float64
}

func (h HealthOptions) validate() error {
	if er := h.evictRatio(); h.Enabled && er > 0 && er < healthSuspectRatio {
		return fmt.Errorf("core: evict ratio %v below suspect ratio %v", er, healthSuspectRatio)
	}
	return nil
}

// evictRatio returns the eviction threshold, <= 0 meaning disabled.
func (h HealthOptions) evictRatio() float64 {
	if h.EvictRatio == 0 {
		return 3.5
	}
	return h.EvictRatio
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
	us := float64(service)
	if d.healthN == 0 {
		d.ewmaUS = us
	} else {
		d.ewmaUS += healthAlpha * (us - d.ewmaUS)
	}
	d.healthN++
	a.evaluateHealth(d)
}

// medianEWMA computes the median drive EWMA over alive drives with enough
// samples, reusing the array's scratch buffer. Returns 0 when fewer than
// two drives qualify — one drive has no peers to be slower than.
func (a *Array) medianEWMA() float64 {
	s := a.healthScratch[:0]
	for _, d := range a.drives {
		if !d.failed && d.healthN >= healthMinSamples {
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
	if d.failed || d.health == HealthEvicted {
		return
	}
	var ratio float64
	if d.healthN >= healthMinSamples {
		if med := a.medianEWMA(); med > 0 {
			ratio = d.ewmaUS / med
		}
	}
	er := a.opts.Health.evictRatio()
	evict := er > 0 && ratio >= er
	suspect := evict || ratio >= healthSuspectRatio

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
