package disk

import (
	"fmt"
	"math/rand"

	"repro/internal/des"
)

// FaultKind classifies an injected per-command fault.
type FaultKind int

const (
	// FaultNone is a clean completion.
	FaultNone FaultKind = iota
	// FaultTransient is a transient or latent-sector error: the mechanism
	// positions and transfers normally, but the command reports a medium
	// error (an uncorrectable ECC event). A retry of the same command
	// redraws the fault and usually succeeds — the dominant real-world
	// drive error mode.
	FaultTransient
	// FaultTimeout is a command that dies inside the drive: no mechanical
	// service is observed and the host learns of the loss only when its
	// command timer expires. The arm does not move.
	FaultTimeout
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultTimeout:
		return "timeout"
	default:
		return "none"
	}
}

// DefaultFaultTimeout is the host command-timer expiry used when a
// FaultModel does not set one: SCSI drivers of the prototype's era waited
// a quarter second to a few seconds before giving up on a command.
const DefaultFaultTimeout = 250 * des.Millisecond

// FaultModel parameterizes per-drive fault injection. Rates are per-command
// probabilities; they are deliberately enormous compared to real media
// error rates (~1e-8 per bit read) so that minutes of simulated time
// exercise the retry and failover machinery that years of real operation
// would.
type FaultModel struct {
	// TransientRate is the per-command probability of a transient medium
	// error (FaultTransient).
	TransientRate float64
	// TimeoutRate is the per-command probability of a command timeout
	// (FaultTimeout).
	TimeoutRate float64
	// TimeoutDelay is how long the host waits before declaring a command
	// dead; 0 means DefaultFaultTimeout.
	TimeoutDelay des.Time
	// Slow assigns fail-slow profiles to individual drives by index: the
	// drive keeps answering, just slower — persistently, in stutter
	// windows, or both. Nil or empty means every drive runs at full speed.
	Slow map[int]SlowProfile

	// LatentRate is the per-read-command probability that the media under
	// the command has rotted (a latent sector error): the read completes
	// with good status but returns garbage, and the copy stays bad until
	// rewritten. Only an end-to-end integrity check above the bus can
	// notice.
	LatentRate float64
	// CorruptRate is the per-read-command probability of transient path
	// corruption (a misdirected or bit-flipped transfer): the read returns
	// garbage once, but the media itself is fine and a reissue reads clean.
	CorruptRate float64
	// TornRate is the per-write-command probability of a torn write: the
	// command reports success but the copy on the platter is garbage, and
	// stays garbage until rewritten.
	TornRate float64
}

// Enabled reports whether the model can ever produce a fault.
func (m FaultModel) Enabled() bool { return m.TransientRate > 0 || m.TimeoutRate > 0 }

// CorruptionEnabled reports whether the model can ever corrupt data
// silently.
func (m FaultModel) CorruptionEnabled() bool {
	return m.LatentRate > 0 || m.CorruptRate > 0 || m.TornRate > 0
}

// SlowFor returns drive i's fail-slow profile (zero value when none).
func (m FaultModel) SlowFor(i int) SlowProfile { return m.Slow[i] }

// SlowProfile describes one drive's fail-slow behaviour: real arrays
// mostly degrade by getting slow (media retries, remapped sectors,
// vibration, firmware GC) long before they fail outright. The profile
// inflates the mechanical service time of every command; the host sees
// only the longer completion, exactly as with a real stuttering drive.
type SlowProfile struct {
	// Factor persistently multiplies every command's mechanical service
	// time. 0 or 1 means no persistent inflation; 4 means the drive takes
	// four times as long to position and transfer.
	Factor float64
	// StutterEvery is the mean gap between stutter-window starts (drawn
	// exponentially from the drive's seeded stream). 0 disables stutters.
	StutterEvery des.Time
	// StutterFor is the mean duration of a stutter window (exponential).
	StutterFor des.Time
	// StutterFactor multiplies mechanical service time for commands whose
	// service falls inside a stutter window (on top of Factor).
	StutterFactor float64
}

// Enabled reports whether the profile slows anything.
func (p SlowProfile) Enabled() bool {
	return p.Factor > 1 || p.StutterEvery > 0
}

// Validate rejects nonsensical profiles.
func (p SlowProfile) Validate() error {
	if p.Factor < 0 || (p.Factor > 0 && p.Factor < 1) {
		return fmt.Errorf("disk: slow factor %v must be 0 or >= 1", p.Factor)
	}
	if p.StutterEvery < 0 || p.StutterFor < 0 {
		return fmt.Errorf("disk: negative stutter interval/duration %v/%v", p.StutterEvery, p.StutterFor)
	}
	if p.StutterEvery > 0 {
		if p.StutterFor == 0 {
			return fmt.Errorf("disk: stutter windows enabled with zero duration")
		}
		if p.StutterFactor < 1 {
			return fmt.Errorf("disk: stutter factor %v must be >= 1", p.StutterFactor)
		}
	}
	return nil
}

// Validate rejects rates outside [0, 0.5] (individually) or summing to
// 0.9+. The bound guarantees that retry-until-success terminates quickly:
// the array retries a faulted command in-drive and then fails over, and
// both paths redraw the fault.
func (m FaultModel) Validate() error {
	if m.TransientRate < 0 || m.TransientRate > 0.5 {
		return fmt.Errorf("disk: transient fault rate %v outside [0, 0.5]", m.TransientRate)
	}
	if m.TimeoutRate < 0 || m.TimeoutRate > 0.5 {
		return fmt.Errorf("disk: timeout fault rate %v outside [0, 0.5]", m.TimeoutRate)
	}
	if m.TransientRate+m.TimeoutRate >= 0.9 {
		return fmt.Errorf("disk: combined fault rate %v too close to certainty", m.TransientRate+m.TimeoutRate)
	}
	if m.TimeoutDelay < 0 {
		return fmt.Errorf("disk: negative fault timeout %v", m.TimeoutDelay)
	}
	if m.LatentRate < 0 || m.LatentRate > 0.5 {
		return fmt.Errorf("disk: latent error rate %v outside [0, 0.5]", m.LatentRate)
	}
	if m.CorruptRate < 0 || m.CorruptRate > 0.5 {
		return fmt.Errorf("disk: corruption rate %v outside [0, 0.5]", m.CorruptRate)
	}
	if m.TornRate < 0 || m.TornRate > 0.5 {
		return fmt.Errorf("disk: torn write rate %v outside [0, 0.5]", m.TornRate)
	}
	if m.LatentRate+m.CorruptRate >= 0.9 {
		return fmt.Errorf("disk: combined read corruption rate %v too close to certainty", m.LatentRate+m.CorruptRate)
	}
	for i, p := range m.Slow {
		if i < 0 {
			return fmt.Errorf("disk: slow profile for negative drive index %d", i)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("drive %d: %w", i, err)
		}
	}
	return nil
}

// Timeout returns the configured or default command-timer expiry.
func (m FaultModel) Timeout() des.Time {
	if m.TimeoutDelay > 0 {
		return m.TimeoutDelay
	}
	return DefaultFaultTimeout
}

// FaultInjector draws faults for one drive from its own seeded stream, so
// fault sequences are reproducible and independent of every other source
// of randomness in a run (spindle phases, noise, workloads).
type FaultInjector struct {
	model FaultModel
	rng   *rand.Rand
}

// NewFaultInjector builds an injector for a validated model. A nil return
// means the model injects nothing (callers skip the draw entirely).
func NewFaultInjector(m FaultModel, seed int64) *FaultInjector {
	if !m.Enabled() {
		return nil
	}
	return &FaultInjector{model: m, rng: rand.New(rand.NewSource(seed))}
}

// Model returns the injector's configuration.
func (fi *FaultInjector) Model() FaultModel { return fi.model }

// Draw decides the fate of one command: exactly one uniform variate per
// command, deterministic in command order.
func (fi *FaultInjector) Draw() FaultKind {
	f := fi.rng.Float64()
	if f < fi.model.TimeoutRate {
		return FaultTimeout
	}
	if f < fi.model.TimeoutRate+fi.model.TransientRate {
		return FaultTransient
	}
	return FaultNone
}

// CorruptionInjector draws silent-corruption events for one drive from
// its own seeded stream, independent of the fault and slow streams
// (enabling corruption never perturbs which commands fault or stutter).
type CorruptionInjector struct {
	model FaultModel
	rng   *rand.Rand
}

// NewCorruptionInjector builds an injector for a validated model. A nil
// return means the model never corrupts (callers skip the draw entirely).
func NewCorruptionInjector(m FaultModel, seed int64) *CorruptionInjector {
	if !m.CorruptionEnabled() {
		return nil
	}
	return &CorruptionInjector{model: m, rng: rand.New(rand.NewSource(seed))}
}

// Draw decides the silent fate of one command: exactly one uniform
// variate per command regardless of opcode, deterministic in command
// order. Reads draw latent-vs-transient corruption; writes draw tearing.
func (ci *CorruptionInjector) Draw(write bool) (latent, corrupt, torn bool) {
	f := ci.rng.Float64()
	if write {
		return false, false, f < ci.model.TornRate
	}
	if f < ci.model.LatentRate {
		return true, false, false
	}
	if f < ci.model.LatentRate+ci.model.CorruptRate {
		return false, true, false
	}
	return false, false, false
}

// SlowState realizes one drive's SlowProfile: the persistent inflation
// factor plus a lazily generated stream of stutter windows, drawn from the
// drive's own seeded rng so slow behaviour is reproducible and independent
// of the transient-fault stream (enabling stutters never perturbs which
// commands fault).
type SlowState struct {
	prof             SlowProfile
	rng              *rand.Rand
	winStart, winEnd des.Time
	inited           bool
	// Stutters counts commands that fell inside a stutter window.
	Stutters int64
}

// NewSlowState builds the per-drive slow stream. A nil return means the
// profile slows nothing (callers skip the hook entirely).
func NewSlowState(p SlowProfile, seed int64) *SlowState {
	if !p.Enabled() {
		return nil
	}
	return &SlowState{prof: p, rng: rand.New(rand.NewSource(seed))}
}

// advance rolls the window stream forward so that winEnd > now, drawing
// new (start, duration) pairs as simulated time passes. Deterministic in
// the sequence of now values, which the DES makes deterministic.
func (s *SlowState) advance(now des.Time) {
	draw := func(mean des.Time) des.Time {
		return des.Time(s.rng.ExpFloat64() * float64(mean))
	}
	if !s.inited {
		s.inited = true
		s.winStart = draw(s.prof.StutterEvery)
		s.winEnd = s.winStart + draw(s.prof.StutterFor)
	}
	for now >= s.winEnd {
		s.winStart = s.winEnd + draw(s.prof.StutterEvery)
		s.winEnd = s.winStart + draw(s.prof.StutterFor)
	}
}

// Inflate returns the extra service time a command suffers: svc is the
// healthy mechanical service duration and now the time the mechanism
// started. stutter reports whether a stutter window contributed (so upper
// layers can attribute the slowness).
func (s *SlowState) Inflate(now, svc des.Time) (extra des.Time, stutter bool) {
	if f := s.prof.Factor; f > 1 {
		extra = des.Time((f - 1) * float64(svc))
	}
	if s.prof.StutterEvery > 0 {
		s.advance(now)
		if now >= s.winStart && now < s.winEnd {
			extra += des.Time((s.prof.StutterFactor - 1) * float64(svc))
			stutter = true
			s.Stutters++
		}
	}
	return extra, stutter
}
