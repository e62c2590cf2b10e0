// Package slo is the per-tenant SLO control plane: it closes the loop
// from observed windowed p99 latency back onto the actuators the array
// and gateway expose — hedging aggressiveness, background-work pacing
// (scrub, rebuild, recovery scan), admission depth, and per-tenant
// token-bucket rates.
//
// Tenants carry a tier (premium / standard / best-effort). Under
// sustained SLO violation the controller walks a brownout ladder,
// shedding in strict priority order: background work is deferred first,
// then best-effort admission, then standard; premium is never shed. Each
// step requires ViolateWindows consecutive violating windows, and each
// step back requires RecoverWindows consecutive compliant windows — the
// same Suspect/Evict hysteresis discipline the drive-health tracker uses,
// so a single p99 spike cannot trigger a brownout and a recovered system
// re-admits tiers one level at a time, in reverse shed order, without
// flapping.
//
// The controller is event-driven on the virtual clock: every Observe and
// Admit carries the caller's virtual timestamp, windows close lazily when
// the first event of a later window arrives, and no free-running timer
// events are scheduled — a stalled simulation therefore still runs out of
// events, and a disabled (nil) controller leaves every caller
// byte-identical.
//
// All methods must be called from the goroutine that owns the volume's
// simulator (the gateway run loop, or the brick's shard); the controller
// does no locking of its own.
package slo

import (
	"fmt"

	"repro/internal/des"
)

// Tier classifies a tenant's service priority. Shedding strictly follows
// tier order: higher-numbered tiers are shed first, and Premium is never
// shed by the controller.
type Tier uint8

const (
	Premium Tier = iota
	Standard
	BestEffort
	// NumTiers sizes per-tier arrays.
	NumTiers
)

func (t Tier) String() string {
	switch t {
	case Premium:
		return "premium"
	case Standard:
		return "standard"
	case BestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("slo.Tier(%d)", uint8(t))
	}
}

// ParseTier maps the canonical names (as used by CLI flags and config
// files) back to tiers.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "premium":
		return Premium, nil
	case "standard":
		return Standard, nil
	case "best-effort", "besteffort":
		return BestEffort, nil
	}
	return Standard, fmt.Errorf("slo: unknown tier %q (want premium, standard, or best-effort)", s)
}

// Level is the brownout ladder. Each escalation adds one degradation on
// top of the previous level's.
type Level uint8

const (
	// Normal applies no degradation.
	Normal Level = iota
	// DegradeBackground defers redundancy maintenance: scrub, rebuild,
	// and recovery-scan pacing drop to the background floor, the hedge
	// delay is clamped, and best-effort token buckets refill slower.
	DegradeBackground
	// ShedBestEffort additionally rejects best-effort admission outright
	// (429 with a Retry-After), throttles standard buckets, and tightens
	// the array's admission depth.
	ShedBestEffort
	// ShedStandard additionally rejects standard admission; only premium
	// traffic still reaches the array.
	ShedStandard
)

func (l Level) String() string {
	switch l {
	case Normal:
		return "normal"
	case DegradeBackground:
		return "background-deferred"
	case ShedBestEffort:
		return "best-effort-shed"
	case ShedStandard:
		return "standard-shed"
	default:
		return fmt.Sprintf("slo.Level(%d)", uint8(l))
	}
}

// backgroundFloorMBps is the pacing floor applied to scrub, rebuild, and
// recovery-scan bandwidth at DegradeBackground and above (existing pacing
// below the floor is kept).
const backgroundFloorMBps = 1

// depthFactor scales MaxQueueDepth at ShedBestEffort and above (floor 1)
// so queueing delay shrinks for the traffic still admitted. Admission
// control that is off stays off.
const depthFactor = 0.5

// Actuators bounds what each brownout level may do to the system. The
// zero value selects the documented defaults. The background pacing floor
// (1 MB/s) and the admission-depth factor (0.5) are fixed.
type Actuators struct {
	// HedgeAfter, when positive, pins the hedged-read delay during
	// brownout — hedging earlier trades extra load for tail latency,
	// which is the right trade once background work has stepped aside.
	// 0 leaves the configured delay alone.
	HedgeAfter des.Time
	// ThrottleScale multiplies the token-bucket refill rate of throttled
	// tiers (best-effort from DegradeBackground, standard from
	// ShedBestEffort). 0 means 0.5; values >= 1 disable throttling.
	ThrottleScale float64
}

// Options configures a Controller. The zero value of any field selects
// the default documented on it.
type Options struct {
	// Window is the evaluation window on the virtual clock. Default
	// 100 ms.
	Window des.Time
	// Targets is the per-tier p99 target; 0 leaves a tier unjudged (it is
	// still classified and shed by the ladder, it just contributes no
	// violation evidence).
	Targets [NumTiers]des.Time
	// ViolateWindows is how many consecutive violating windows escalate
	// one level. Default 3.
	ViolateWindows int
	// RecoverWindows is how many consecutive compliant windows
	// de-escalate one level. Default 4.
	RecoverWindows int
	// MinSamples is the fewest completions a tier needs in a window to be
	// judged; windows without evidence count as compliant. Default 8.
	MinSamples int
	// ShedRetryAfter is the virtual Retry-After quoted on brownout
	// rejections. Default one Window.
	ShedRetryAfter des.Time
	// Classify maps a tenant to its tier; nil classifies everyone
	// Standard.
	Classify func(tenant string) Tier
	// Actuators bounds the per-level degradations.
	Actuators Actuators
}

// Validate rejects options the controller cannot run with.
func (o Options) Validate() error {
	if o.Window < 0 || o.ShedRetryAfter < 0 || o.Actuators.HedgeAfter < 0 {
		return fmt.Errorf("slo: negative duration in options")
	}
	for t, tgt := range o.Targets {
		if tgt < 0 {
			return fmt.Errorf("slo: negative p99 target %v for tier %v", tgt, Tier(t))
		}
	}
	if o.ViolateWindows < 0 || o.RecoverWindows < 0 || o.MinSamples < 0 {
		return fmt.Errorf("slo: negative hysteresis count in options")
	}
	if o.Actuators.ThrottleScale < 0 {
		return fmt.Errorf("slo: negative throttle scale %v", o.Actuators.ThrottleScale)
	}
	return nil
}

func (o Options) window() des.Time {
	if o.Window == 0 {
		return 100 * des.Millisecond
	}
	return o.Window
}

func (o Options) violateWindows() int {
	if o.ViolateWindows == 0 {
		return 3
	}
	return o.ViolateWindows
}

func (o Options) recoverWindows() int {
	if o.RecoverWindows == 0 {
		return 4
	}
	return o.RecoverWindows
}

func (o Options) minSamples() int {
	if o.MinSamples == 0 {
		return 8
	}
	return o.MinSamples
}

func (o Options) shedRetryAfter() des.Time {
	if o.ShedRetryAfter == 0 {
		return o.window()
	}
	return o.ShedRetryAfter
}

func (a Actuators) throttleScale() float64 {
	if a.ThrottleScale == 0 {
		return 0.5
	}
	return a.ThrottleScale
}
