package slo

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Controller is the control loop. It buckets completions into fixed
// windows of virtual time, judges each closed window against the per-tier
// p99 targets, walks the brownout ladder with hysteresis, and steps the
// volume's actuators through core.Volume.SetTuning.
//
// A nil *Controller is valid and inert: Admit always admits, RateScale is
// 1, Observe is a no-op — callers need no enabled-flag branches.
type Controller struct {
	vol  core.Volume
	opts Options

	// base is the tuning captured at attach; brownout levels derive their
	// clamps from it and Normal restores it exactly.
	base core.Tuning

	level      Level
	winIdx     int64
	started    bool
	violStreak int
	okStreak   int

	// lats holds the current window's completion latencies per tier;
	// failures are recorded as +Inf so an outage reads as a p99 violation.
	lats [NumTiers][]des.Time
	// dist accumulates the whole-run latency distribution per tier for
	// State (failures recorded as one virtual hour, the histogram's
	// effective overflow).
	dist [NumTiers]obs.Hist

	ctr         counters
	transitions []Transition
}

type counters struct {
	windows        int64
	judged         int64
	violations     int64
	escalations    int64
	deescalations  int64
	tierViolations [NumTiers]int64
	observed       [NumTiers]int64
	failures       [NumTiers]int64
	sheds          [NumTiers]int64
}

// Transition records one ladder move, stamped with the virtual end time
// of the window that triggered it.
type Transition struct {
	At   des.Time `json:"at_us"`
	From Level    `json:"-"`
	To   Level    `json:"-"`
}

// New attaches a controller to vol. The volume's current tuning becomes
// the Normal baseline that recovery restores.
func New(vol core.Volume, opts Options) (*Controller, error) {
	if vol == nil {
		return nil, fmt.Errorf("slo: nil volume")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Controller{vol: vol, opts: opts, base: vol.Tuning()}, nil
}

// Tier classifies a tenant via Options.Classify (Standard when nil).
func (c *Controller) Tier(tenant string) Tier {
	if c == nil || c.opts.Classify == nil {
		return Standard
	}
	t := c.opts.Classify(tenant)
	if t >= NumTiers {
		t = Standard
	}
	return t
}

// Level reports the current brownout level.
func (c *Controller) Level() Level {
	if c == nil {
		return Normal
	}
	return c.level
}

// Admit decides whether tenant's request may proceed at virtual time now.
// A false return means the request is shed by the brownout ladder; the
// returned duration is the Retry-After hint to quote.
func (c *Controller) Admit(now des.Time, tenant string) (des.Time, bool) {
	if c == nil {
		return 0, true
	}
	c.advance(now)
	tier := c.Tier(tenant)
	shed := false
	switch tier {
	case BestEffort:
		shed = c.level >= ShedBestEffort
	case Standard:
		shed = c.level >= ShedStandard
	}
	if shed {
		c.ctr.sheds[tier]++
		return c.opts.shedRetryAfter(), false
	}
	return 0, true
}

// RateScale is the multiplier the gateway applies to tenant's token-bucket
// refill rate: 1 at Normal, Actuators.ThrottleScale for best-effort from
// DegradeBackground and for standard from ShedBestEffort.
func (c *Controller) RateScale(tenant string) float64 {
	if c == nil || c.level == Normal {
		return 1
	}
	s := c.opts.Actuators.throttleScale()
	if s >= 1 {
		return 1
	}
	switch c.Tier(tenant) {
	case BestEffort:
		return s
	case Standard:
		if c.level >= ShedBestEffort {
			return s
		}
	}
	return 1
}

// Observe records one completed request for tenant: lat is its service
// latency, failed marks 5xx-class outcomes (recorded as +Inf latency so
// failures count against the target).
func (c *Controller) Observe(now des.Time, tenant string, lat des.Time, failed bool) {
	if c == nil {
		return
	}
	c.advance(now)
	tier := c.Tier(tenant)
	c.ctr.observed[tier]++
	if failed {
		c.ctr.failures[tier]++
		lat = des.Time(math.Inf(1))
		c.dist[tier].Observe(des.Hour)
	} else {
		c.dist[tier].Observe(lat)
	}
	c.lats[tier] = append(c.lats[tier], lat)
}

// advance lazily closes every window that ended before now. The first
// event anchors the window grid; long empty gaps at Normal fast-forward
// in one step so idle volumes cost nothing.
func (c *Controller) advance(now des.Time) {
	idx := int64(now / c.opts.window())
	if !c.started {
		c.started = true
		c.winIdx = idx
		return
	}
	for c.winIdx < idx {
		if c.level == Normal && c.violStreak == 0 && c.empty() {
			// Nothing buffered and nothing to recover from: every
			// remaining window is trivially compliant.
			c.ctr.windows += idx - c.winIdx
			c.okStreak += int(idx - c.winIdx)
			c.winIdx = idx
			return
		}
		c.closeWindow()
		c.winIdx++
	}
}

func (c *Controller) empty() bool {
	for t := range c.lats {
		if len(c.lats[t]) > 0 {
			return false
		}
	}
	return true
}

// closeWindow judges window c.winIdx and walks the ladder.
func (c *Controller) closeWindow() {
	violating, judged := false, false
	for t := range c.lats {
		target := c.opts.Targets[t]
		if target > 0 && len(c.lats[t]) >= c.opts.minSamples() {
			judged = true
			if stats.NearestRank(c.lats[t], 99, 100) > target {
				violating = true
				c.ctr.tierViolations[t]++
			}
		}
		c.lats[t] = c.lats[t][:0]
	}
	c.ctr.windows++
	if judged {
		c.ctr.judged++
	}
	end := des.Time(c.winIdx+1) * c.opts.window()
	if violating {
		c.ctr.violations++
		c.violStreak++
		c.okStreak = 0
		if c.violStreak >= c.opts.violateWindows() && c.level < ShedStandard {
			c.step(end, c.level+1)
			c.ctr.escalations++
			c.violStreak = 0
		}
	} else {
		c.okStreak++
		c.violStreak = 0
		if c.okStreak >= c.opts.recoverWindows() && c.level > Normal {
			c.step(end, c.level-1)
			c.ctr.deescalations++
			c.okStreak = 0
		}
	}
	if c.level > Normal {
		// Re-assert the clamps every window: chaos events (a scrub pass
		// armed mid-brownout, a recovery scan started by Recover) create
		// fresh pacing state the last apply never saw.
		c.apply()
	}
}

func (c *Controller) step(at des.Time, to Level) {
	c.transitions = append(c.transitions, Transition{At: at, From: c.level, To: to})
	c.level = to
	c.apply()
}

// apply derives the tuning for the current level from the attach-time
// baseline and installs it. Derivations only ever tighten relative to
// base, so Normal restores base exactly.
func (c *Controller) apply() {
	t := c.base
	if c.level >= DegradeBackground {
		t.RebuildMBps = min(c.base.RebuildMBps, backgroundFloorMBps)
		t.ScrubMBps = min(c.base.ScrubMBps, backgroundFloorMBps)
		t.RecoveryScanMBps = min(c.base.RecoveryScanMBps, backgroundFloorMBps)
		if ha := c.opts.Actuators.HedgeAfter; ha > 0 {
			t.HedgeAfter = ha
		}
	}
	if c.level >= ShedBestEffort && c.base.MaxQueueDepth > 0 {
		d := int(float64(c.base.MaxQueueDepth)*depthFactor + 0.5)
		if d < 1 {
			d = 1
		}
		if d < t.MaxQueueDepth {
			t.MaxQueueDepth = d
		}
	}
	if err := c.vol.SetTuning(t); err != nil {
		// Every field is a clamp of values SetTuning already accepted.
		panic(fmt.Sprintf("slo: apply rejected: %v", err))
	}
}

// TierCounters is the per-tier slice of a State snapshot. MeanUS and
// P99US summarize the whole-run latency distribution (obs.Hist buckets,
// so P99US is the conservative bucket upper bound).
type TierCounters struct {
	Observed   int64   `json:"observed"`
	Failures   int64   `json:"failures"`
	Violations int64   `json:"violations"`
	Sheds      int64   `json:"sheds"`
	MeanUS     float64 `json:"mean_us"`
	P99US      int64   `json:"p99_us"`
}

// State is a deterministic snapshot of the controller for /v1/stats and
// experiment digests.
type State struct {
	Level          string                 `json:"level"`
	LevelIndex     int                    `json:"level_index"`
	ViolateStreak  int                    `json:"violate_streak"`
	OKStreak       int                    `json:"ok_streak"`
	Windows        int64                  `json:"windows"`
	Judged         int64                  `json:"judged"`
	Violations     int64                  `json:"violations"`
	Escalations    int64                  `json:"escalations"`
	Deescalations  int64                  `json:"deescalations"`
	Tiers          [NumTiers]TierCounters `json:"tiers"`
	TransitionsLog string                 `json:"transitions"`
}

// State snapshots the controller. Safe on a nil controller (zero State).
func (c *Controller) State() State {
	if c == nil {
		return State{Level: Normal.String()}
	}
	s := State{
		Level:         c.level.String(),
		LevelIndex:    int(c.level),
		ViolateStreak: c.violStreak,
		OKStreak:      c.okStreak,
		Windows:       c.ctr.windows,
		Judged:        c.ctr.judged,
		Violations:    c.ctr.violations,
		Escalations:   c.ctr.escalations,
		Deescalations: c.ctr.deescalations,
	}
	for t := range s.Tiers {
		s.Tiers[t] = TierCounters{
			Observed:   c.ctr.observed[t],
			Failures:   c.ctr.failures[t],
			Violations: c.ctr.tierViolations[t],
			Sheds:      c.ctr.sheds[t],
			MeanUS:     c.dist[t].MeanUS(),
			P99US:      c.dist[t].QuantileUS(0.99),
		}
	}
	var b strings.Builder
	for i, tr := range c.transitions {
		if i == 32 {
			fmt.Fprintf(&b, " …+%d", len(c.transitions)-i)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f:%s→%s", float64(tr.At), tr.From, tr.To)
	}
	s.TransitionsLog = b.String()
	return s
}

// String renders the snapshot compactly for digests and logs.
func (s State) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "level=%s windows=%d judged=%d viol=%d esc=%d deesc=%d",
		s.Level, s.Windows, s.Judged, s.Violations, s.Escalations, s.Deescalations)
	for t := Tier(0); t < NumTiers; t++ {
		tc := s.Tiers[t]
		fmt.Fprintf(&b, " %s[obs=%d fail=%d viol=%d shed=%d p99us=%d]",
			t, tc.Observed, tc.Failures, tc.Violations, tc.Sheds, tc.P99US)
	}
	if s.TransitionsLog != "" {
		fmt.Fprintf(&b, " transitions[%s]", s.TransitionsLog)
	}
	return b.String()
}
