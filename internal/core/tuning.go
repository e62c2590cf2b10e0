package core

import (
	"fmt"

	"repro/internal/des"
)

// Tuning is the runtime-adjustable slice of Options — the actuators an SLO
// controller (or an operator) may step while the array is live: hedging
// aggressiveness, admission depth, and the pacing of every class of
// background work. MaxQueueDepth and RebuildMBps start from their Options
// counterparts, the rest from their defaults; 0 selects the documented
// default / adaptive mode. Setters validate exactly like New, so a live
// array can never be tuned into a configuration construction would have
// rejected. Array.Tuning reports the background rates in effect, never 0.
type Tuning struct {
	// HedgeAfter is the hedged-read delay: 0 (the default) means adaptive
	// p99-derived, positive pins it. Ignored unless Options.Hedge enabled
	// hedging at construction.
	HedgeAfter des.Time
	// MaxQueueDepth is the admission-control shed depth
	// (Options.MaxQueueDepth); 0 disables shedding.
	MaxQueueDepth int
	// RebuildMBps paces hot-spare reconstruction — an active rebuild
	// re-paces from its next chunk. 0 means DefaultRebuildMBps.
	RebuildMBps float64
	// ScrubMBps paces the background scrubber — the active pass re-paces
	// from its next chunk, and future StartScrub calls with MBps 0 inherit
	// it. 0 means DefaultScrubMBps.
	ScrubMBps float64
	// RecoveryScanMBps paces the post-crash divergence scan — an active
	// scan re-paces from its next batch. 0 means DefaultRecoveryScanMBps.
	RecoveryScanMBps float64
}

// Tuning snapshots the array's current actuator settings: the configured
// rates, or an active scrub pass's own rate while one runs. The returned
// value round-trips through SetTuning unchanged.
func (a *Array) Tuning() Tuning {
	t := Tuning{
		HedgeAfter:       a.hedgeAfter,
		MaxQueueDepth:    a.opts.MaxQueueDepth,
		RebuildMBps:      a.opts.RebuildMBps,
		ScrubMBps:        a.scrubMBps,
		RecoveryScanMBps: a.scanMBps,
	}
	if s := a.scrub; s != nil && !s.done {
		t.ScrubMBps = s.opts.MBps
	}
	return t
}

// SetTuning applies t, re-pacing any background work already in flight:
// the scrubber and recovery scan pick up their new bandwidth at the next
// chunk, rebuild at the next chunk start, hedging and admission control at
// the next submit. Invalid values are rejected atomically (nothing is
// applied).
func (a *Array) SetTuning(t Tuning) error {
	if t.HedgeAfter < 0 {
		return fmt.Errorf("core: negative hedge delay %v", t.HedgeAfter)
	}
	if t.MaxQueueDepth < 0 {
		return fmt.Errorf("core: negative max queue depth %d", t.MaxQueueDepth)
	}
	if t.RebuildMBps < 0 || t.ScrubMBps < 0 || t.RecoveryScanMBps < 0 {
		return fmt.Errorf("core: negative background bandwidth in %+v", t)
	}
	a.hedgeAfter = t.HedgeAfter
	a.opts.MaxQueueDepth = t.MaxQueueDepth
	a.opts.RebuildMBps = orDefault(t.RebuildMBps, DefaultRebuildMBps)
	a.scrubMBps = orDefault(t.ScrubMBps, DefaultScrubMBps)
	if s := a.scrub; s != nil && !s.done {
		s.opts.MBps = a.scrubMBps
	}
	a.scanMBps = orDefault(t.RecoveryScanMBps, DefaultRecoveryScanMBps)
	return nil
}

// orDefault resolves a background rate: 0 selects def.
func orDefault(mbps, def float64) float64 {
	if mbps == 0 {
		return def
	}
	return mbps
}
