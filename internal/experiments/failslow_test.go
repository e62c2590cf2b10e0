package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestFailSlowRecovery is the tentpole acceptance check: one fail-slow
// drive must visibly degrade the p99 read tail, and hedging + eviction
// must recover at least half of the gap back toward the all-healthy tail.
func TestFailSlowRecovery(t *testing.T) {
	fig, err := FailSlow(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	healthy := fig.At("p99", 0)
	slow := fig.At("p99", 1)
	hedged := fig.At("p99", 2)
	mitigated := fig.At("p99", 3)
	for _, v := range []float64{healthy, slow, hedged, mitigated} {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("p99 series incomplete: healthy=%v slow=%v hedged=%v mitigated=%v",
				healthy, slow, hedged, mitigated)
		}
	}
	gap := slow - healthy
	if gap <= 0 {
		t.Fatalf("fail-slow drive did not degrade the tail: healthy p99 %.2fms, slow p99 %.2fms", healthy, slow)
	}
	if recovered := slow - mitigated; recovered < 0.5*gap {
		t.Errorf("hedging+eviction recovered %.2f of a %.2fms p99 gap (%.0f%%), want >= 50%%",
			recovered, gap, 100*recovered/gap)
	}
	// Hedging alone must already improve the tail (the eviction scenario
	// builds on it).
	if hedged >= slow {
		t.Errorf("hedging did not improve p99: slow %.2fms, hedged %.2fms", slow, hedged)
	}
	if mitigated > hedged {
		t.Errorf("eviction made the tail worse than hedging alone: %.2fms > %.2fms", mitigated, hedged)
	}

	// Counter side-channels: hedges fired in the hedge scenarios, exactly
	// one eviction in the eviction scenario, and the slow drive's commands
	// were attributed.
	if fig.Metrics["hedges_issued/slow+hedge"] == 0 {
		t.Error("no hedges issued in the hedging scenario")
	}
	if got := fig.Metrics["evictions/slow+hedge+evict"]; got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if fig.Metrics["slow_commands/slow"] == 0 {
		t.Error("no slow commands attributed in the unmitigated scenario")
	}
	if fig.Metrics["slow_commands/healthy"] != 0 {
		t.Error("slow commands attributed in the healthy scenario")
	}
}

// TestFailSlowZeroModelMatchesHealthy: scenario 0 runs with no fault model
// and no mitigation options — it must behave exactly like the plain
// closed loop (sanity: enabling the new subsystems only when asked).
func TestFailSlowZeroModelMatchesHealthy(t *testing.T) {
	c := Config{IometerIOs: 400, Seed: 1}
	a, err := runFailSlow(false, false, false, c.IometerIOs, c.Seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runFailSlow(false, false, false, c.IometerIOs, c.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("healthy scenario not reproducible:\n%+v\n%+v", a, b)
	}
	if a.hedges != (core.HedgeCounters{}) || a.evictions != 0 || a.slowCommands != 0 {
		t.Fatalf("healthy scenario engaged mitigation machinery: %+v", a)
	}
}
