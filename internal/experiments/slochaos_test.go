package experiments

import (
	"testing"
)

// TestSLOChaosExperiment runs the full slo-chaos experiment at test
// scale and checks the control plane's contract: the controller buys
// premium SLO compliance back under chaos, sheds strictly in priority
// order (best-effort first, premium never), and fully recovers to
// Normal once the faults clear. TestSameAtWorkersAndReruns holds both
// stages deterministic.
func TestSLOChaosExperiment(t *testing.T) {
	cfg := Config{TraceIOs: 600, IometerIOs: 300, Seed: 1}
	fig, err := SLOChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		v, ok := fig.Metrics[name]
		if !ok {
			t.Fatalf("metric %q missing; have %d metrics", name, len(fig.Metrics))
		}
		return v
	}

	// The tentpole claim: controller-on recovers measurable premium
	// compliance versus the identical run with the control plane off.
	offC, onC := get("gateway/premium/compliance_off"), get("gateway/premium/compliance_on")
	if onC <= offC {
		t.Errorf("controller did not improve premium compliance: off=%.1f%% on=%.1f%%", offC, onC)
	}
	if gain := get("gateway/premium/compliance_gain"); gain < 2 {
		t.Errorf("premium compliance gain %.2f%% (want a measurable >= 2%%)", gain)
	}

	// Shedding is strictly priority-ordered: premium never, best-effort
	// before (and at least as much as) standard.
	if v := get("gateway/premium/sheds_on"); v != 0 {
		t.Errorf("premium was shed %v times; the ladder must never shed premium", v)
	}
	be, std := get("gateway/best-effort/sheds_on"), get("gateway/standard/sheds_on")
	if be <= 0 {
		t.Error("best-effort was never shed; the brownout ladder did not engage")
	}
	if be < std {
		t.Errorf("standard shed more than best-effort (%v vs %v); shed order inverted", std, be)
	}
	if v := get("gateway/shed_429_on"); v <= 0 {
		t.Error("gateway counted no shed 429s with the controller on")
	}
	if v := get("gateway/shed_429_off"); v != 0 {
		t.Errorf("gateway counted %v shed 429s with the controller off", v)
	}

	// The ladder moved and recovered: escalations matched by
	// de-escalations, ending back at Normal.
	if v := get("gateway/escalations_on"); v <= 0 {
		t.Error("controller never escalated under chaos")
	}
	if up, down := get("gateway/escalations_on"), get("gateway/deescalations_on"); up != down {
		t.Errorf("escalations %v != deescalations %v; brownout did not fully recover", up, down)
	}
	if v := get("gateway/level_index_end_on"); v != 0 {
		t.Errorf("controller ended the run at level index %v, not Normal", v)
	}

	// Cluster stage: same shed discipline per brick, and the controller
	// must not cost premium anything.
	if v := get("cluster/premium/shed_on"); v != 0 {
		t.Errorf("cluster shed premium %v times", v)
	}
	if v := get("cluster/best-effort/shed_on"); v <= 0 {
		t.Error("cluster never shed best-effort; brick controllers did not engage")
	}
	if off, on := get("cluster/premium/slo_pct_off"), get("cluster/premium/slo_pct_on"); on < off {
		t.Errorf("cluster premium compliance regressed with the controller on: off=%.1f%% on=%.1f%%", off, on)
	}
	if v := get("cluster/escalations_on"); v <= 0 {
		t.Error("no cluster controller ever escalated")
	}

	// The figure carries the off/on p99 series.
	if len(fig.Series) != 2 {
		t.Fatalf("want 2 series (off/on), have %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			t.Errorf("series %q is empty", s.Label)
		}
	}
}
