package experiments

import (
	"testing"
)

// The chaos figure's acceptance bars: battery-backed NVRAM adopts every
// queued delayed copy across a power failure (nothing lost, nothing
// divergent afterwards); volatile NVRAM loses them all, and the recovery
// scan detects and repairs every resulting divergence — loss is visible
// in the counters, never silent. The cluster run must reconcile too:
// every remaining divergent copy is one the scan explicitly declared
// unrepairable (a composed failure took its last fresh source).
// TestSameAtWorkersAndReruns holds the cluster run's digest equal at 1, 2,
// and 4 epoch workers.
func TestChaosExperiment(t *testing.T) {
	fig, err := Chaos(Config{TraceIOs: 600, IometerIOs: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := fig.Metrics
	get := func(k string) float64 {
		v, ok := m[k]
		if !ok {
			t.Fatalf("metric %q missing", k)
		}
		return v
	}

	// Battery-backed: the snapshot survives, everything queued is adopted.
	if v := get("recovery/battery-backed/lost_delayed"); v != 0 {
		t.Errorf("battery-backed lost %v delayed copies, want 0", v)
	}
	if v := get("recovery/battery-backed/adopted"); v == 0 {
		t.Error("battery-backed crash adopted nothing; the micro never populated NVRAM")
	}
	if v := get("recovery/battery-backed/divergent_after"); v != 0 {
		t.Errorf("battery-backed recovery left %v divergent copies", v)
	}

	// Volatile: the table vanishes, the scan finds and repairs the damage.
	if v := get("recovery/volatile/adopted"); v != 0 {
		t.Errorf("volatile crash adopted %v copies, want 0", v)
	}
	if v := get("recovery/volatile/lost_delayed"); v == 0 {
		t.Error("volatile crash lost nothing; the micro never populated NVRAM")
	}
	if v := get("recovery/volatile/divergent_found"); v == 0 {
		t.Error("volatile recovery scan found no divergence")
	}
	if v := get("recovery/volatile/divergent_after"); v != 0 {
		t.Errorf("volatile recovery left %v divergent copies", v)
	}
	for _, mode := range []string{"volatile", "battery-backed"} {
		found := get("recovery/" + mode + "/divergent_found")
		rep := get("recovery/" + mode + "/repaired")
		unrep := get("recovery/" + mode + "/unrepairable")
		if found != rep+unrep {
			t.Errorf("%s: divergent_found %v != repaired %v + unrepairable %v", mode, found, rep, unrep)
		}
		if v := get("recovery/" + mode + "/crashes"); v != 1 {
			t.Errorf("%s: %v crashes, want 1", mode, v)
		}
		if v := get("recovery/" + mode + "/recoveries"); v != 1 {
			t.Errorf("%s: %v recoveries, want 1", mode, v)
		}
	}

	// Cluster: both scripted outages happened and recovered, and no
	// divergence survived beyond what was declared unrepairable.
	if v := get("cluster/crashes"); v != 2 {
		t.Errorf("cluster saw %v crashes, want 2", v)
	}
	if v := get("cluster/recoveries"); v != 2 {
		t.Errorf("cluster saw %v recoveries, want 2", v)
	}
	if after, unrep := get("cluster/divergent_after"), get("cluster/unrepairable"); after > unrep {
		t.Errorf("cluster left %v divergent copies with only %v unrepairable", after, unrep)
	}
	if get("cluster/ok") == 0 {
		t.Error("cluster completed no requests")
	}
	if get("cluster/slo_ok") > get("cluster/ok") {
		t.Error("SLO accounting exceeds completions")
	}
	if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
		t.Fatal("p99 series is empty")
	}
}
