package experiments

import (
	"fmt"
	"testing"
)

// TestScrubTolerance is the tentpole acceptance check for the
// silent-corruption stack: with no verification the pre-poisoned latent
// errors must reach callers silently; with verify-on-read plus a scrub
// pass no corrupt data may be returned undetected and at least 95% of the
// injected poison must be repaired by the end of the run.
func TestScrubTolerance(t *testing.T) {
	fig, err := Scrub(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"SR-Array 2x3x1", "RAID-10 3x1x2"}
	rates := []float64{0, 2, 8, 32}
	for _, lb := range labels {
		if got := fig.At("silent/"+lb, 0); !(got > 0) {
			t.Errorf("%s: unprotected baseline returned no corrupt data silently (silent=%v); injection did not bite", lb, got)
		}
		if got := fig.At("repaired%/"+lb, 0); got != 0 {
			t.Errorf("%s: baseline repaired %v%% with no repair machinery on", lb, got)
		}
		for _, r := range rates[1:] {
			if got := fig.At("silent/"+lb, r); got != 0 {
				t.Errorf("%s rate=%g: %v reads returned corrupt data despite verification", lb, r, got)
			}
			key := fmt.Sprintf("scrub_passes/%s/rate=%g", lb, r)
			if fig.Metrics[key] != 1 {
				t.Errorf("%s rate=%g: scrub passes = %v, want 1", lb, r, fig.Metrics[key])
			}
			if fig.Metrics[fmt.Sprintf("scrub_verified/%s/rate=%g", lb, r)] == 0 {
				t.Errorf("%s rate=%g: scrubber verified nothing", lb, r)
			}
		}
		// The highest-rate pass must have cleaned at least 95% of the
		// injected population (verify-on-read repairs what the workload
		// touches; the scrubber covers the cold rest).
		if got := fig.At("repaired%/"+lb, 32); got < 95 {
			t.Errorf("%s: repaired %.1f%% of injected poison, want >= 95%%", lb, got)
		}
	}
	// The poison population must be the same across scenarios of one
	// configuration (same injection seed), and detection must engage.
	for _, lb := range labels {
		base := fig.Metrics[fmt.Sprintf("injected/%s/rate=0", lb)]
		if base == 0 {
			t.Fatalf("%s: nothing injected", lb)
		}
		for _, r := range rates[1:] {
			if got := fig.Metrics[fmt.Sprintf("injected/%s/rate=%g", lb, r)]; got != base {
				t.Errorf("%s rate=%g: injected %v, want %v", lb, r, got, base)
			}
			det := fig.Metrics[fmt.Sprintf("verify_detected/%s/rate=%g", lb, r)] +
				fig.Metrics[fmt.Sprintf("scrub_corrupt/%s/rate=%g", lb, r)]
			if det == 0 {
				t.Errorf("%s rate=%g: neither verify-on-read nor the scrubber detected anything", lb, r)
			}
		}
	}
}
