package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cluster_golden.json from this run")

// TestClusterExperimentsGolden pins the fault-tolerance and multi-brick
// experiments' json output, byte for byte, at two seeds. The digests these
// experiments check internally only prove that worker counts agree with
// each other; this file proves that a refactor of the shared harness left
// every RNG draw, event order and tally where it was.
func TestClusterExperimentsGolden(t *testing.T) {
	const path = "testdata/cluster_golden.json"
	got := map[string]json.RawMessage{}
	for _, name := range []string{"bigarray", "chaos", "slo-chaos", "brick-loss", "degraded-rebuild", "fail-slow", "scrub"} {
		for _, seed := range []int64{1, 2} {
			out, err := Run(name, Config{TraceIOs: 600, IometerIOs: 200, Seed: seed, Format: "json"})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got[fmt.Sprintf("%s/seed=%d", name, seed)] = json.RawMessage(out)
		}
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, want) {
		return
	}
	var old map[string]json.RawMessage
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	for k, v := range got {
		var a, b bytes.Buffer
		if json.Compact(&a, v) != nil || json.Compact(&b, old[k]) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s differs from %s:\n got %s\nwant %s", k, path, a.Bytes(), b.Bytes())
		}
	}
	t.Fatalf("output differs from %s (run with -update only if the change is meant to move results)", path)
}
