package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// TestParallelMatchesSequential is the runner's contract check: the same
// experiment run with one worker and with many must render byte-identical
// output. Figure 6 covers the trace-replay path (including the shared
// cached trace) and Figure 12 the closed-loop iometer path. Run under
// -race this also shakes out any accidental sharing between jobs.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := Config{TraceIOs: 600, IometerIOs: 300, Seed: 1}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"figure6", func() (string, error) {
			f, err := Figure6(cfg, "cello-base")
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"figure12", func() (string, error) {
			f, err := Figure12(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"degraded-rebuild", func() (string, error) {
			f, err := DegradedRebuild(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fail-slow", func() (string, error) {
			f, err := FailSlow(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"scrub", func() (string, error) {
			f, err := Scrub(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"chaos", func() (string, error) {
			f, err := Chaos(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"slo-chaos", func() (string, error) {
			f, err := SLOChaos(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"brick-loss", func() (string, error) {
			f, err := BrickLoss(cfg)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prev := runner.SetParallelism(1)
			defer runner.SetParallelism(prev)
			seq, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			runner.SetParallelism(8)
			par, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
			}
			// A cache hit must not change results either.
			again, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if again != par {
				t.Fatal("second (trace-cached) run differs from the first")
			}
		})
	}
}

// TestSameAtWorkersAndReruns holds the multi-brick worlds to the bar the
// epoch engine promises: the chaos cluster, both SLO-cluster legs
// (controller off and on) and both brick-loss legs (R=1 and R=2) produce
// the same digest at 1, 2 and 4 epoch workers, and the 1-worker digest
// hashes to its pinned value. The digests see what the golden figures do
// not (per-brick recovery counters, skipped scenario events, controller
// state), so the pins hold a refactor of the worlds to the same run. Two identical SLO-gateway
// loads (controller on) and two identical service loads, at the reduced
// scales below, produce the same digest too. bigarray's worker legs are
// TestShardedMatchesSequential's. Under -race the 2- and 4-worker legs
// also check that no two workers touch one shard's state in an epoch.
func TestSameAtWorkersAndReruns(t *testing.T) {
	cfg := Config{TraceIOs: 600, IometerIOs: 200, Seed: 1}
	type world struct {
		name string
		want string // fnv-64a of the 1-worker digest
		run  func(workers int) (digest string, err error)
	}
	var worlds []world
	chaosSpec, err := defaultChaosSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worlds = append(worlds, world{"chaos", "490ae09097bb8901", func(w int) (string, error) {
		r, err := runChaosCluster(chaosSpec, w)
		if err != nil {
			return "", err
		}
		return r.digest, nil
	}})
	sloPins := map[bool]string{false: "21a7ea27f2265536", true: "cbd4bde572048192"}
	for _, on := range []bool{false, true} {
		spec, err := defaultSLOClusterSpec(cfg, on)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{fmt.Sprintf("slo-cluster/on=%v", on), sloPins[on], func(w int) (string, error) {
			r, err := runSLOCluster(spec, w)
			if err != nil {
				return "", err
			}
			return r.digest, nil
		}})
	}
	brickLossPins := map[int]string{1: "408b3c974aa8c55d", 2: "4a2baea15ab8b791"}
	for _, replicas := range []int{1, 2} {
		spec, err := defaultBrickLossSpec(cfg, replicas)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{fmt.Sprintf("brick-loss/R=%d", replicas), brickLossPins[replicas], func(w int) (string, error) {
			r, err := runBrickLoss(spec, w)
			if err != nil {
				return "", err
			}
			return r.digest, nil
		}})
	}
	for _, wd := range worlds {
		t.Run(wd.name, func(t *testing.T) {
			first, err := wd.run(1)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			checkPin(t, wd.name, first, wd.want)
			for _, w := range []int{2, 4} {
				got, err := wd.run(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got != first {
					g, f := firstDiffLine(got, first)
					t.Fatalf("%s digest at workers=%d differs from workers=1, first at:\n%s\nvs\n%s", wd.name, w, g, f)
				}
			}
		})
	}

	t.Run("slo-gateway", func(t *testing.T) {
		spec, err := defaultSLOGatewaySpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec.total = max(spec.total/4, 24*8)
		var digests [2]string
		for i := range digests {
			r, err := runSLOGateway(spec, true)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = r.digest
		}
		if digests[0] != digests[1] {
			a, b := firstDiffLine(digests[1], digests[0])
			t.Fatalf("two identical slo-gateway runs differ, first at:\n%s\nvs\n%s", a, b)
		}
	})
	t.Run("service", func(t *testing.T) {
		spec := defaultServiceSpec(cfg)
		spec.total = min(max(spec.total/20, 2000), 50000)
		var digests [2]string
		for i := range digests {
			r, err := runService(spec)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = r.rep.Digest()
		}
		if digests[0] != digests[1] {
			a, b := firstDiffLine(digests[1], digests[0])
			t.Fatalf("two identical service runs differ, first at:\n%s\nvs\n%s", a, b)
		}
	})
}

// checkPin fails the test unless digest hashes (fnv-64a) to want.
func checkPin(t *testing.T, name, digest, want string) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(digest))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("%s digest hash %s, want %s; digest:\n%s", name, got, want, digest)
	}
}

// firstDiffLine returns the first line at which two digests differ (the
// whole digests when one is a prefix of the other).
func firstDiffLine(a, b string) (string, string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i], bl[i]
		}
	}
	return a, b
}

// TestObservabilityDeterministicAcrossParallelism extends the runner
// contract to the observability layer: the metrics snapshot, the JSONL
// trace export, and the JSON figure rendering must be byte-identical
// whether the degraded-rebuild jobs ran on one worker or eight, and the
// JSON figure must round-trip through encoding/json.
func TestObservabilityDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{TraceIOs: 600, IometerIOs: 300, Seed: 1}
	run := func(par int) (snap []byte, traces string, figJSON string) {
		prev := runner.SetParallelism(par)
		defer runner.SetParallelism(prev)
		reg := &obs.Registry{TraceCap: 256}
		Observe = reg
		defer func() { Observe = nil }()
		fig, err := DegradedRebuild(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = reg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteTraceJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		figJSON, err = fig.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return snap, buf.String(), figJSON
	}
	seqSnap, seqTrace, seqJSON := run(1)
	parSnap, parTrace, parJSON := run(8)
	if !bytes.Equal(seqSnap, parSnap) {
		t.Errorf("metrics snapshot differs between sequential and parallel runs")
	}
	if seqTrace != parTrace {
		t.Errorf("JSONL trace differs between sequential and parallel runs")
	}
	if seqJSON != parJSON {
		t.Errorf("figure JSON differs between sequential and parallel runs")
	}
	if len(seqTrace) == 0 {
		t.Error("trace export is empty; tracing did not engage")
	}
	// Round-trip: the figure JSON must parse and re-marshal to the same
	// semantic content.
	var doc map[string]interface{}
	if err := json.Unmarshal([]byte(seqJSON), &doc); err != nil {
		t.Fatalf("figure JSON does not parse: %v", err)
	}
	if doc["figure"] != "degraded-rebuild" {
		t.Fatalf("figure name %v", doc["figure"])
	}
	metrics, ok := doc["metrics"].(map[string]interface{})
	if !ok || len(metrics) == 0 {
		t.Fatal("figure JSON carries no metrics")
	}
	if _, ok := metrics["iops/SR-Array 2x3x1/healthy"]; !ok {
		t.Fatalf("expected iops metric missing; have %d keys", len(metrics))
	}
	reencoded, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var doc2 map[string]interface{}
	if err := json.Unmarshal(reencoded, &doc2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, doc2) {
		t.Fatal("figure JSON does not round-trip through encoding/json")
	}
	// The snapshot parses as JSON too.
	var snapDoc map[string]interface{}
	if err := json.Unmarshal(seqSnap, &snapDoc); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
}

// TestJSONFormatRunners: each format renders both kinds of experiment.
// In json, every experiment is one valid document (figures as documents,
// tables wrapped as text). In csv, a figure is "#" header lines plus one
// row per series, a quoted label followed by numbers; a table has no csv
// form and renders as its text.
func TestJSONFormatRunners(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		// A fast config: this test checks rendering, not physics.
		cfg := Config{TraceIOs: 200, IometerIOs: 120, Seed: 1, Format: format}
		for _, name := range []string{"degraded-rebuild", "table1", "section2.5"} {
			out, err := Run(name, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", format, name, err)
			}
			switch {
			case format == "json":
				var doc map[string]interface{}
				if err := json.Unmarshal([]byte(out), &doc); err != nil {
					t.Fatalf("%s: json format produced invalid JSON: %v", name, err)
				}
				if fig, _ := doc["figure"].(string); fig == "" {
					t.Fatalf("%s: figure field missing in %q", name, out)
				}
			case name == "table1":
				if want := Table1().String(); out != want {
					t.Fatalf("table1: csv format gave %q, want the table text", out)
				}
			default:
				checkCSV(t, name, out)
			}
		}
	}
}

func checkCSV(t *testing.T, name, out string) {
	t.Helper()
	if !strings.HasPrefix(out, "# ") {
		t.Fatalf("%s: csv lacks its header: %q", name, out)
	}
	r := csv.NewReader(strings.NewReader(out))
	r.Comment = '#'
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("%s: csv does not parse: %v", name, err)
	}
	if len(rows) == 0 {
		t.Fatalf("%s: csv has no series: %q", name, out)
	}
	for _, row := range rows {
		if row[0] == "" || len(row)%2 != 1 {
			t.Fatalf("%s: malformed csv row %q", name, row)
		}
		for _, f := range row[1:] {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				t.Fatalf("%s: csv row %q: %v", name, row, err)
			}
		}
	}
}
