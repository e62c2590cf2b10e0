package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// smokeScale runs every workload at 1/200 of its frozen size.
const smokeScale = 200

func smokeOps(sp *spec) int { return sp.opsPerSec * 6 / smokeScale }

func TestSmokeEndToEnd(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			ops := smokeOps(sp)
			a, err := runE2E(sp, 1, ops)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runE2E(sp, 1, ops)
			if err != nil {
				t.Fatal(err)
			}
			other, err := runE2E(sp, 2, ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.metrics) != len(e2eMetrics) || len(other.metrics) != len(e2eMetrics) {
				t.Fatalf("metric sets: %d and %d names, want %d", len(a.metrics), len(other.metrics), len(e2eMetrics))
			}
			differs := false
			for _, d := range e2eMetrics {
				va, ok := a.metrics[d.name]
				if !ok || d.unit == "" {
					t.Errorf("%s: missing or without a unit", d.name)
				}
				if _, ok := other.metrics[d.name]; !ok {
					t.Errorf("%s: missing at seed 2", d.name)
				}
				if !exact(d.name) {
					continue
				}
				if vb := b.metrics[d.name]; va != vb {
					t.Errorf("%s: %v then %v on an in-process repeat, want identical", d.name, va, vb)
				}
				if va != other.metrics[d.name] {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seed 2 reproduced every simulated metric of seed 1: the seed does not reach the request stream")
			}
		})
	}
}

// spanLine is one line of a spans file.
type spanLine struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    uint32 `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func TestSmokeTrace(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			res, err := runTrace(sp, 1, smokeOps(sp), dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range layerMetrics {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("%s: missing", d.name)
				}
			}
			for name := range res.metrics {
				found := false
				for _, d := range layerMetrics {
					found = found || d.name == name
				}
				if !found {
					t.Errorf("%s: reported but not declared", name)
				}
			}
			// Layers outside the workload's stack must see exactly no calls.
			if sp.name != "http-closed" && res.metrics["service.calls"] != 0 {
				t.Errorf("service.calls = %v on a stack without the gateway", res.metrics["service.calls"])
			}
			if sp.name != "cluster-chaos" && res.metrics["cluster.submit_calls"] != 0 {
				t.Errorf("cluster.submit_calls = %v on a stack without the router", res.metrics["cluster.submit_calls"])
			}
			// The layers' counters must cover the traced requests and no
			// others (they count from construction, warm-up included): on
			// this workload a read is one pick and only the 5% writes, one
			// copy per replica, are more.
			if p := res.metrics["sched.picks_per_op"]; sp.name == "array-read-closed" && (p < 1 || p > 0.95+0.05*6) {
				t.Errorf("sched.picks_per_op = %v, want 1 to 1.25: the obs window is not the traced phase", p)
			}
			if sp.name == "http-closed" {
				self := res.metrics["service.transport_self_ns"] + res.metrics["service.gateway_self_ns"]
				perOp := res.metrics["bench.wall_s"] * 1e9 / float64(res.ops)
				if self < perOp/2 {
					t.Errorf("service self time %v ns is under half of the host time per request %v ns", self, perOp)
				}
			}

			f, err := os.Open(res.spansPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var spans []spanLine
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s spanLine
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("line %d: %v", len(spans)+1, err)
				}
				spans = append(spans, s)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(spans) < res.ops {
				t.Fatalf("%d spans for %d requests", len(spans), res.ops)
			}
			for i, s := range spans {
				if s.ID != i+1 || s.End < s.Start {
					t.Fatalf("span %d: id %d, %d..%d", i+1, s.ID, s.Start, s.End)
				}
				if s.Parent == 0 {
					continue
				}
				p := spans[s.Parent-1]
				if s.Start < p.Start || s.End > p.End {
					t.Fatalf("span %d (%s, %d..%d) is not inside its parent %d (%s, %d..%d)",
						s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode runs the check every benchmark run starts
// with on the committed file.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := bj.matchesCode(); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
