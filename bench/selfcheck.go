package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// declared is the part of BENCHMARK.json the benchmark reads back.
type declared struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declaredMetric             `json:"end_to_end"`
	PerLayer  []declaredMetric             `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit string
	Bound      float64
}

func readDeclared(path string) (*declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj declared
	if err := json.Unmarshal(raw, &bj); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &bj, nil
}

// matchesCode keeps BENCHMARK.json and the code's own lists of workloads
// and metrics from drifting apart.
func (bj *declared) matchesCode() error {
	if len(bj.Workloads) != len(specs) {
		return fmt.Errorf("BENCHMARK.json declares %d workloads, spec.go has %d", len(bj.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := bj.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			return fmt.Errorf("BENCHMARK.json workload %d is %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
	}
	for _, c := range []struct {
		declared []declaredMetric
		code     []metricDef
	}{{bj.EndToEnd, e2eMetrics}, {bj.PerLayer, layerMetrics}} {
		if len(c.declared) != len(c.code) {
			return fmt.Errorf("BENCHMARK.json declares %d metrics, spec.go has %d", len(c.declared), len(c.code))
		}
		for i, d := range c.code {
			if m := c.declared[i]; m.Name != d.name || m.Unit != d.unit {
				return fmt.Errorf("BENCHMARK.json metric %d is %s [%s], spec.go has %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	return nil
}

// exact reports whether an end-to-end metric is a simulated statistic or
// an exact count, which must repeat bit-for-bit at a fixed seed.
func exact(name string) bool {
	return strings.HasPrefix(name, "sim_") || strings.HasSuffix(name, "_share") || name == "host_events_per_op"
}

// selfcheckSeeds is how many seeds the spread is taken over: as many as
// the acceptance test a benchmark driver applies.
const selfcheckSeeds = 10

// runSelfcheck runs each workload in fresh processes on seeds
// 1..selfcheckSeeds, then once more on seed 1. It prints per workload x
// end-to-end metric the median, the quartiles and their distance as a
// share of the median (quartiles as Python's statistics.quantiles(v, n=4)
// gives them), and returns non-zero when a spread exceeds the bound
// BENCHMARK.json declares (setup_s is reported but not gated, as in the
// driver's test) or when an exact metric differs between the two seed-1
// processes: compared at one seed, those metrics have no tolerance. The
// table is Markdown, so a run on the reference box can be committed as
// NOISE.md.
func runSelfcheck(bj *declared, seconds float64, only string) int {
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	bad := 0
	fmt.Printf("| workload | metric | unit | q1 | median | q3 | (q3-q1)/median | bound | | seed 1 twice |\n|---|---|---|---|---|---|---|---|---|---|\n")
	for _, sp := range specs {
		if only != "" && sp.name != only {
			continue
		}
		values := map[string][]float64{}
		var first, again map[string]metricOut
		for i := 0; i <= selfcheckSeeds; i++ {
			seed := i%selfcheckSeeds + 1 // 1..selfcheckSeeds, then 1 again
			line, err := runChild(self, sp.name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d: %v\n", sp.name, seed, err)
				return 1
			}
			switch i {
			case 0:
				first = line.Metrics
			case selfcheckSeeds:
				again = line.Metrics
				continue
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range e2eMetrics {
			q1, q2, q3 := quartiles(values[d.name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case d.name == "setup_s":
				verdict = "not gated"
			case spread > bounds[d.name]:
				verdict = "OVER"
				bad++
			case spread > bounds[d.name]/3:
				verdict = "ok (above a third)"
			}
			a, b := first[d.name].Value, again[d.name].Value
			repeat := fmt.Sprintf("%+.2f%%", (b/a-1)*100)
			if exact(d.name) {
				repeat = "identical"
				if a != b {
					repeat = fmt.Sprintf("DIFFERS: %v then %v", a, b)
					bad++
				}
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.4f | %g | %s | %s |\n",
				sp.name, d.name, d.unit, q1, q2, q3, spread, bounds[d.name], verdict, repeat)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: -selfcheck: %d problems\n", bad)
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses the last line
// of its output. A child that fails an output check exits non-zero.
func runChild(self, workload string, seed int, seconds float64) (*resultLine, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %v", err)
	}
	return &line, nil
}
