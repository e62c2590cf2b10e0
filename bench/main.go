// Command bench is the repository's benchmark: five named workloads driven
// through the public functions of the simulator's layers, with the outputs
// checked, twelve end-to-end metrics per workload, and (with -trace 1) the
// per-layer metrics from a traced re-run. See README.md in this directory.
//
//	bash bench/run.sh                                  # all five workloads
//	bash bench/run.sh -workload trace-open -seed 2     # one workload, one seed
//	bash bench/run.sh -workload http-closed -trace 1   # its per-layer metrics
//	bash bench/run.sh -selfcheck                       # spread and repeat of every metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// spansDir is where a traced run writes its span files, relative to the
// repository root the benchmark runs from.
const spansDir = "bench/out"

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 6, "size of the timed phase, in seconds on the reference box (scales the frozen request counts; the phase itself is never time-bounded)")
		trace     = flag.Int("trace", 0, "1: report the per-layer metrics from a traced run of the first tenth of the requests, and write "+spansDir+"/<workload>.spans.jsonl")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in fresh processes on ten seeds and twice on one, and check each metric's spread against its bound in BENCHMARK.json and the exact metrics' repeat")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// The repository's own go test ./... does not reach this module's
	// tests, so every run checks that BENCHMARK.json still declares what
	// the code reports.
	bj, err := readDeclared("BENCHMARK.json")
	if err == nil {
		err = bj.matchesCode()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: run from the repository root: %v\n", err)
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(bj, *seconds, *workload))
	}
	run := specs
	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workload, workloadNames())
			os.Exit(2)
		}
		run = []*spec{sp}
	}
	for _, sp := range run {
		ops := int(math.Round(float64(sp.opsPerSec) * *seconds))
		var (
			res  *result
			err  error
			defs = e2eMetrics
		)
		if *trace != 0 {
			defs = layerMetrics
			res, err = runTrace(sp, *seed, ops, spansDir)
		} else {
			res, err = runE2E(sp, *seed, ops)
		}
		if err != nil {
			// A failed check names the workload and seed; the error names
			// the metric or the invariant.
			fmt.Fprintf(os.Stderr, "bench: FAIL workload=%s seed=%d: %v\n", sp.name, *seed, err)
			os.Exit(1)
		}
		report(res, defs)
	}
}

func workloadNames() string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return strings.Join(names, ", ")
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the metrics by name with their units, then the one-line
// JSON object a driver parses.
func report(res *result, defs []metricDef) {
	fmt.Printf("workload %s  seed %d  requests %d  attempted %d  failed %d\n",
		res.workload, res.seed, res.ops, res.attempted, res.failed)
	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		fmt.Printf("  %-32s %16.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range res.metrics {
		if _, ok := line.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		panic(fmt.Sprintf("bench: metrics computed but not declared: %v", extra))
	}
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	if res.spansPath != "" {
		fmt.Printf("  spans: %s\n", res.spansPath)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", b)
}
