// Command mimdraid runs the paper's evaluation experiments against the
// simulated array and prints the resulting tables and figure data.
//
// Usage:
//
//	mimdraid -list
//	mimdraid -exp fig6-cello-base
//	mimdraid -exp all -trace-ios 10000 -iometer-ios 8000
//	mimdraid -exp degraded-rebuild -json -metrics-out metrics.json -trace-out trace.jsonl
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment name, or 'all'")
		list       = flag.Bool("list", false, "list experiment names")
		traceIOs   = flag.Int("trace-ios", 3000, "I/Os per macro (trace replay) data point")
		iometerIOs = flag.Int("iometer-ios", 2500, "I/Os per micro (closed loop) data point")
		seed       = flag.Int64("seed", 1, "random seed")
		format     = flag.String("format", "table", "figure output format: table | csv | json")
		jsonOut    = flag.Bool("json", false, "shorthand for -format json")
		metricsOut = flag.String("metrics-out", "", "write the observability registry snapshot (JSON) to this file")
		traceOut   = flag.String("trace-out", "", "write per-request trace records (JSONL) to this file")
		traceCap   = flag.Int("trace-cap", 4096, "per-drive trace ring capacity for -trace-out")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		timing     = flag.Bool("time", false, "print wall time per experiment")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"simulation jobs to run concurrently (1 = sequential; results are identical at any setting)")
		shards = flag.Int("shards", runtime.GOMAXPROCS(0),
			"epoch workers for sharded multi-brick simulations like -exp bigarray (1 = the sequential legacy path; results are identical at any setting)")
	)
	flag.Parse()
	runner.SetParallelism(*parallel)
	if _, err := des.SetShardWorkers(*shards); err != nil {
		fmt.Fprintf(os.Stderr, "mimdraid: -shards %d: %v\n", *shards, err)
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: mimdraid -exp <name>|all   (or -list)")
		os.Exit(2)
	}
	cfg := experiments.Config{TraceIOs: *traceIOs, IometerIOs: *iometerIOs, Seed: *seed, Format: *format}
	if *jsonOut {
		cfg.Format = "json"
	}

	// Metrics or trace output needs a registry attached to every array the
	// experiments build. Tracing is only enabled when asked for: rings cost
	// memory per drive per run.
	var reg *obs.Registry
	if *metricsOut != "" || *traceOut != "" {
		reg = &obs.Registry{}
		if *traceOut != "" {
			reg.TraceCap = *traceCap
		}
		experiments.Observe = reg
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	total := time.Now()
	for _, name := range names {
		start := time.Now()
		out, err := experiments.Run(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		if *timing {
			fmt.Printf("  [%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *timing && len(names) > 1 {
		fmt.Printf("[%d experiments took %v at -parallel %d]\n",
			len(names), time.Since(total).Round(time.Millisecond), runner.Parallelism())
	}

	if reg != nil {
		if *metricsOut != "" {
			snap, err := reg.Snapshot()
			if err != nil {
				fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*metricsOut, snap, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
				os.Exit(1)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
			if err := reg.WriteTraceJSONL(f); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
