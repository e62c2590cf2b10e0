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
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mimdraid:", err)
		os.Exit(1)
	}
}

// run parses args and runs the requested experiments, printing to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mimdraid", flag.ExitOnError)
	var (
		exp        = fs.String("exp", "", "experiment name, or 'all'")
		list       = fs.Bool("list", false, "list experiment names")
		traceIOs   = fs.Int("trace-ios", 3000, "I/Os per macro (trace replay) data point")
		iometerIOs = fs.Int("iometer-ios", 2500, "I/Os per micro (closed loop) data point")
		seed       = fs.Int64("seed", 1, "random seed")
		format     = fs.String("format", "table", "figure output format: table | csv | json")
		jsonOut    = fs.Bool("json", false, "shorthand for -format json")
		metricsOut = fs.String("metrics-out", "", "write the observability registry snapshot (JSON) to this file")
		traceOut   = fs.String("trace-out", "", "write per-request trace records (JSONL) to this file")
		traceCap   = fs.Int("trace-cap", 4096, "per-drive trace ring capacity for -trace-out")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		timing     = fs.Bool("time", false, "print wall time per experiment")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0),
			"simulation jobs to run concurrently (1 = sequential; results are identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner.SetParallelism(*parallel)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}
	if *exp == "" {
		return errors.New("usage: mimdraid -exp <name>|all   (or -list)")
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
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, out)
		if *timing {
			fmt.Fprintf(stdout, "  [%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	if *timing && len(names) > 1 {
		fmt.Fprintf(stdout, "[%d experiments took %v at -parallel %d]\n",
			len(names), time.Since(total).Round(time.Millisecond), runner.Parallelism())
	}

	if *metricsOut != "" {
		snap, err := reg.Snapshot()
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		if err := os.WriteFile(*metricsOut, snap, 0o644); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		err = reg.WriteTraceJSONL(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	return nil
}
