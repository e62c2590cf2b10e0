// Command tracegen emits a synthetic workload trace (Cello-base,
// Cello-disk6, or TPC-C profile) in the repository's text trace format.
//
// Usage:
//
//	tracegen -workload cello-base -duration 1h -seed 7 > cello.trace
//	tracegen -workload tpcc -ios 50000 > tpcc.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/des"
	"repro/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and writes the trace to stdout; -stats goes to stderr so
// the trace stays pipeable.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		workload  = fs.String("workload", "cello-base", "cello-base | cello-disk6 | tpcc")
		duration  = fs.Duration("duration", 0, "trace duration (overrides -ios)")
		ios       = fs.Int("ios", 10000, "approximate I/O count (used when -duration is 0)")
		seed      = fs.Int64("seed", 1, "random seed")
		stats     = fs.Bool("stats", false, "print Table-3 statistics to stderr")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof:", err)
			}
		}()
	}

	var p tracegen.Params
	switch *workload {
	case "cello-base":
		p = tracegen.CelloBase(*seed)
	case "cello-disk6":
		p = tracegen.CelloDisk6(*seed)
	case "tpcc":
		p = tracegen.TPCC(*seed)
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *duration > 0 {
		p = p.WithDuration(des.Time(duration.Microseconds()))
	} else {
		p = p.WithDuration(des.Time(float64(*ios) / p.MeanIOPS * float64(time.Second.Microseconds())))
	}
	tr := tracegen.Generate(p)
	if err := tr.Write(stdout); err != nil {
		return err
	}
	if *stats {
		s := tr.ComputeStats()
		fmt.Fprintf(os.Stderr, "ios=%d rate=%.2f/s reads=%.1f%% async=%.1f%% L=%.2f raw=%.2f%%\n",
			s.IOs, s.AvgIOPS, s.ReadFrac*100, s.AsyncFrac*100, s.SeekLocality, s.RAWFrac*100)
	}
	return nil
}
