// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// (trace synthesis, array simulation, measurement) and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The per-iteration configuration is
// reduced (fewer I/Os per data point than the week-long traces); pass
// -benchtime=1x for a single full pass per figure, and see cmd/mimdraid
// for larger runs.
package mimdraid

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// benchCfg keeps each iteration around a second of wall time.
func benchCfg() experiments.Config {
	return experiments.Config{TraceIOs: 1500, IometerIOs: 1200, Seed: 1}
}

func BenchmarkTable1Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTable2HeadPrediction(b *testing.B) {
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.MissRate*100, "miss%")
	b.ReportMetric(float64(last.Demerit), "demerit-us")
	b.ReportMetric(float64(last.AvgAccess), "access-us")
}

func BenchmarkTable3TraceStats(b *testing.B) {
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table3(benchCfg())
	}
	b.ReportMetric(res.Rows[0].Measured.SeekLocality, "cello-L")
	b.ReportMetric(res.Rows[2].Measured.RAWFrac*100, "tpcc-raw%")
}

// benchFigure runs a figure experiment and reports selected points.
func benchFigure(b *testing.B, f func(experiments.Config) (*experiments.Figure, error), metrics map[string][2]interface{}) {
	b.Helper()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = f(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for name, sel := range metrics {
		label := sel[0].(string)
		x := sel[1].(float64)
		b.ReportMetric(fig.At(label, x), name)
	}
}

func BenchmarkFigure5Validation(b *testing.B) {
	benchFigure(b, experiments.Figure5, map[string][2]interface{}{
		"sim-q32-iops":   {"reads simulator", 32.0},
		"proto-q32-iops": {"reads prototype", 32.0},
	})
}

func BenchmarkFigure6CelloBase(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure6(c, "cello-base")
	}, map[string][2]interface{}{
		"sr6-us":     {"SR-Array (RSATF)", 6.0},
		"stripe6-us": {"striping (SATF)", 6.0},
		"raid6-us":   {"RAID-10 (SATF)", 6.0},
	})
}

func BenchmarkFigure6CelloDisk6(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure6(c, "cello-disk6")
	}, map[string][2]interface{}{
		"sr6-us":     {"SR-Array (RSATF)", 6.0},
		"stripe6-us": {"striping (SATF)", 6.0},
	})
}

func BenchmarkFigure7AspectRatios(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure7(c, "cello-base")
	}, map[string][2]interface{}{
		"chosen6-us": {"model-chosen", 6.0},
	})
}

func BenchmarkFigure8TPCC(b *testing.B) {
	benchFigure(b, experiments.Figure8, map[string][2]interface{}{
		"sr36-us":     {"SR-Array (RSATF)", 36.0},
		"stripe36-us": {"striping (SATF)", 36.0},
	})
}

func BenchmarkFigure9Schedulers(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure9(c, "cello-base")
	}, map[string][2]interface{}{
		"satf-r16-us":  {"striping SATF", 16.0},
		"rsatf-r16-us": {"SR-Array RSATF", 16.0},
	})
}

func BenchmarkFigure10CelloRates(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure10(c, "cello-base")
	}, map[string][2]interface{}{
		"sr23-r16-us":   {"2x3x1 rsatf", 16.0},
		"stripe-r16-us": {"6x1x1 satf", 16.0},
	})
}

func BenchmarkFigure10TPCCRates(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure10(c, "tpcc")
	}, map[string][2]interface{}{
		"sr94-r1-us":   {"9x4x1 rsatf", 1.0},
		"stripe-r1-us": {"36x1x1 satf", 1.0},
	})
}

func BenchmarkFigure11MemoryVsDisks(b *testing.B) {
	benchFigure(b, func(c experiments.Config) (*experiments.Figure, error) {
		return experiments.Figure11(c, "cello-base")
	}, map[string][2]interface{}{
		"disks1-us": {"SR-Array x1", 1.0},
		"disks6-us": {"SR-Array x1", 6.0},
	})
}

func BenchmarkFigure12Throughput(b *testing.B) {
	benchFigure(b, experiments.Figure12, map[string][2]interface{}{
		"sr-q8-d12-iops":     {"q8 SR-Array RSATF", 12.0},
		"stripe-q8-d12-iops": {"q8 striping SATF", 12.0},
		"model-q8-d12-iops":  {"q8 RLOOK model", 12.0},
	})
}

func BenchmarkFigure13WriteRatio(b *testing.B) {
	benchFigure(b, experiments.Figure13, map[string][2]interface{}{
		"sr-w0-iops":       {"q8 3x2x1 RSATF", 0.0},
		"stripe-w0-iops":   {"q8 6x1x1 SATF", 0.0},
		"sr-w100-iops":     {"q8 3x2x1 RSATF", 100.0},
		"stripe-w100-iops": {"q8 6x1x1 SATF", 100.0},
	})
}

// BenchmarkFigure6Parallel measures the end-to-end figure with one worker
// versus every core; the trace cache is warm after the first iteration, so
// the ratio of the two sub-benchmarks is the wall-time speedup the parallel
// runner buys on replay.
func BenchmarkFigure6Parallel(b *testing.B) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			prev := runner.SetParallelism(w)
			defer runner.SetParallelism(prev)
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure6(benchCfg(), "cello-base"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBigArrayEventsPerSec measures the raw event throughput of
// multi-brick clusters (bricks of 4x2x2 plus a front-end client) on the
// sharded epoch engine at one, two, and four workers, at two scales: the
// 128-drive default and a 1024-drive cluster. Within a scale every
// sub-benchmark executes the identical simulation — digests are asserted
// equal, and equal to a lockstep reference driver's, by
// TestShardedMatchesSequential — so events/sec is directly comparable
// across worker counts.
func BenchmarkBigArrayEventsPerSec(b *testing.B) {
	cfg := benchCfg()
	big := experiments.DefaultBigArraySpec(cfg)
	huge := big
	huge.Bricks = 64
	huge.IOs = cfg.IometerIOs * 8
	huge.Outstanding = 16 * huge.Bricks
	for _, scale := range []struct {
		name string
		spec experiments.BigArraySpec
	}{{"drives128", big}, {"drives1024", huge}} {
		for _, w := range []int{1, 2, 4} {
			spec := scale.spec
			spec.Workers = w
			b.Run(fmt.Sprintf("%s/epoch-w%d", scale.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				for i := 0; i < b.N; i++ {
					r, err := experiments.RunBigArray(spec)
					if err != nil {
						b.Fatal(err)
					}
					events += r.Events
				}
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}

func BenchmarkAblationReplicaPlacement(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig = experiments.AblationReplicaPlacement(benchCfg())
	}
	b.ReportMetric(fig.At("evenly spaced", 3), "even-dr3-us")
	b.ReportMetric(fig.At("randomly placed", 3), "random-dr3-us")
}

func BenchmarkAblationSlack(b *testing.B) {
	benchFigure(b, experiments.AblationSlack, map[string][2]interface{}{
		"k0-miss%":       {"rotation miss %", 0.0},
		"adaptive-miss%": {"rotation miss %", 1.0},
	})
}

func BenchmarkAblationCoalesce(b *testing.B) {
	benchFigure(b, experiments.AblationCoalesce, map[string][2]interface{}{
		"on-cmds-per-write":  {"commands per write", 1.0},
		"off-cmds-per-write": {"commands per write", 0.0},
	})
}

func BenchmarkAblationMirrorSched(b *testing.B) {
	benchFigure(b, experiments.AblationMirrorSched, map[string][2]interface{}{
		"dup-q16-us":    {"duplicate-request", 16.0},
		"static-q16-us": {"static nearest", 16.0},
	})
}

func BenchmarkAblationOpportunistic(b *testing.B) {
	benchFigure(b, experiments.AblationOpportunistic, map[string][2]interface{}{
		"off-miss%":    {"rotation miss %", 0.0},
		"on-miss%":     {"rotation miss %", 1.0},
		"off-refreads": {"reference reads after bootstrap", 0.0},
		"on-refreads":  {"reference reads after bootstrap", 1.0},
	})
}

func BenchmarkAblationIntraTrack(b *testing.B) {
	benchFigure(b, experiments.AblationIntraTrack, map[string][2]interface{}{
		"intra-seq-mbps": {"sequential bandwidth (MB/s)", 0.0},
		"cross-seq-mbps": {"sequential bandwidth (MB/s)", 1.0},
	})
}

func BenchmarkSection25StripedMirror(b *testing.B) {
	benchFigure(b, experiments.Section25, map[string][2]interface{}{
		"sr-q16-iops": {"2x3x1 SR-Array (RSATF)", 16.0},
		"sm-q16-iops": {"2x1x3 striped mirror (SATF)", 16.0},
	})
}

func BenchmarkTCQ(b *testing.B) {
	benchFigure(b, experiments.TCQ, map[string][2]interface{}{
		"host-rsatf-q32-iops": {"2x3 host RSATF", 32.0},
		"tcq-naive-q32-iops":  {"2x3 TCQ drive SATF (naive host)", 32.0},
	})
}

func BenchmarkSensitivity(b *testing.B) {
	benchFigure(b, experiments.Sensitivity, map[string][2]interface{}{
		"slow-spindle-best-dr": {"measured-best Dr", 0.0},
		"slow-arm-best-dr":     {"measured-best Dr", 3.0},
	})
}

func BenchmarkAdvisor(b *testing.B) {
	benchFigure(b, experiments.AdvisorDemo, map[string][2]interface{}{
		"drift-first-window": {"drift of static 12x1 striping", 1.0},
	})
}

func BenchmarkBreakdown(b *testing.B) {
	benchFigure(b, experiments.Breakdown, map[string][2]interface{}{
		"stripe-rotation-us": {"rotation", 0.0},
		"sr-rotation-us":     {"rotation", 2.0},
	})
}

// BenchmarkChaos runs the crash/power-fail experiment end to end: the
// recovery micro once per NVRAM durability mode, then the scripted chaos
// scenario over the four-brick cluster at 1/2/4 epoch workers (digest
// equality asserted inside). Headline tolerance metrics ride along.
func BenchmarkChaos(b *testing.B) {
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = experiments.Chaos(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Metrics["cluster/slo_pct"], "slo%")
	b.ReportMetric(fig.Metrics["cluster/divergent_after"], "divergent-after")
	b.ReportMetric(fig.Metrics["recovery/volatile/repaired"], "volatile-repaired")
}
