// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) against the simulated MimdRAID. Each experiment
// is a function from a Config (which mostly controls run length) to a
// renderable result; cmd/mimdraid and the repository benchmarks share
// them. EXPERIMENTS.md records paper-versus-measured for each.
package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// Observe, when non-nil, attaches every array any experiment builds to
// this observability registry (per-drive histograms, fault counters,
// optional request traces). cmd/mimdraid sets it for -metrics-out /
// -trace-out runs; tests set it to audit a run. Set it before running an
// experiment — the jobs read it from worker goroutines.
var Observe *obs.Registry

// Config scales the experiments. Defaults reproduce shapes in seconds of
// wall time; raise the knobs to approach the paper's full trace lengths.
type Config struct {
	// TraceIOs is the approximate number of I/Os per macro (trace-replay)
	// data point.
	TraceIOs int
	// IometerIOs is the number of I/Os per micro (closed-loop) data point.
	IometerIOs int
	Seed       int64
	// Format selects the rendering: "table" (also the zero value), "csv",
	// or "json" (the machine-readable `{figure, series, points, metrics}`
	// form; table-shaped experiments wrap their text as `{figure, text}`).
	Format string
}

// ReportPad is added to every reported macro response time. The paper
// reports a fixed 2.7 ms of "processing times, transfer costs, track
// switch time, and mechanical acceleration/deceleration"; the simulated
// device already charges about 0.25 ms of that per command, so the pad
// brings the reporting convention in line with the paper's.
const ReportPad = 2450 * des.Microsecond

// paperDisk are the model parameters of the simulated ST39133LWV in the
// form the Section 2 equations use: full-stroke seek time and rotation
// period.
func paperDisk() model.Disk {
	sp := disk.ST39133LWV()
	return model.Disk{S: sp.MaxSeek, R: des.Time(60e6 / sp.RPM)}
}

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Series is one labeled curve.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Figure is a renderable experiment result.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Metrics carries named scalar side-channels of the run (counter
	// totals, rates) that the text table does not show; they appear only
	// in the JSON rendering.
	Metrics map[string]float64
}

// Metric records a named scalar in the figure's metrics map.
func (f *Figure) Metric(name string, v float64) {
	if f.Metrics == nil {
		f.Metrics = map[string]float64{}
	}
	f.Metrics[name] = v
}

// At returns series label's Y at x (NaN if absent) — used by tests.
func (f *Figure) At(label string, x float64) float64 {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
	}
	return math.NaN()
}

// Render formats the figure as an aligned text table: one column per X,
// one row per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.Name, f.Title)
	fmt.Fprintf(&b, "  x = %s, y = %s\n", f.XLabel, f.YLabel)
	// Union of X values.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	w := 0
	for _, s := range f.Series {
		if len(s.Label) > w {
			w = len(s.Label)
		}
	}
	fmt.Fprintf(&b, "  %-*s", w, "")
	for _, x := range xs {
		fmt.Fprintf(&b, " %9s", trimFloat(x))
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-*s", w, s.Label)
		for _, x := range xs {
			y := math.NaN()
			for _, p := range s.Points {
				if p.X == x {
					y = p.Y
					break
				}
			}
			if math.IsNaN(y) {
				fmt.Fprintf(&b, " %9s", "-")
			} else {
				fmt.Fprintf(&b, " %9s", trimFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated series rows (label, then one
// x,y pair per column), for plotting outside the terminal.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n# x=%s y=%s\n", f.Name, f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%q", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, ",%g,%g", p.X, p.Y)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// figureJSON is the machine-readable rendering of a Figure.
type figureJSON struct {
	Figure  string             `json:"figure"`
	Title   string             `json:"title,omitempty"`
	XLabel  string             `json:"x,omitempty"`
	YLabel  string             `json:"y,omitempty"`
	Series  []seriesJSON       `json:"series"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type seriesJSON struct {
	Label  string       `json:"label"`
	Points [][2]float64 `json:"points"`
}

// JSON renders the figure as an indented `{figure, series, points,
// metrics}` document. Series keep their insertion order, points their
// sweep order, and map keys marshal sorted, so the bytes are a pure
// function of the figure's contents, byte-stable across parallel runs.
func (f *Figure) JSON() (string, error) {
	out := figureJSON{
		Figure: f.Name, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel,
		Series: make([]seriesJSON, 0, len(f.Series)), Metrics: f.Metrics,
	}
	for _, s := range f.Series {
		sj := seriesJSON{Label: s.Label, Points: make([][2]float64, 0, len(s.Points))}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, [2]float64{p.X, p.Y})
		}
		out.Series = append(out.Series, sj)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// coreOptions lets experiment files tweak array options without importing
// core everywhere.
type coreOptions = core.Options

// coreResult aliases core.Result for the same reason.
type coreResult = core.Result

// coreRead aliases the read opcode.
const coreRead = core.Read

// refHeads is the surface count of the reference drive; the layout
// requires Dr to divide it.
var refHeads = disk.ST39133LWV().Heads

// refDisk is a built reference drive used for capacity and for the
// curve-aware model variants.
var refDisk = disk.ST39133LWV().MustNew()

// refGeomSectors is the logical capacity of the reference drive — the
// "single disk's worth of data" the micro-benchmarks spread over the
// array.
var refGeomSectors = refDisk.Geom.TotalSectors()

// buildArray constructs an array on a fresh simulator, attached to the
// Observe registry when one is installed.
func buildArray(cfg layout.Config, policy string, dataSectors int64, seed int64, mod func(*core.Options)) (*des.Sim, *core.Array, error) {
	sim := des.New()
	o := core.Options{Config: cfg, Policy: policy, DataSectors: dataSectors, Seed: seed}
	if mod != nil {
		mod(&o)
	}
	if Observe != nil {
		o.Obs = Observe
	}
	a, err := core.New(sim, o)
	if err != nil {
		return nil, nil, err
	}
	return sim, a, nil
}

// measuredRate converts completions inside the warmup-trimmed window of
// [start, end] into I/Os per second. All experiment rate reporting goes
// through stats.TrimWarmup so a mis-built window cannot inflate a rate.
func measuredRate(completed int, start, end, warmup des.Time) float64 {
	ws, we := stats.TrimWarmup(start, end, warmup)
	return stats.Throughput(completed, we-ws)
}

// policyFor returns the paper's scheduler pairing: RSATF on replicated
// configurations, SATF elsewhere ("we use the RSATF scheduler for
// SR-Arrays and the SATF scheduler for other configurations").
func policyFor(cfg layout.Config) string {
	if cfg.Dr > 1 {
		return "rsatf"
	}
	return "satf"
}

// celloTrace generates a Cello-style trace sized to about ios I/Os.
func celloTrace(p tracegen.Params, ios int) *tracegen.Params {
	d := des.Time(float64(ios) / p.MeanIOPS * 1e6)
	p = p.WithDuration(d)
	return &p
}

// genTrace returns the synthetic trace for p at about ios I/Os, through the
// process-wide cache: figures that replay the same workload (Figure 6, 7,
// 9, 10, 11, Breakdown, the tables) share one synthesis instead of each
// re-running the generator's fixed-point retune.
func genTrace(p tracegen.Params, ios int) *trace.Trace {
	return tracegen.GenerateCached(*celloTrace(p, ios))
}

// replayJob is one trace-replay simulation in a figure's sweep. Each job
// builds its own simulator and array, so jobs are independent and the
// sweeps fan them out over the runner's worker pool.
type replayJob struct {
	cfg    layout.Config
	policy string // empty means policyFor(cfg)
	tr     *trace.Trace
	// cacheBytes > 0 replays through a block cache of that size
	// (Figure 11's memory series).
	cacheBytes int64
	mod        func(*coreOptions)
}

// replayRes is a replay job's outcome; ok is false when the configuration
// saturated.
type replayRes struct {
	mean des.Time
	ok   bool
}

// runReplayJobs executes the jobs on the worker pool and returns results in
// submission order, so assembling series from the result slice yields
// exactly the sequential path's output.
func runReplayJobs(seed int64, jobs []replayJob) ([]replayRes, error) {
	return runner.Map(len(jobs), func(i int) (replayRes, error) {
		j := jobs[i]
		if j.cacheBytes > 0 {
			m, ok, err := replayCached(j.cfg, j.tr, seed, j.cacheBytes)
			return replayRes{m, ok}, err
		}
		policy := j.policy
		if policy == "" {
			policy = policyFor(j.cfg)
		}
		m, ok, err := replayMean(j.cfg, policy, j.tr, seed, j.mod)
		return replayRes{m, ok}, err
	})
}

// iometerJob is one closed-loop simulation in a micro-benchmark's sweep.
type iometerJob struct {
	cfg    layout.Config
	policy string
	w      workload.Iometer
	total  int
	mod    func(*coreOptions)
}

// runIometerJobs executes the jobs on the worker pool, results in
// submission order.
func runIometerJobs(seed int64, jobs []iometerJob) ([]*workload.Result, error) {
	return runner.Map(len(jobs), func(i int) (*workload.Result, error) {
		j := jobs[i]
		return runIometer(j.cfg, j.policy, j.w, j.total, seed, j.mod)
	})
}

// replayMean replays a trace on a configuration and returns the reported
// mean response time (sync requests only, plus ReportPad). The bool is
// false when the configuration saturated.
func replayMean(cfg layout.Config, policy string, tr *trace.Trace, seed int64, mod func(*core.Options)) (des.Time, bool, error) {
	sim, a, err := buildArray(cfg, policy, tr.DataSectors, seed, mod)
	if err != nil {
		return 0, false, err
	}
	res, err := workload.Replay(sim, a, tr)
	if err != nil {
		return 0, false, err
	}
	if res.Saturated {
		return 0, false, nil
	}
	return res.MeanResponse() + ReportPad, true, nil
}
