package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/service"
)

// The service experiment pushes a large multi-tenant closed-loop load
// through the full storage-service front-end — HTTP client, wire format,
// gateway barrier, token buckets, array admission control — in the
// gateway's deterministic mode, and reports the windowed p99 and 429
// rate. At the default Config it drives IometerIOs×400 = one million
// HTTP requests from a thousand simulated tenants. TestSameAtWorkersAndReruns
// re-checks the tentpole property end to end at a twentieth of the scale:
// two runs of the same load produce byte-identical report digests.

// serviceTenants is the fleet size; the acceptance bar is one thousand.
const serviceTenants = 1000

// serviceSpec sizes one service load.
type serviceSpec struct {
	cfg     layout.Config
	depth   int
	total   int
	tenants int
	seed    int64
	think   des.Time
	rate    float64
	burst   float64
	retries int
	window  des.Time
}

// serviceRes is one run's outcome: the report, the gateway's counters,
// and the array's shed accounting.
type serviceRes struct {
	rep   *service.LoadReport
	stats service.Stats
	sheds core.ShedCounters
}

// runService stands up a fresh array and harness and drives the load.
func runService(s serviceSpec) (*serviceRes, error) {
	sim := des.New()
	o := core.Options{
		Config: s.cfg, Policy: policyFor(s.cfg), Seed: s.seed,
		MaxQueueDepth: s.depth,
	}
	if Observe != nil {
		o.Obs = Observe
	}
	a, err := core.New(sim, o)
	if err != nil {
		return nil, err
	}
	h := service.NewHarness(a, service.Config{
		Deterministic: true,
		Limits:        service.Limits{Default: service.TenantLimit{Rate: s.rate, Burst: s.burst}},
	})
	rep, err := h.RunLoad(service.LoadConfig{
		Tenants:    s.tenants,
		Requests:   s.total,
		Sectors:    a.DataSectors(),
		Seed:       s.seed,
		ThinkMean:  s.think,
		MaxRetries: s.retries,
		Window:     s.window,
	})
	if err != nil {
		_ = h.Close()
		return nil, err
	}
	res := &serviceRes{rep: rep, stats: h.GW.Stats(), sheds: a.Sheds()}
	if err := h.Close(); err != nil {
		return nil, fmt.Errorf("experiments: service harness close: %w", err)
	}
	if rep.Aborted != 0 {
		return nil, fmt.Errorf("experiments: %d tenants aborted on transport errors", rep.Aborted)
	}
	return res, nil
}

// defaultServiceSpec sizes the run from the config: IometerIOs×400
// logical operations (1M at the default 2500), a thousand tenants, and a
// completion window that yields a few dozen points regardless of scale.
func defaultServiceSpec(c Config) serviceSpec {
	total := c.IometerIOs * 400
	window := des.Time(float64(total) / 120000 * float64(des.Second))
	if window < 50*des.Millisecond {
		window = 50 * des.Millisecond
	}
	return serviceSpec{
		cfg:     layout.Config{Ds: 8, Dr: 2, Dm: 1},
		depth:   8,
		total:   total,
		tenants: serviceTenants,
		seed:    c.Seed,
		think:   200 * des.Millisecond,
		rate:    8,
		burst:   4,
		retries: 2,
		window:  window,
	}
}

// Service runs the front-end load experiment.
func Service(c Config) (*Figure, error) {
	spec := defaultServiceSpec(c)
	res, err := runService(spec)
	if err != nil {
		return nil, err
	}
	if res.sheds.Overload != res.stats.Overloaded {
		return nil, fmt.Errorf("experiments: array shed %d requests but the gateway returned %d overload 429s",
			res.sheds.Overload, res.stats.Overloaded)
	}

	fig := &Figure{
		Name:   "service",
		Title:  fmt.Sprintf("Storage service: %d tenants, %d HTTP requests over a %v SR-Array", spec.tenants, res.rep.Issued, spec.cfg),
		XLabel: "window end (s of simulated time)",
		YLabel: "p99 (ms) / 429 rate (%)",
	}
	var p99, rejRate Series
	p99.Label = "p99/service"
	rejRate.Label = "429%/service"
	for _, w := range res.rep.Windows {
		end := float64(w.Index+1) * float64(spec.window) / 1e6
		if w.OK > 0 {
			p99.Add(end, float64(w.P99)/1000)
		}
		if w.Count > 0 {
			rejRate.Add(end, 100*float64(w.Limited+w.Overloaded)/float64(w.Count))
		}
	}
	fig.Series = append(fig.Series, p99, rejRate)

	rep, st := res.rep, res.stats
	fig.Metric("load/tenants", float64(spec.tenants))
	fig.Metric("load/issued", float64(rep.Issued))
	fig.Metric("load/ok", float64(rep.OK))
	fig.Metric("load/limited_429", float64(rep.Limited))
	fig.Metric("load/overloaded_429", float64(rep.Overloaded))
	fig.Metric("load/failed", float64(rep.Failed))
	fig.Metric("load/retries", float64(rep.Retries))
	fig.Metric("gateway/requests", float64(st.Requests))
	fig.Metric("gateway/rate_limited", float64(st.RateLimited))
	fig.Metric("gateway/overloaded", float64(st.Overloaded))
	fig.Metric("gateway/sleeps", float64(st.Sleeps))
	fig.Metric("array/sheds_overload", float64(res.sheds.Overload))
	if n := len(rep.Windows); n > 0 {
		last := rep.Windows[n-1]
		virtual := float64(last.Index+1) * float64(spec.window) / 1e6
		fig.Metric("load/virtual_seconds", virtual)
		if virtual > 0 {
			fig.Metric("load/http_rps", float64(rep.Issued)/virtual)
		}
	}
	return fig, nil
}
