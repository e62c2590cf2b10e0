package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/service"
	"repro/internal/slo"
)

// The slo-chaos experiment is the control plane's proving ground: the
// same seeded chaos scenario (a drive failure and rebuild, a fail-slow
// window, a power-fail/recover cycle, a heavy scrub pass) lands under a
// bursty multi-tenant load, once with the SLO controller detached and
// once with it closing the loop. Two stages:
//
//   - A gateway run pushes tiered tenants through the full HTTP
//     front-end in deterministic mode while the scenario plays on the
//     array underneath, and compares per-tier SLO compliance off vs on.
//     The controller must buy premium compliance back by shedding in
//     strict priority order — best-effort first, premium never.
//   - A cluster run replays a multi-brick scenario on the sharded epoch
//     engine with one controller per brick, fed and stepped entirely on
//     that brick's shard. Each variant's digest folds in the scenario
//     timeline, every per-tier tally and every controller's state;
//     TestSameAtWorkersAndReruns holds it equal at epoch worker counts
//     1, 2, and 4 — the determinism bar the rest of the repo holds.

// sloTierOf assigns load-generator tenant i its tier: one in five
// premium, two standard, two best-effort.
func sloTierOf(i int) slo.Tier {
	switch i % 5 {
	case 0:
		return slo.Premium
	case 1, 2:
		return slo.Standard
	default:
		return slo.BestEffort
	}
}

// sloClassifyTenant recovers the tier from a load-generator tenant name
// ("t%05d"); anything else is standard.
func sloClassifyTenant(name string) slo.Tier {
	i, err := strconv.Atoi(strings.TrimPrefix(name, "t"))
	if err != nil || i < 0 {
		return slo.Standard
	}
	return sloTierOf(i)
}

// sloGatewaySpec sizes one gateway run of the experiment.
type sloGatewaySpec struct {
	cfg         layout.Config
	spares      int
	depth       int
	tenants     int
	total       int
	seed        int64
	think       des.Time
	rate, burst float64
	retries     int
	window      des.Time // load-report window
	burstPeriod des.Time
	burstFactor float64
	sc          chaos.Scenario
	ctl         slo.Options
	// met is the per-tier latency bound the compliance metric counts
	// against (independent of the controller's own judging targets).
	met [slo.NumTiers]des.Time
}

// sloTierTotals aggregates one tier's outcomes across its tenants.
// quota is the tier's share of logical operations; compliance is
// met/quota, so shed and failed requests count against the tier.
type sloTierTotals struct {
	quota, issued, ok, limited, overloaded, failed, met int64
}

// sloGatewayRes is one gateway run's outcome.
type sloGatewayRes struct {
	rep     *service.LoadReport
	stats   service.Stats
	state   slo.State
	tiers   [slo.NumTiers]sloTierTotals
	skipped int
	digest  string
}

// runSLOGateway drives the tiered load through the HTTP front-end while
// the chaos scenario plays on the array. on attaches the controller;
// off leaves the gateway's SLO hooks nil (the byte-identical default).
func runSLOGateway(spec sloGatewaySpec, on bool) (*sloGatewayRes, error) {
	sim := des.New()
	o := core.Options{
		Config: spec.cfg, Policy: policyFor(spec.cfg), Seed: spec.seed,
		MaxQueueDepth: spec.depth,
		Spares:        spec.spares,
		Hedge:         true,
		Crash:         core.CrashModel{Enabled: true, Durability: core.Volatile},
	}
	if Observe != nil {
		o.Obs = Observe
	}
	a, err := core.New(sim, o)
	if err != nil {
		return nil, err
	}
	res := &sloGatewayRes{}
	chaos.Arm(sim, spec.sc, 0, func(e chaos.Event) {
		if !chaos.Apply(a, e) {
			res.skipped++
		}
	})
	var ctl *slo.Controller
	if on {
		ctl, err = slo.New(a, spec.ctl)
		if err != nil {
			return nil, err
		}
	}
	h := service.NewHarness(a, service.Config{
		Deterministic: true,
		Limits:        service.Limits{Default: service.TenantLimit{Rate: spec.rate, Burst: spec.burst}},
		SLO:           ctl,
	})
	rep, err := h.RunLoad(service.LoadConfig{
		Tenants:     spec.tenants,
		Requests:    spec.total,
		Sectors:     a.DataSectors(),
		Seed:        spec.seed,
		ThinkMean:   spec.think,
		MaxRetries:  spec.retries,
		Window:      spec.window,
		SLOTarget:   func(i int) des.Time { return spec.met[sloTierOf(i)] },
		BurstPeriod: spec.burstPeriod,
		BurstFactor: spec.burstFactor,
	})
	if err != nil {
		_ = h.Close()
		return nil, err
	}
	res.rep = rep
	res.stats = h.GW.Stats()
	if err := h.Close(); err != nil {
		return nil, fmt.Errorf("experiments: slo-chaos harness close: %w", err)
	}
	if rep.Aborted != 0 {
		return nil, fmt.Errorf("experiments: %d tenants aborted on transport errors", rep.Aborted)
	}
	res.state = ctl.State()
	for i, t := range rep.PerTenant {
		tt := &res.tiers[sloTierOf(i)]
		tt.issued += t.Issued
		tt.ok += t.OK
		tt.limited += t.Limited
		tt.overloaded += t.Overloaded
		tt.failed += t.Failed
		tt.met += t.Met
	}
	for i := 0; i < spec.tenants; i++ {
		q := spec.total / spec.tenants
		if i < spec.total%spec.tenants {
			q++
		}
		res.tiers[sloTierOf(i)].quota += int64(q)
	}
	res.digest = spec.sc.Timeline() + rep.Digest() +
		"slo " + res.state.String() + fmt.Sprintf(" skipped=%d\n", res.skipped)
	return res, nil
}

// compliance is the tier's met fraction of its logical quota, percent.
func (t sloTierTotals) compliance() float64 {
	if t.quota == 0 {
		return 0
	}
	return 100 * float64(t.met) / float64(t.quota)
}

// defaultSLOGatewaySpec sizes the gateway run from the config. The
// scenario horizon sits inside the expected load span so every event
// lands while the loop is hot.
func defaultSLOGatewaySpec(c Config) (sloGatewaySpec, error) {
	cfg := layout.Config{Ds: 2, Dr: 2, Dm: 2}
	tenants := 24
	total := c.IometerIOs * 8
	perTenant := total / tenants
	span := des.Time(perTenant) * 12 * des.Millisecond
	sc, err := genScenario(c.Seed, chaos.Options{
		Bricks: 1, DrivesPerBrick: cfg.Disks(),
		Start: span / 12, Horizon: span / 2,
		DriveFails: 1, SlowDrives: 1, BrickCrashes: 1, ScrubPasses: 1,
		SlowFactor: 8, OutageFrac: 1.0 / 20, ScrubMBps: 128,
	})
	if err != nil {
		return sloGatewaySpec{}, err
	}
	var targets, met [slo.NumTiers]des.Time
	targets[slo.Premium] = 15 * des.Millisecond
	targets[slo.Standard] = 40 * des.Millisecond
	met[slo.Premium] = 15 * des.Millisecond
	met[slo.Standard] = 40 * des.Millisecond
	met[slo.BestEffort] = 100 * des.Millisecond
	return sloGatewaySpec{
		cfg: cfg, spares: 1, depth: 24,
		tenants: tenants, total: total, seed: c.Seed,
		think: 4 * des.Millisecond,
		rate:  400, burst: 8, retries: 2,
		window:      span / 24,
		burstPeriod: span / 5, burstFactor: 2.5,
		sc: sc,
		ctl: slo.Options{
			Window:         span / 32,
			Targets:        targets,
			ViolateWindows: 2, RecoverWindows: 3, MinSamples: 4,
			Classify: sloClassifyTenant,
			Actuators: slo.Actuators{
				HedgeAfter:    3 * des.Millisecond,
				ThrottleScale: 0.4,
			},
		},
		met: met,
	}, nil
}

// sloClusterRes summarizes one cluster run; digest equality across
// worker counts is the determinism bar TestSameAtWorkersAndReruns holds.
type sloClusterRes struct {
	digest string
	p99    []int64
	window des.Time
	tiers  [slo.NumTiers]brickTier
	states []slo.State
	events uint64
}

// runSLOCluster executes one cluster run on the sharded epoch engine.
func runSLOCluster(spec brickSpec, workers int) (*sloClusterRes, error) {
	w, events, err := runBrickWorld(spec, workers, "slo cluster")
	if err != nil {
		return nil, err
	}
	r := &sloClusterRes{window: spec.window, tiers: w.tiers, events: events, p99: w.p99()}
	var b strings.Builder
	b.WriteString(spec.sc.Timeline())
	fmt.Fprintf(&b, "issued=%d finished=%d latNs=%d last=%.6f perBrick=%v p99=%v events=%d\n",
		w.issued, w.finished, w.latNs, float64(w.last), w.perBrick, r.p99, events)
	for t := slo.Premium; t < slo.NumTiers; t++ {
		tt := w.tiers[t]
		fmt.Fprintf(&b, "%s issued=%d ok=%d failed=%d sloOK=%d shed=%d rejected=%d\n",
			t, tt.issued, tt.ok, tt.failed, tt.sloOK, tt.shed, tt.rejected)
	}
	for i, a := range w.arr {
		rc := a.Recovery()
		fmt.Fprintf(&b, "b%d cr=%d rec=%d ad=%d lost=%d div=%d rep=%d skip=%d",
			i, rc.Crashes, rc.Recoveries, rc.Adopted, rc.LostDelayed,
			rc.DivergentFound, rc.Repaired, w.skipped[i])
		st := w.ctl[i].State()
		r.states = append(r.states, st)
		if spec.ctl != nil {
			fmt.Fprintf(&b, " ctl[%s]", st)
		}
		b.WriteByte('\n')
	}
	r.digest = b.String()
	return r, nil
}

// defaultSLOClusterSpec sizes the cluster run: three 8-drive bricks, a
// controller per brick when on, and the scenario horizon scaled to the
// workload.
func defaultSLOClusterSpec(c Config, on bool) (brickSpec, error) {
	bricks := 3
	cfg := layout.Config{Ds: 2, Dr: 2, Dm: 2}
	ios := c.IometerIOs * 2
	horizon := des.Time(ios) * 200 * des.Microsecond
	sc, err := genScenario(c.Seed, chaos.Options{
		Bricks: bricks, DrivesPerBrick: cfg.Disks(),
		Start: 5 * des.Millisecond, Horizon: horizon,
		DriveFails: 1, SlowDrives: 2, BrickCrashes: 1, ScrubPasses: 2, LoadBursts: 1,
		SlowFactor: 8, ScrubMBps: 128,
	})
	if err != nil {
		return brickSpec{}, err
	}
	var targets, tierSLO [slo.NumTiers]des.Time
	targets[slo.Premium] = 15 * des.Millisecond
	targets[slo.Standard] = 40 * des.Millisecond
	tierSLO[slo.Premium] = 15 * des.Millisecond
	tierSLO[slo.Standard] = 40 * des.Millisecond
	tierSLO[slo.BestEffort] = 80 * des.Millisecond
	classify := func(name string) slo.Tier {
		t, err := slo.ParseTier(name)
		if err != nil {
			return slo.Standard
		}
		return t
	}
	spec := brickSpec{
		bricks: bricks,
		brick: core.Options{
			Config: cfg, Policy: policyFor(cfg),
			MaxQueueDepth: 16,
			Crash:         core.CrashModel{Enabled: true, Durability: core.Volatile},
		},
		seed: c.Seed, ios: ios, outstanding: 32, sectors: 8, readFrac: 0.7,
		sc: sc, window: horizon / 16,
		tierOf: sloTierOf, tierSLO: tierSLO,
	}
	if on {
		spec.ctl = &slo.Options{
			Window:         horizon / 16,
			Targets:        targets,
			ViolateWindows: 1, RecoverWindows: 2, MinSamples: 3,
			ShedRetryAfter: 2 * des.Millisecond,
			Classify:       classify,
			Actuators:      slo.Actuators{HedgeAfter: 3 * des.Millisecond},
		}
	}
	return spec, nil
}

// SLOChaos is the registry experiment.
func SLOChaos(c Config) (*Figure, error) {
	spec, err := defaultSLOGatewaySpec(c)
	if err != nil {
		return nil, err
	}
	gwOff, err := runSLOGateway(spec, false)
	if err != nil {
		return nil, err
	}
	gwOn, err := runSLOGateway(spec, true)
	if err != nil {
		return nil, err
	}

	var cl [2]*sloClusterRes
	for i, on := range []bool{false, true} {
		cspec, err := defaultSLOClusterSpec(c, on)
		if err != nil {
			return nil, err
		}
		if cl[i], err = runSLOCluster(cspec, 1); err != nil {
			return nil, err
		}
	}
	clOff, clOn := cl[0], cl[1]

	fig := &Figure{
		Name:   "slo-chaos",
		Title:  "Per-tenant SLO control plane under chaos (controller off vs on)",
		XLabel: "window end (ms of simulated time)",
		YLabel: "p99 response time (ms)",
	}
	fig.Series = append(fig.Series,
		p99Series("p99/controller-off", clOff.window, clOff.p99),
		p99Series("p99/controller-on", clOn.window, clOn.p99))

	for t := slo.Premium; t < slo.NumTiers; t++ {
		name := t.String()
		offT, onT := gwOff.tiers[t], gwOn.tiers[t]
		fig.Metric("gateway/"+name+"/compliance_off", offT.compliance())
		fig.Metric("gateway/"+name+"/compliance_on", onT.compliance())
		fig.Metric("gateway/"+name+"/met_off", float64(offT.met))
		fig.Metric("gateway/"+name+"/met_on", float64(onT.met))
		fig.Metric("gateway/"+name+"/failed_off", float64(offT.failed))
		fig.Metric("gateway/"+name+"/failed_on", float64(onT.failed))
		fig.Metric("gateway/"+name+"/sheds_on", float64(gwOn.state.Tiers[t].Sheds))
		co, cn := clOff.tiers[t], clOn.tiers[t]
		if co.ok > 0 {
			fig.Metric("cluster/"+name+"/slo_pct_off", 100*float64(co.sloOK)/float64(co.issued))
		}
		if cn.ok > 0 {
			fig.Metric("cluster/"+name+"/slo_pct_on", 100*float64(cn.sloOK)/float64(cn.issued))
		}
		fig.Metric("cluster/"+name+"/shed_on", float64(cn.shed))
		fig.Metric("cluster/"+name+"/shed_off", float64(co.shed))
	}
	fig.Metric("gateway/premium/compliance_gain",
		gwOn.tiers[slo.Premium].compliance()-gwOff.tiers[slo.Premium].compliance())
	fig.Metric("gateway/escalations_on", float64(gwOn.state.Escalations))
	fig.Metric("gateway/deescalations_on", float64(gwOn.state.Deescalations))
	fig.Metric("gateway/shed_429_on", float64(gwOn.stats.Shed))
	fig.Metric("gateway/shed_429_off", float64(gwOff.stats.Shed))
	fig.Metric("gateway/level_index_end_on", float64(gwOn.state.LevelIndex))
	fig.Metric("cluster/events_on", float64(clOn.events))
	var escal float64
	for _, st := range clOn.states {
		escal += float64(st.Escalations)
	}
	fig.Metric("cluster/escalations_on", escal)
	return fig, nil
}
