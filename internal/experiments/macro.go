package experiments

import (
	"fmt"
	"math"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/workload"
)

// srChoice picks the SR-Array aspect ratio the paper's models recommend
// for D disks under workload statistics s (p=1: replica propagation is
// masked at original trace speed).
func srChoice(D int, locality float64) layout.Config {
	ds, dr, err := model.Optimize(paperDisk(), D, 1, 1, locality, func(dr int) bool {
		return refHeads%dr == 0
	})
	if err != nil {
		panic(err)
	}
	return layout.SRArray(ds, dr)
}

// Figure6 compares average response time versus number of disks for
// striping, RAID-10, D-way mirroring, and the model-chosen SR-Array under
// the Cello workloads at original speed, plus the analytic latency model
// (paper Figure 6).
func Figure6(c Config, workloadName string) (*Figure, error) {
	var p tracegen.Params
	switch workloadName {
	case "cello-base":
		p = tracegen.CelloBase(c.Seed)
	case "cello-disk6":
		p = tracegen.CelloDisk6(c.Seed)
	default:
		return nil, fmt.Errorf("figure6: unknown workload %q", workloadName)
	}
	tr := genTrace(p, c.TraceIOs)
	st := tr.ComputeStats()
	f := &Figure{
		Name:   "Figure 6 (" + workloadName + ")",
		Title:  "average I/O response time vs number of disks, original trace speed",
		XLabel: "disks",
		YLabel: "mean response (us)",
	}
	ds := []int{1, 2, 3, 4, 6, 8, 12}

	stripe := Series{Label: "striping (SATF)"}
	raid10 := Series{Label: "RAID-10 (SATF)"}
	mirror := Series{Label: "Dm-way mirror (SATF)"}
	sr := Series{Label: "SR-Array (RSATF)"}
	mdl := Series{Label: "model (Eq. 5/6)"}
	dsk := paperDisk()
	type slot struct {
		series *Series
		x      float64
	}
	var jobs []replayJob
	var slots []slot
	add := func(s *Series, D int, cfg layout.Config) {
		jobs = append(jobs, replayJob{cfg: cfg, tr: tr})
		slots = append(slots, slot{s, float64(D)})
	}
	for _, D := range ds {
		add(&stripe, D, layout.Striping(D))
		if D%2 == 0 {
			add(&raid10, D, layout.RAID10(D))
		}
		if D > 1 {
			add(&mirror, D, layout.Mirror(D))
		}
		cfg := srChoice(D, st.SeekLocality)
		add(&sr, D, cfg)
		// The model curve evaluates Eq. (9) at the integer configuration
		// with p=1 and the workload's locality, plus the reporting pad.
		lat := model.Latency(dsk, cfg.Ds, cfg.Dr, 1, st.SeekLocality)
		mdl.Add(float64(D), float64(lat+ReportPad))
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		if r.ok {
			slots[i].series.Add(slots[i].x, float64(r.mean))
		}
	}
	f.Series = []Series{stripe, raid10, mirror, sr, mdl}
	return f, nil
}

// Figure7 sweeps the SR-Array aspect ratio at fixed disk counts for a
// Cello workload, marking what the model recommends (paper Figure 7).
func Figure7(c Config, workloadName string) (*Figure, error) {
	var p tracegen.Params
	switch workloadName {
	case "cello-base":
		p = tracegen.CelloBase(c.Seed)
	case "cello-disk6":
		p = tracegen.CelloDisk6(c.Seed)
	default:
		return nil, fmt.Errorf("figure7: unknown workload %q", workloadName)
	}
	tr := genTrace(p, c.TraceIOs)
	st := tr.ComputeStats()
	f := &Figure{
		Name:   "Figure 7 (" + workloadName + ")",
		Title:  "SR-Array aspect ratio alternatives (Y at X=D for each Ds x Dr)",
		XLabel: "disks",
		YLabel: "mean response (us)",
	}
	recommended := Series{Label: "model-chosen"}
	type meta struct {
		label  string
		x      float64
		chosen bool
	}
	var jobs []replayJob
	var metas []meta
	for _, D := range []int{2, 4, 6, 12} {
		chosen := srChoice(D, st.SeekLocality)
		for dr := 1; dr <= D && dr <= model.MaxDr; dr++ {
			if D%dr != 0 || refHeads%dr != 0 {
				continue
			}
			cfg := layout.SRArray(D/dr, dr)
			jobs = append(jobs, replayJob{cfg: cfg, tr: tr})
			metas = append(metas, meta{
				label:  fmt.Sprintf("%dx%d", cfg.Ds, cfg.Dr),
				x:      float64(D),
				chosen: cfg.Ds == chosen.Ds && cfg.Dr == chosen.Dr,
			})
		}
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		if !r.ok {
			continue
		}
		s := Series{Label: metas[i].label}
		s.Add(metas[i].x, float64(r.mean))
		f.Series = append(f.Series, s)
		if metas[i].chosen {
			recommended.Add(metas[i].x, float64(r.mean))
		}
	}
	f.Series = append(f.Series, recommended)
	return f, nil
}

// Figure8 replays the TPC-C trace at original speed on striping, RAID-10,
// and SR-Array configurations from 12 to 36 disks (paper Figure 8(a)),
// plus the aspect-ratio alternatives at 36 disks (8(b), encoded as extra
// series with a single point).
func Figure8(c Config) (*Figure, error) {
	p := tracegen.TPCC(c.Seed)
	tr := genTrace(p, c.TraceIOs)
	st := tr.ComputeStats()
	f := &Figure{
		Name:   "Figure 8 (tpcc)",
		Title:  "TPC-C response time vs disks; single-point series are 36-disk alternatives",
		XLabel: "disks",
		YLabel: "mean response (us)",
	}
	stripe := Series{Label: "striping (SATF)"}
	raid10 := Series{Label: "RAID-10 (SATF)"}
	sr := Series{Label: "SR-Array (RSATF)"}
	type slot struct {
		series *Series // nil: a fresh single-point alternative series
		label  string
		x      float64
	}
	var jobs []replayJob
	var slots []slot
	for _, D := range []int{12, 18, 24, 36} {
		jobs = append(jobs, replayJob{cfg: layout.Striping(D), tr: tr})
		slots = append(slots, slot{series: &stripe, x: float64(D)})
		jobs = append(jobs, replayJob{cfg: layout.RAID10(D), tr: tr})
		slots = append(slots, slot{series: &raid10, x: float64(D)})
		jobs = append(jobs, replayJob{cfg: srChoice(D, st.SeekLocality), tr: tr})
		slots = append(slots, slot{series: &sr, x: float64(D)})
	}
	// 8(b): alternatives at D=36.
	for _, alt := range []layout.Config{
		layout.SRArray(36, 1), layout.SRArray(18, 2), layout.SRArray(12, 3),
		layout.SRArray(9, 4), layout.SRArray(6, 6),
	} {
		jobs = append(jobs, replayJob{cfg: alt, tr: tr})
		slots = append(slots, slot{label: fmt.Sprintf("36d %dx%d", alt.Ds, alt.Dr), x: 36})
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	var alts []Series
	for i, r := range res {
		if !r.ok {
			continue
		}
		if slots[i].series != nil {
			slots[i].series.Add(slots[i].x, float64(r.mean))
			continue
		}
		s := Series{Label: slots[i].label}
		s.Add(slots[i].x, float64(r.mean))
		alts = append(alts, s)
	}
	f.Series = append([]Series{stripe, raid10, sr}, alts...)
	return f, nil
}

// Figure9 compares local schedulers as the trace rate scales: LOOK vs
// SATF on striping and RLOOK vs RSATF on the SR-Array (paper Figure 9).
func Figure9(c Config, workloadName string) (*Figure, error) {
	var p tracegen.Params
	var stripeCfg, srCfg layout.Config
	var rates []float64
	switch workloadName {
	case "cello-base":
		p = tracegen.CelloBase(c.Seed)
		stripeCfg, srCfg = layout.Striping(6), layout.SRArray(2, 3)
		rates = []float64{1, 16, 48, 96, 192, 288}
	case "tpcc":
		p = tracegen.TPCC(c.Seed)
		stripeCfg, srCfg = layout.Striping(36), layout.SRArray(9, 4)
		rates = []float64{1, 2, 4, 8, 12, 16}
	default:
		return nil, fmt.Errorf("figure9: unknown workload %q", workloadName)
	}
	base := genTrace(p, c.TraceIOs)
	f := &Figure{
		Name:   "Figure 9 (" + workloadName + ")",
		Title:  "local scheduler comparison vs trace scale rate",
		XLabel: "scale rate",
		YLabel: "mean response (us)",
	}
	runs := []struct {
		label  string
		cfg    layout.Config
		policy string
	}{
		{"striping LOOK", stripeCfg, "look"},
		{"striping SATF", stripeCfg, "satf"},
		{"SR-Array RLOOK", srCfg, "rlook"},
		{"SR-Array RSATF", srCfg, "rsatf"},
	}
	// One scaled copy per rate, shared across runs (replay only reads it).
	scaled := make([]*trace.Trace, len(rates))
	for i, rate := range rates {
		scaled[i] = base.Scale(rate)
	}
	var jobs []replayJob
	for _, r := range runs {
		for _, tr := range scaled {
			jobs = append(jobs, replayJob{cfg: r.cfg, policy: r.policy, tr: tr})
		}
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	for ri, r := range runs {
		s := Series{Label: r.label}
		for xi, rate := range rates {
			p := res[ri*len(rates)+xi]
			if !p.ok {
				break // saturated; higher rates only get worse
			}
			s.Add(rate, float64(p.mean))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Figure10 compares response time across configurations as the trace rate
// scales, at fixed disk budgets (paper Figure 10): 6 disks for Cello base,
// 36 for TPC-C.
func Figure10(c Config, workloadName string) (*Figure, error) {
	var p tracegen.Params
	var configs []layout.Config
	var rates []float64
	switch workloadName {
	case "cello-base":
		p = tracegen.CelloBase(c.Seed)
		configs = []layout.Config{
			layout.Striping(6),   // 6x1x1
			layout.RAID10(6),     // 3x1x2
			layout.Mirror(6),     // 1x1x6
			layout.SRArray(1, 6), // 1x6x1
			layout.SRArray(2, 3), // 2x3x1
			layout.SRArray(3, 2), // 3x2x1
		}
		rates = []float64{1, 16, 48, 96, 160, 240, 320, 420}
	case "tpcc":
		p = tracegen.TPCC(c.Seed)
		configs = []layout.Config{
			layout.Striping(36),
			layout.SRArray(18, 2),
			layout.SRArray(12, 3),
			layout.SRArray(9, 4),
			layout.RAID10(36), // 18x1x2
		}
		rates = []float64{1, 2, 4, 8, 12, 16, 20}
	default:
		return nil, fmt.Errorf("figure10: unknown workload %q", workloadName)
	}
	base := genTrace(p, c.TraceIOs)
	f := &Figure{
		Name:   "Figure 10 (" + workloadName + ")",
		Title:  "response time vs trace scale rate at a fixed disk budget",
		XLabel: "scale rate",
		YLabel: "mean response (us)",
	}
	scaled := make([]*trace.Trace, len(rates))
	for i, rate := range rates {
		scaled[i] = base.Scale(rate)
	}
	var jobs []replayJob
	for _, cfg := range configs {
		for _, tr := range scaled {
			jobs = append(jobs, replayJob{cfg: cfg, tr: tr})
		}
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	for ci, cfg := range configs {
		s := Series{Label: cfg.String() + " " + policyFor(cfg)}
		for xi, rate := range rates {
			p := res[ci*len(rates)+xi]
			if !p.ok {
				break
			}
			s.Add(rate, float64(p.mean))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Figure11 compares adding disks against adding a volatile LRU memory
// cache (paper Figure 11). Disk series: model-chosen SR-Arrays at growing
// D. Memory series: the base configuration fronted by caches of growing
// size (expressed as a percent of the data set on the X axis of the
// returned memory series).
func Figure11(c Config, workloadName string) (*Figure, error) {
	var p tracegen.Params
	var baseDisks int
	var diskCounts []int
	switch workloadName {
	case "cello-base":
		p = tracegen.CelloBase(c.Seed)
		baseDisks = 1
		diskCounts = []int{1, 2, 4, 6, 8}
	case "tpcc":
		p = tracegen.TPCC(c.Seed)
		baseDisks = 12
		diskCounts = []int{12, 18, 24, 36}
	default:
		return nil, fmt.Errorf("figure11: unknown workload %q", workloadName)
	}
	base := genTrace(p, c.TraceIOs)
	st := base.ComputeStats()
	// Cache sizes straddle the trace's measured working set so the hit
	// rate is capacity-sensitive at any run scale (the paper swept percent
	// of the file system over a week-long trace; a shortened trace touches
	// proportionally less, so fixed percentages would all exceed it).
	ws := workingSetBytes(base)
	cacheSizes := []int64{ws / 8, ws / 4, ws / 2, ws}
	f := &Figure{
		Name:   "Figure 11 (" + workloadName + ")",
		Title:  "scaling disks vs adding memory cache (memory X axis = % of data set)",
		XLabel: "disks | cache %",
		YLabel: "mean response (us)",
	}
	type slot struct {
		si int // index into seriesList
		x  float64
	}
	var seriesList []Series
	var jobs []replayJob
	var slots []slot
	for _, rate := range []float64{1, 3} {
		tr := base.Scale(rate)
		di := len(seriesList)
		seriesList = append(seriesList, Series{Label: fmt.Sprintf("SR-Array x%g", rate)})
		for _, D := range diskCounts {
			jobs = append(jobs, replayJob{cfg: srChoice(D, st.SeekLocality), tr: tr})
			slots = append(slots, slot{di, float64(D)})
		}
		mi := len(seriesList)
		seriesList = append(seriesList, Series{Label: fmt.Sprintf("Memory x%g", rate)})
		for _, bytes := range cacheSizes {
			jobs = append(jobs, replayJob{cfg: srChoice(baseDisks, st.SeekLocality), tr: tr, cacheBytes: bytes})
			slots = append(slots, slot{mi, float64(bytes) / float64(tr.DataSectors*512) * 100})
		}
	}
	res, err := runReplayJobs(c.Seed, jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		if r.ok {
			seriesList[slots[i].si].Add(slots[i].x, float64(r.mean))
		}
	}
	f.Series = seriesList
	return f, nil
}

// replayCached is replayMean through a blockcache.CachedArray.
func replayCached(cfg layout.Config, tr *trace.Trace, seed int64, cacheBytes int64) (des.Time, bool, error) {
	sim, a, err := buildArray(cfg, policyFor(cfg), tr.DataSectors, seed, nil)
	if err != nil {
		return 0, false, err
	}
	ca := blockcache.NewCachedArray(a, cacheBytes)
	// Inline open-loop replay through the cache.
	var sync stats64
	finished := 0
	saturated := false
	var arrive func(i int)
	arrive = func(i int) {
		if i >= len(tr.Records) || saturated {
			return
		}
		rec := tr.Records[i]
		at := rec.At
		if at < sim.Now() {
			at = sim.Now()
		}
		sim.At(at, func() {
			op := core.Read
			if rec.Write {
				op = core.Write
			}
			if err := ca.Submit(op, rec.Off, rec.Count, rec.Async, func(r core.Result) {
				if !r.Async {
					sync.add(float64(r.Latency()))
				}
				finished++
			}); err != nil {
				panic(err)
			}
			for d := 0; d < a.Disks(); d++ {
				if a.QueueLen(d) > workload.SaturationQueue {
					saturated = true
				}
			}
			arrive(i + 1)
		})
	}
	arrive(0)
	submitted := len(tr.Records)
	for finished < submitted {
		if !sim.Step() {
			if saturated {
				return 0, false, nil
			}
			return 0, false, fmt.Errorf("experiments: cached replay stalled")
		}
		if saturated {
			return 0, false, nil
		}
	}
	return des.Time(sync.mean()) + ReportPad, true, nil
}

// workingSetBytes counts the distinct 8KB blocks a trace touches.
func workingSetBytes(tr *trace.Trace) int64 {
	blocks := map[int64]bool{}
	for _, r := range tr.Records {
		for b := r.Off / 16; b <= (r.Off+int64(r.Count)-1)/16; b++ {
			blocks[b] = true
		}
	}
	return int64(len(blocks)) * 16 * 512
}

type stats64 struct {
	n   int
	sum float64
}

func (s *stats64) add(v float64) { s.n++; s.sum += v }
func (s *stats64) mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}
