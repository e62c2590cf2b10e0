package experiments

import (
	"math"
	"strings"
	"testing"
)

// testConfig returns the configuration the shape tests run at: the CLI's
// default scale, seed 1.
func testConfig() Config {
	return Config{TraceIOs: 3000, IometerIOs: 2500, Seed: 1}
}

// The experiment tests assert the paper's qualitative shapes — who wins,
// on which side crossovers fall, how curves move — at the testConfig() run
// scale. Absolute microseconds are not asserted (the substrate is a
// simulator, not the authors' testbed).

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"ST39133LWV", "10000", "5.200ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, s)
		}
	}
}

func TestTable2HeadPredictionAccuracy(t *testing.T) {
	r, err := Table2(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests < 1000 {
		t.Fatalf("only %d requests sampled", r.Requests)
	}
	// Paper: 0.22% misses; accept anything under 1%.
	if r.MissRate > 0.01 {
		t.Errorf("miss rate %.4f, want < 0.01", r.MissRate)
	}
	// Mean access in the low milliseconds, as in Table 2.
	if r.AvgAccess < 1500 || r.AvgAccess > 9000 {
		t.Errorf("average access %v, want 1.5-9ms", r.AvgAccess)
	}
	// Demerit a small fraction of access time (paper 1.9%; our noise model
	// is heavier-tailed, accept < 12%).
	if r.DemeritOverAT > 0.12 {
		t.Errorf("demerit/access = %.3f, want < 0.12", r.DemeritOverAT)
	}
	if math.Abs(float64(r.MeanError)) > 120 {
		t.Errorf("mean prediction error %v, want within ±120us", r.MeanError)
	}
}

func TestTable3MatchesTargets(t *testing.T) {
	res := Table3(testConfig())
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		m, want := r.Measured, r.Target
		if rel(m.ReadFrac, want.ReadFrac) > 0.12 {
			t.Errorf("%s: read frac %.3f vs %.3f", r.Name, m.ReadFrac, want.ReadFrac)
		}
		if rel(m.SeekLocality, want.Locality) > 0.35 {
			t.Errorf("%s: L %.2f vs %.2f", r.Name, m.SeekLocality, want.Locality)
		}
		if want.RAWFrac > 0 && rel(m.RAWFrac, want.RAWFrac) > 0.45 {
			t.Errorf("%s: RAW %.4f vs %.4f", r.Name, m.RAWFrac, want.RAWFrac)
		}
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / b
}

func TestFigure5SimulatorValidatesPrototype(t *testing.T) {
	f, err := Figure5(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: <3% throughput discrepancy. Our prototype-mode noise is
	// synthetic; require agreement within 8% at every point.
	for _, mix := range []string{"reads", "50/50 r/w"} {
		for _, q := range []float64{2, 4, 8, 16, 32, 64} {
			sim := f.At(mix+" simulator", q)
			proto := f.At(mix+" prototype", q)
			if math.IsNaN(sim) || math.IsNaN(proto) {
				t.Fatalf("%s q=%v missing", mix, q)
			}
			if gap := math.Abs(sim-proto) / sim; gap > 0.08 {
				t.Errorf("%s q=%v: sim %.0f vs proto %.0f IOPS (%.1f%% gap)", mix, q, sim, proto, gap*100)
			}
		}
		// Throughput grows with queue depth.
		if f.At(mix+" simulator", 64) <= f.At(mix+" simulator", 2) {
			t.Errorf("%s: no throughput growth with queue depth", mix)
		}
	}
	// Writes with foreground propagation cost throughput.
	if f.At("50/50 r/w simulator", 32) >= f.At("reads simulator", 32) {
		t.Error("50/50 workload not slower than pure reads")
	}
}

func TestFigure6Shapes(t *testing.T) {
	f, err := Figure6(testConfig(), "cello-base")
	if err != nil {
		t.Fatal(err)
	}
	sr6 := f.At("SR-Array (RSATF)", 6)
	stripe6 := f.At("striping (SATF)", 6)
	raid6 := f.At("RAID-10 (SATF)", 6)
	single := f.At("SR-Array (RSATF)", 1)
	if math.IsNaN(sr6) || math.IsNaN(stripe6) || math.IsNaN(raid6) || math.IsNaN(single) {
		t.Fatalf("missing points: %v", f.Render())
	}
	// Paper at D=6: SR 1.42x faster than striping, 1.23x than RAID-10,
	// 1.94x than one disk. Require the orderings and meaningful margins.
	if !(sr6 < raid6 && raid6 < stripe6) {
		t.Errorf("ordering broken: SR %.0f, RAID-10 %.0f, striping %.0f", sr6, raid6, stripe6)
	}
	if single/sr6 < 1.5 {
		t.Errorf("six-disk SR-Array only %.2fx faster than single disk (paper: 1.94x)", single/sr6)
	}
	if stripe6/sr6 < 1.05 {
		t.Errorf("striping/SR ratio %.2f, want > 1.05 (paper: 1.42)", stripe6/sr6)
	}
	// More disks never hurt the SR-Array.
	for _, s := range f.Series {
		if s.Label != "SR-Array (RSATF)" {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y*1.05 {
				t.Errorf("SR-Array response rose from D=%v to D=%v", s.Points[i-1].X, s.Points[i].X)
			}
		}
	}
}

func TestFigure7ModelPicksNearBest(t *testing.T) {
	f, err := Figure7(testConfig(), "cello-base")
	if err != nil {
		t.Fatal(err)
	}
	// At D=6, the model-chosen aspect ratio should be within 10% of the
	// best alternative measured.
	best := math.Inf(1)
	for _, s := range f.Series {
		if s.Label == "model-chosen" {
			continue
		}
		for _, p := range s.Points {
			if p.X == 6 && p.Y < best {
				best = p.Y
			}
		}
	}
	chosen := f.At("model-chosen", 6)
	if math.IsNaN(chosen) || math.IsInf(best, 1) {
		t.Fatalf("missing D=6 points:\n%s", f.Render())
	}
	if chosen > best*1.10 {
		t.Errorf("model-chosen %.0fus vs best alternative %.0fus (>10%% off)", chosen, best)
	}
}

func TestFigure8TPCCOrdering(t *testing.T) {
	f, err := Figure8(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sr := f.At("SR-Array (RSATF)", 36)
	raid := f.At("RAID-10 (SATF)", 36)
	stripe := f.At("striping (SATF)", 36)
	if math.IsNaN(sr) || math.IsNaN(raid) || math.IsNaN(stripe) {
		t.Fatalf("missing 36-disk points:\n%s", f.Render())
	}
	// Paper: properly configured SR-Array faster than RAID-10, which is
	// faster than striping, even on this write-heavy workload.
	if !(sr < raid && raid < stripe) {
		t.Errorf("TPC-C ordering broken: SR %.0f RAID-10 %.0f striping %.0f", sr, raid, stripe)
	}
}

func TestFigure9SchedulerGaps(t *testing.T) {
	f, err := Figure9(testConfig(), "cello-base")
	if err != nil {
		t.Fatal(err)
	}
	// At an elevated rate: SATF beats LOOK on striping, and the
	// RLOOK-RSATF gap is smaller than the LOOK-SATF gap (both already
	// account for rotation).
	const rate = 16
	look := f.At("striping LOOK", rate)
	satf := f.At("striping SATF", rate)
	rlook := f.At("SR-Array RLOOK", rate)
	rsatf := f.At("SR-Array RSATF", rate)
	if math.IsNaN(look) || math.IsNaN(satf) || math.IsNaN(rlook) || math.IsNaN(rsatf) {
		t.Skipf("saturated before rate %v:\n%s", rate, f.Render())
	}
	if satf >= look {
		t.Errorf("SATF (%.0f) not better than LOOK (%.0f) at rate %v", satf, look, rate)
	}
	if (rlook - rsatf) >= (look - satf) {
		t.Errorf("RLOOK-RSATF gap %.0f not smaller than LOOK-SATF gap %.0f", rlook-rsatf, look-satf)
	}
	// The paper's stronger point: a mis-configured array under a better
	// scheduler loses to a well-configured one under a weaker scheduler.
	if rlook >= satf {
		t.Errorf("2x3 RLOOK (%.0f) not better than 6x1 SATF (%.0f)", rlook, satf)
	}
}

// sustainableRate returns the highest swept rate whose mean response is at
// most limit.
func sustainableRate(f *Figure, label string, limit float64) float64 {
	best := 0.0
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Y <= limit && p.X > best {
				best = p.X
			}
		}
	}
	return best
}

func TestFigure10CelloSustainableRates(t *testing.T) {
	f, err := Figure10(testConfig(), "cello-base")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: at a 15 ms response bound, the 2x3 SR-Array sustains ~1.3x
	// the rate of RAID-10 and ~2.6x that of striping; the 1x6 and 6-way
	// mirror saturate first.
	const limit = 15000
	sr23 := sustainableRate(f, "2x3x1 rsatf", limit)
	stripe := sustainableRate(f, "6x1x1 satf", limit)
	raid := sustainableRate(f, "3x1x2 satf", limit)
	mirror := sustainableRate(f, "1x1x6 satf", limit)
	sr16 := sustainableRate(f, "1x6x1 rsatf", limit)
	if sr23 < stripe {
		t.Errorf("2x3 sustainable rate %.1f below striping %.1f", sr23, stripe)
	}
	if sr23 < raid {
		t.Errorf("2x3 sustainable rate %.1f below RAID-10 %.1f", sr23, raid)
	}
	if sr16 > sr23 || mirror > sr23 {
		t.Errorf("high-replication configs (1x6 %.1f, mirror %.1f) should saturate before 2x3 (%.1f)", sr16, mirror, sr23)
	}
}

func TestFigure10TPCCBestConfigShifts(t *testing.T) {
	f, err := Figure10(testConfig(), "tpcc")
	if err != nil {
		t.Fatal(err)
	}
	// At the original rate the 9x4 SR-Array wins; as the rate rises the
	// paper's succession of best configurations moves toward less
	// replication (9x4 -> 12x3 -> 18x2 -> ... -> 36x1). Our delayed-write
	// masking is more effective than the prototype's, so we assert the
	// direction of the succession rather than the full inversion: the
	// best configuration at the highest swept rate must use no more
	// rotational replication than the best at the original rate, and
	// 9x4's margin over striping must shrink.
	sr94at1 := f.At("9x4x1 rsatf", 1)
	stripeAt1 := f.At("36x1x1 satf", 1)
	if math.IsNaN(sr94at1) || math.IsNaN(stripeAt1) {
		t.Fatalf("missing rate-1 points:\n%s", f.Render())
	}
	if sr94at1 >= stripeAt1 {
		t.Errorf("9x4 (%.0f) not better than 36x1 (%.0f) at original rate", sr94at1, stripeAt1)
	}
	configs := map[string]int{ // label -> Dr
		"36x1x1 satf": 1, "18x2x1 rsatf": 2, "12x3x1 rsatf": 3, "9x4x1 rsatf": 4,
	}
	bestAt := func(rate float64) (string, float64) {
		label, best := "", math.Inf(1)
		for l := range configs {
			if v := f.At(l, rate); !math.IsNaN(v) && v < best {
				label, best = l, v
			}
		}
		return label, best
	}
	maxRate := 0.0
	for _, srs := range f.Series {
		for _, pt := range srs.Points {
			if pt.X > maxRate {
				maxRate = pt.X
			}
		}
	}
	lowBest, _ := bestAt(1)
	highBest, _ := bestAt(maxRate)
	if configs[highBest] > configs[lowBest] {
		t.Errorf("best config moved toward MORE replication under load: %s at 1x vs %s at %gx", lowBest, highBest, maxRate)
	}
	// And the replicated configuration's relative margin over striping
	// shrinks as the rate grows.
	marginLow := stripeAt1 / sr94at1
	marginHigh := f.At("36x1x1 satf", maxRate) / f.At("9x4x1 rsatf", maxRate)
	if marginHigh > marginLow*1.15 {
		t.Errorf("9x4's margin over striping grew under load (%.2fx -> %.2fx); propagation cost should erode it", marginLow, marginHigh)
	}
}

func TestFigure11MemoryVsDisks(t *testing.T) {
	f, err := Figure11(testConfig(), "cello-base")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("expected 4 series, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) < 2 {
			t.Fatalf("series %q has %d points:\n%s", s.Label, len(s.Points), f.Render())
		}
	}
	// More cache never hurts (at original rate).
	for _, s := range f.Series {
		if s.Label != "Memory x1" {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y*1.03 {
				t.Errorf("memory curve rose at %.1f%%: %.0f -> %.0f", s.Points[i].X, s.Points[i-1].Y, s.Points[i].Y)
			}
		}
	}
	// More disks help too.
	for _, rate := range []string{"SR-Array x1", "SR-Array x3"} {
		first, last := math.NaN(), math.NaN()
		for _, s := range f.Series {
			if s.Label == rate && len(s.Points) > 1 {
				first, last = s.Points[0].Y, s.Points[len(s.Points)-1].Y
			}
		}
		if !(last < first) {
			t.Errorf("%s: adding disks did not reduce response (%.0f -> %.0f)", rate, first, last)
		}
	}
}

func TestFigure12ThroughputScaling(t *testing.T) {
	f, err := Figure12(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{8, 32} {
		sr := fmt12(f, q, "SR-Array RSATF")
		stripe := fmt12(f, q, "striping SATF")
		// SR-Array should scale at least as well as striping everywhere
		// and clearly better at larger D with the short queue.
		for _, D := range []float64{4, 6, 8, 12} {
			if sr(D) < stripe(D)*0.98 {
				t.Errorf("q%d D=%v: SR %.0f below striping %.0f", q, D, sr(D), stripe(D))
			}
		}
		if q == 8 && sr(12) < stripe(12)*1.1 {
			t.Errorf("q8 D=12: SR %.0f not >=1.1x striping %.0f (rotational replicas should matter at short queues)", sr(12), stripe(12))
		}
		// Model tracks the RLOOK measurement.
		rlook := fmt12(f, q, "SR-Array RLOOK")
		model := fmt12(f, q, "RLOOK model")
		for _, D := range []float64{2, 4, 6, 8, 12} {
			if rel(model(D), rlook(D)) > 0.35 {
				t.Errorf("q%d D=%v: model %.0f vs RLOOK %.0f (>35%% off)", q, D, model(D), rlook(D))
			}
		}
	}
	// Longer queues narrow the SR-vs-striping gap (SATF finds rotational
	// wins in a deep queue).
	gap8 := fmt12(f, 8, "SR-Array RSATF")(12) / fmt12(f, 8, "striping SATF")(12)
	gap32 := fmt12(f, 32, "SR-Array RSATF")(12) / fmt12(f, 32, "striping SATF")(12)
	if gap32 > gap8*1.02 {
		t.Errorf("SR advantage grew with queue depth (q8 %.2fx vs q32 %.2fx); SATF should close the gap", gap8, gap32)
	}
}

func fmt12(f *Figure, q int, suffix string) func(float64) float64 {
	label := fmtLabel(q, suffix)
	return func(d float64) float64 { return f.At(label, d) }
}

func fmtLabel(q int, suffix string) string {
	return "q" + itoa(q) + " " + suffix
}

func itoa(v int) string {
	if v == 8 {
		return "8"
	}
	return "32"
}

func TestFigure13WriteRatioCrossover(t *testing.T) {
	f, err := Figure13(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{8, 32} {
		sr := func(w float64) float64 { return f.At(fmtLabel(q, "3x2x1 RSATF"), w) }
		stripe := func(w float64) float64 { return f.At(fmtLabel(q, "6x1x1 SATF"), w) }
		raid := func(w float64) float64 { return f.At(fmtLabel(q, "3x1x2 SATF"), w) }
		// Read-only: SR wins. All-writes: striping wins (no replicas to
		// propagate) and RAID-10 is worst (two seeks per write).
		if sr(0) <= stripe(0) {
			t.Errorf("q%d: SR (%.0f) not above striping (%.0f) at 0%% writes", q, sr(0), stripe(0))
		}
		if stripe(100) <= sr(100) {
			t.Errorf("q%d: striping (%.0f) not above SR (%.0f) at 100%% writes", q, stripe(100), sr(100))
		}
		if raid(100) >= sr(100) || raid(100) >= stripe(100) {
			t.Errorf("q%d: RAID-10 (%.0f) not worst at 100%% writes (SR %.0f, striping %.0f)", q, raid(100), sr(100), stripe(100))
		}
		// The crossover falls at or below 50% writes (paper Section 4.2).
		cross := 101.0
		for _, w := range []float64{0, 10, 20, 30, 40, 50, 70, 100} {
			if stripe(w) >= sr(w) {
				continue
			}
			cross = w
			break
		}
		if cross > 50 {
			t.Errorf("q%d: striping never overtook the SR-Array at or below 50%% writes", q)
		}
	}
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is minutes of simulation")
	}
	// Tiny config: this is a does-it-run check, not a shape check.
	c := Config{TraceIOs: 300, IometerIOs: 200, Seed: 3}
	for _, name := range Names() {
		out, err := Run(name, c)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
	if _, err := Run("fig99", c); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblationReplicaPlacementMatchesModels(t *testing.T) {
	f := AblationReplicaPlacement(testConfig())
	for _, dr := range []float64{2, 3, 6} {
		even := f.At("evenly spaced", dr)
		random := f.At("randomly placed", dr)
		if even >= random {
			t.Errorf("Dr=%v: even placement (%.0f) not better than random (%.0f)", dr, even, random)
		}
		if rel(even, f.At("model R/2D", dr)) > 0.05 {
			t.Errorf("Dr=%v: even placement %.0f off model %.0f", dr, even, f.At("model R/2D", dr))
		}
		if rel(random, f.At("model R/(D+1)", dr)) > 0.05 {
			t.Errorf("Dr=%v: random placement %.0f off model %.0f", dr, random, f.At("model R/(D+1)", dr))
		}
	}
}

func TestAblationMirrorSched(t *testing.T) {
	f, err := AblationMirrorSched(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate-request heuristic should not lose to the static
	// choice once queues form.
	for _, q := range []float64{16, 32} {
		dup := f.At("duplicate-request", q)
		static := f.At("static nearest", q)
		if dup > static*1.02 {
			t.Errorf("q=%v: duplicate-request latency %.0f above static %.0f", q, dup, static)
		}
	}
}

func TestAblationOpportunisticSavesRefReads(t *testing.T) {
	f, err := AblationOpportunistic(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	offRefs := f.At("reference reads after bootstrap", 0)
	onRefs := f.At("reference reads after bootstrap", 1)
	if onRefs > offRefs/2 {
		t.Errorf("opportunistic tracking used %v ref reads vs %v without — expected a large saving", onRefs, offRefs)
	}
	offMiss := f.At("rotation miss %", 0)
	onMiss := f.At("rotation miss %", 1)
	if onMiss > offMiss+1 {
		t.Errorf("opportunistic miss rate %.2f%% vs baseline %.2f%% — accuracy should hold", onMiss, offMiss)
	}
}

func TestAblationCoalesceSavesMediaWrites(t *testing.T) {
	f, err := AblationCoalesce(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	on := f.At("commands per write", 1)
	off := f.At("commands per write", 0)
	// Dr=3: without coalescing every write eventually costs ~3 media
	// writes; with it, superseded copies never hit the platter.
	if off < 2.5 {
		t.Errorf("without coalescing: %.2f commands/write, expected ~3", off)
	}
	if on > off*0.5 {
		t.Errorf("coalescing saved too little: %.2f vs %.2f commands/write", on, off)
	}
}

func TestAblationSlackTradeoff(t *testing.T) {
	f, err := AblationSlack(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	k0 := f.At("rotation miss %", 0)
	adaptive := f.At("rotation miss %", 1)
	if adaptive > k0 && adaptive > 1 {
		t.Errorf("adaptive slack misses %.2f%% vs k=0 %.2f%% — feedback should not be worse than no slack", adaptive, k0)
	}
}

func TestAblationIntraTrackBandwidth(t *testing.T) {
	f, err := AblationIntraTrack(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	intraBW := f.At("sequential bandwidth (MB/s)", 0)
	crossBW := f.At("sequential bandwidth (MB/s)", 1)
	// Section 2.2: intra-track replication "decreases the bandwidth of
	// large I/O"; cross-track placement avoids it.
	if crossBW < intraBW*1.3 {
		t.Errorf("cross-track bandwidth %.1f not clearly above intra-track %.1f", crossBW, intraBW)
	}
	// Small random reads are equivalent either way.
	intraLat := f.At("random 4KB read latency (us)", 0)
	crossLat := f.At("random 4KB read latency (us)", 1)
	if rel(intraLat, crossLat) > 0.10 {
		t.Errorf("random-read latency differs: intra %.0f vs cross %.0f", intraLat, crossLat)
	}
}

func TestSection25SRArrayVsStripedMirror(t *testing.T) {
	f, err := Section25(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// "The performance of our best effort implementation of a striped
	// mirror has failed to match that of an SR-Array counterpart."
	for _, q := range []float64{4, 16, 32} {
		sr := f.At("2x3x1 SR-Array (RSATF)", q)
		sm := f.At("2x1x3 striped mirror (SATF)", q)
		if sm > sr*1.02 {
			t.Errorf("q=%v: striped mirror %.0f IOPS beats SR-Array %.0f", q, sm, sr)
		}
	}
}

func TestSensitivityDirections(t *testing.T) {
	f, err := Sensitivity(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"model-recommended Dr", "measured-best Dr"} {
		slow := f.At(row, 0) // 5400 rpm
		ref := f.At(row, 1)
		fast := f.At(row, 2) // 15000 rpm
		arm := f.At(row, 3)  // 2x seeks
		// Section 2.3: slow spindles demand more rotational replication;
		// slow arms demand more striping.
		if !(slow >= ref && ref >= fast) {
			t.Errorf("%s: spindle direction broken: 5400rpm=%v ref=%v 15k=%v", row, slow, ref, fast)
		}
		if arm > ref {
			t.Errorf("%s: slow arm wants MORE replicas (%v) than reference (%v)", row, arm, ref)
		}
		if slow <= arm {
			t.Errorf("%s: slow spindle (%v) should want strictly more replicas than slow arm (%v)", row, slow, arm)
		}
	}
}

func TestTCQHostSchedulingWins(t *testing.T) {
	f, err := TCQ(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{8, 16, 32} {
		host := f.At("2x3 host RSATF", q)
		naive := f.At("2x3 TCQ drive SATF (naive host)", q)
		// The paper's architectural bet: host-based scheduling with
		// software head tracking beats delegating to a smart drive,
		// because only the host can exploit rotational replicas (and TCQ
		// commits to a tag before all options are known).
		if host < naive*1.15 {
			t.Errorf("q=%v: host RSATF %.0f not clearly above TCQ naive host %.0f", q, host, naive)
		}
		// On plain striping the gap is much smaller: drive scheduling
		// nearly recovers host SATF when no replicas are involved.
		hostS := f.At("6x1 host SATF", q)
		driveS := f.At("6x1 TCQ drive SATF", q)
		if driveS < hostS*0.85 {
			t.Errorf("q=%v: striping TCQ %.0f fell far below host SATF %.0f", q, driveS, hostS)
		}
	}
}

func TestAblationAgingBoundsTail(t *testing.T) {
	f, err := AblationAging(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The aged variant trades a little mean latency for a much better
	// tail.
	if f.At("max", 1) > f.At("max", 0)*0.7 {
		t.Errorf("asatf max %.0f not well below satf max %.0f", f.At("max", 1), f.At("max", 0))
	}
	if f.At("mean", 1) > f.At("mean", 0)*1.25 {
		t.Errorf("asatf mean %.0f paid too much over satf %.0f", f.At("mean", 1), f.At("mean", 0))
	}
}

func TestSummaryAllClaimsHold(t *testing.T) {
	s, err := Summary(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Claims) < 10 {
		t.Fatalf("only %d claims checked", len(s.Claims))
	}
	for _, c := range s.Claims {
		if !c.OK {
			t.Errorf("claim %s deviates: paper %q, measured %q", c.ID, c.Paper, c.Measured)
		}
	}
}

func TestBreakdownShowsTheTradeoff(t *testing.T) {
	f, err := Breakdown(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Config indexes: 0=6x1x1 striping, 2=2x3x1 SR-Array.
	if srRot, stRot := f.At("rotation", 2), f.At("rotation", 0); srRot > stRot*0.55 {
		t.Errorf("SR-Array rotation %.0f not well below striping's %.0f", srRot, stRot)
	}
	if srSeek, stSeek := f.At("seek", 2), f.At("seek", 0); srSeek < stSeek {
		t.Errorf("SR-Array seek %.0f should exceed striping's %.0f (half the cylinders vs a sixth)", srSeek, stSeek)
	}
	// Every component positive everywhere.
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s at %v is %v", s.Label, p.X, p.Y)
			}
		}
	}
}
