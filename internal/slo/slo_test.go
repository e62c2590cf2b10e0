package slo

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

const testWindow = 100 * des.Millisecond

func testVolume(t *testing.T) *core.Array {
	t.Helper()
	a, err := core.New(des.New(), core.Options{
		Config:        layout.Config{Ds: 2, Dr: 2, Dm: 1},
		Policy:        "rsatf",
		Seed:          1,
		MaxQueueDepth: 8,
	})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return a
}

func testOptions() Options {
	return Options{
		Window:         testWindow,
		Targets:        [NumTiers]des.Time{Premium: 20 * des.Millisecond, Standard: 50 * des.Millisecond},
		ViolateWindows: 3,
		RecoverWindows: 4,
		MinSamples:     4,
		Classify: func(tenant string) Tier {
			switch {
			case strings.HasPrefix(tenant, "p"):
				return Premium
			case strings.HasPrefix(tenant, "b"):
				return BestEffort
			}
			return Standard
		},
	}
}

// feeder drives synthetic windows through a controller on the virtual
// window grid.
type feeder struct {
	c   *Controller
	win int64
}

// window feeds one full window of completions (all with latency lat for
// tenant) and then advances the clock into the next window so it is
// judged. n=0 feeds an empty (trivially compliant) window.
func (f *feeder) window(tenant string, lat des.Time, n int) {
	at := des.Time(f.win) * testWindow
	for i := 0; i < n; i++ {
		f.c.Observe(at, tenant, lat, false)
	}
	f.win++
	// First touch of the next window closes (and judges) this one.
	f.c.Admit(des.Time(f.win)*testWindow, "p0")
}

func TestSingleSpikeDoesNotBrownout(t *testing.T) {
	c, err := New(testVolume(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	f.window("p0", des.Millisecond, 16) // warm-up, compliant
	f.window("p0", des.Second, 16)      // one massive p99 spike
	if got := c.Level(); got != Normal {
		t.Fatalf("level after single spike = %v, want normal", got)
	}
	for i := 0; i < 8; i++ {
		f.window("p0", des.Millisecond, 16)
	}
	if got := c.Level(); got != Normal {
		t.Fatalf("level after spike cleared = %v, want normal", got)
	}
	if st := c.State(); st.Violations != 1 || st.Escalations != 0 {
		t.Fatalf("state = %+v, want exactly 1 violation and 0 escalations", st)
	}
}

func TestBelowMinSamplesIsNotJudged(t *testing.T) {
	c, err := New(testVolume(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	for i := 0; i < 10; i++ {
		f.window("p0", des.Second, 3) // violating latencies, but < MinSamples
	}
	st := c.State()
	if st.Judged != 0 || st.Violations != 0 || c.Level() != Normal {
		t.Fatalf("sparse windows were judged: %+v", st)
	}
}

// TestEscalationLadder walks the full brownout ladder under sustained
// violation and checks each rung's actuation and shed set.
func TestEscalationLadder(t *testing.T) {
	vol := testVolume(t)
	base := vol.Tuning()
	opts := testOptions()
	opts.Actuators = Actuators{HedgeAfter: 5 * des.Millisecond}
	c, err := New(vol, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}

	rungs := []struct {
		level   Level
		shedBE  bool
		shedStd bool
	}{
		{DegradeBackground, false, false},
		{ShedBestEffort, true, false},
		{ShedStandard, true, true},
	}
	for _, rung := range rungs {
		// ViolateWindows consecutive violating windows climb one rung.
		for i := 0; i < opts.ViolateWindows; i++ {
			f.window("p0", des.Second, 16)
		}
		if got := c.Level(); got != rung.level {
			t.Fatalf("level = %v, want %v", got, rung.level)
		}
		now := des.Time(f.win) * testWindow
		if _, ok := c.Admit(now, "p0"); !ok {
			t.Fatalf("%v: premium shed — premium must never be shed", rung.level)
		}
		if _, ok := c.Admit(now, "b0"); ok == rung.shedBE {
			t.Fatalf("%v: best-effort admitted=%v, want shed=%v", rung.level, ok, rung.shedBE)
		}
		if _, ok := c.Admit(now, "s0"); ok == rung.shedStd {
			t.Fatalf("%v: standard admitted=%v, want shed=%v", rung.level, ok, rung.shedStd)
		}
	}

	// Best-effort was shed strictly before standard.
	st := c.State()
	if st.Tiers[BestEffort].Sheds == 0 || st.Tiers[Standard].Sheds == 0 || st.Tiers[Premium].Sheds != 0 {
		t.Fatalf("shed counters %+v: want best-effort and standard shed, premium untouched", st.Tiers)
	}
	if st.Escalations != 3 {
		t.Fatalf("escalations = %d, want 3", st.Escalations)
	}

	// Actuation: background pacing floored, hedge clamped, depth tightened.
	tun := vol.Tuning()
	if tun.ScrubMBps != 1 || tun.RebuildMBps != 1 || tun.RecoveryScanMBps != 1 {
		t.Fatalf("background pacing not floored: %+v", tun)
	}
	if tun.HedgeAfter != 5*des.Millisecond {
		t.Fatalf("hedge delay = %v, want clamped to 5ms", tun.HedgeAfter)
	}
	if tun.MaxQueueDepth != base.MaxQueueDepth/2 {
		t.Fatalf("queue depth = %d, want %d", tun.MaxQueueDepth, base.MaxQueueDepth/2)
	}
	// The retry hint quoted to shed tenants defaults to one window.
	if ra, ok := c.Admit(des.Time(f.win)*testWindow, "b1"); ok || ra != testWindow {
		t.Fatalf("shed retry-after = %v admitted=%v, want %v", ra, ok, testWindow)
	}
}

// TestRecoveryReverseOrder verifies a recovered system re-admits tiers one
// level per RecoverWindows in reverse shed order, restores the baseline
// tuning exactly, and does not oscillate.
func TestRecoveryReverseOrder(t *testing.T) {
	vol := testVolume(t)
	base := vol.Tuning()
	opts := testOptions()
	c, err := New(vol, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	for i := 0; i < 3*opts.ViolateWindows; i++ {
		f.window("p0", des.Second, 16)
	}
	if c.Level() != ShedStandard {
		t.Fatalf("setup: level = %v, want standard-shed", c.Level())
	}

	// Compliant windows de-escalate one level per RecoverWindows:
	// standard re-admitted first, best-effort second, then Normal.
	down := []Level{ShedBestEffort, DegradeBackground, Normal}
	for _, want := range down {
		for i := 0; i < opts.RecoverWindows; i++ {
			f.window("p0", des.Millisecond, 16)
		}
		if got := c.Level(); got != want {
			t.Fatalf("level = %v, want %v", got, want)
		}
	}

	// No oscillation: further compliant traffic keeps us at Normal and
	// the baseline actuators are restored bit-exactly.
	for i := 0; i < 10; i++ {
		f.window("p0", des.Millisecond, 16)
	}
	st := c.State()
	if c.Level() != Normal || st.Escalations != 3 || st.Deescalations != 3 {
		t.Fatalf("oscillation: level=%v esc=%d deesc=%d", c.Level(), st.Escalations, st.Deescalations)
	}
	if got := vol.Tuning(); got != base {
		t.Fatalf("tuning not restored: got %+v, want %+v", got, base)
	}
	if !strings.Contains(st.TransitionsLog, "best-effort-shed→background-deferred") {
		t.Fatalf("transitions log missing reverse-order de-escalation: %q", st.TransitionsLog)
	}
}

// TestShedTenantsDriveReadmission: once every non-premium tenant is shed
// their Observe stream dries up, but their Admit probes still advance the
// window grid; evidence-free windows count compliant, so the system can
// come back.
func TestShedTenantsDriveReadmission(t *testing.T) {
	opts := testOptions()
	c, err := New(testVolume(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	for i := 0; i < 3*opts.ViolateWindows; i++ {
		f.window("s0", des.Second, 16)
	}
	if c.Level() != ShedStandard {
		t.Fatalf("setup: level = %v", c.Level())
	}
	// Only shed tenants knocking — no completions at all.
	for w := 0; w < 3*opts.RecoverWindows+3; w++ {
		f.win++
		c.Admit(des.Time(f.win)*testWindow, "s0")
	}
	if got := c.Level(); got != Normal {
		t.Fatalf("level = %v after idle recovery, want normal", got)
	}
	if _, ok := c.Admit(des.Time(f.win)*testWindow, "s0"); !ok {
		t.Fatal("standard still shed after recovery")
	}
}

func TestFailuresCountAgainstTarget(t *testing.T) {
	c, err := New(testVolume(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	at := des.Time(0)
	for i := 0; i < 16; i++ {
		c.Observe(at, "p0", des.Millisecond, true) // fast but failed
	}
	f.win++
	c.Admit(des.Time(f.win)*testWindow, "p0")
	st := c.State()
	if st.Violations != 1 || st.Tiers[Premium].Failures != 16 {
		t.Fatalf("failures did not violate: %+v", st)
	}
}

func TestRateScaleByTierAndLevel(t *testing.T) {
	c, err := New(testVolume(t), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := &feeder{c: c}
	if s := c.RateScale("b0"); s != 1 {
		t.Fatalf("normal scale = %v, want 1", s)
	}
	for i := 0; i < 3; i++ {
		f.window("s0", des.Second, 16)
	}
	// DegradeBackground: best-effort throttled, standard and premium not.
	if c.Level() != DegradeBackground {
		t.Fatalf("level = %v", c.Level())
	}
	if s := c.RateScale("b0"); s != 0.5 {
		t.Fatalf("best-effort scale = %v, want 0.5", s)
	}
	if s := c.RateScale("s0"); s != 1 {
		t.Fatalf("standard scale = %v, want 1", s)
	}
	for i := 0; i < 3; i++ {
		f.window("s0", des.Second, 16)
	}
	// ShedBestEffort: standard throttled too, premium never.
	if s := c.RateScale("s0"); s != 0.5 {
		t.Fatalf("standard scale = %v, want 0.5", s)
	}
	if s := c.RateScale("p0"); s != 1 {
		t.Fatalf("premium scale = %v, want 1", s)
	}
}

func TestNilControllerInert(t *testing.T) {
	var c *Controller
	if _, ok := c.Admit(0, "x"); !ok {
		t.Fatal("nil controller shed a request")
	}
	c.Observe(0, "x", des.Second, true)
	if s := c.RateScale("x"); s != 1 {
		t.Fatalf("nil RateScale = %v", s)
	}
	if got := c.State(); got.Level != "normal" {
		t.Fatalf("nil State = %+v", got)
	}
	if got := c.Level(); got != Normal {
		t.Fatalf("nil Level = %v", got)
	}
	if got := c.Tier("x"); got != Standard {
		t.Fatalf("nil Tier = %v", got)
	}
}

func TestOptionsValidate(t *testing.T) {
	vol := testVolume(t)
	bad := []Options{
		{Window: -1},
		{Targets: [NumTiers]des.Time{Premium: -des.Millisecond}},
		{ViolateWindows: -1},
		{Actuators: Actuators{ThrottleScale: -0.5}},
	}
	for i, o := range bad {
		if _, err := New(vol, o); err == nil {
			t.Errorf("case %d: New accepted invalid options %+v", i, o)
		}
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Error("New accepted nil volume")
	}
	if _, err := New(vol, Options{}); err != nil {
		t.Errorf("New rejected zero options: %v", err)
	}
}

func TestParseTier(t *testing.T) {
	for name, want := range map[string]Tier{
		"premium": Premium, "standard": Standard, "best-effort": BestEffort, "besteffort": BestEffort,
	} {
		got, err := ParseTier(name)
		if err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTier("gold"); err == nil {
		t.Error("ParseTier accepted unknown tier")
	}
}
