// Package chaos generates and schedules deterministic fault-injection
// scenarios for simulated MimdRAID clusters. A Scenario is a canonical,
// time-sorted list of composite events — drive failures, fail-slow onsets,
// whole-brick power failures with recovery, scrub passes, client load
// bursts — produced as a pure function of a seed and the scenario shape.
// Generation and arming know nothing about arrays: Arm schedules a brick's
// slice of the timeline onto that brick's simulator and hands each event to
// an apply callback, so the same scenario drives a single array, a lockstep
// co-simulation, or a des.Sharded epoch engine and yields byte-identical
// timelines under every driver. Apply is the one mapping of an event onto
// a core.Array, for callbacks to call.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/des"
)

// Kind enumerates the event types a scenario can carry.
type Kind uint8

const (
	// DriveFail permanently fails one drive of one brick.
	DriveFail Kind = iota
	// SlowDrive sets (Factor > 1) or clears (Factor <= 1) a persistent
	// fail-slow inflation on one drive of one brick.
	SlowDrive
	// BrickCrash power-fails one brick (its array must have the crash
	// model enabled).
	BrickCrash
	// BrickRecover powers a crashed brick back on and runs recovery.
	BrickRecover
	// ScrubPass starts one background scrub pass on one brick, paced at
	// Factor MB/s.
	ScrubPass
	// LoadBurst targets the workload client (Brick == ClientBrick): the
	// closed loop widens by Factor extra outstanding requests for
	// Duration, then narrows back.
	LoadBurst
)

// ClientBrick is the Brick value of events that target the workload
// client rather than an array brick (LoadBurst).
const ClientBrick = -1

// String names the kind for timelines and errors.
func (k Kind) String() string {
	switch k {
	case DriveFail:
		return "drive-fail"
	case SlowDrive:
		return "slow-drive"
	case BrickCrash:
		return "brick-crash"
	case BrickRecover:
		return "brick-recover"
	case ScrubPass:
		return "scrub-pass"
	case LoadBurst:
		return "load-burst"
	default:
		return fmt.Sprintf("chaos.Kind(%d)", uint8(k))
	}
}

// Event is one scheduled injection.
type Event struct {
	// At is the absolute simulated instant the event fires.
	At des.Time
	// Kind selects the injection.
	Kind Kind
	// Brick is the target brick index, or ClientBrick for client-side
	// events.
	Brick int
	// Drive is the drive index within the brick (DriveFail, SlowDrive).
	Drive int
	// Factor is the kind-specific magnitude: fail-slow inflation factor
	// (SlowDrive), scrub bandwidth in MB/s (ScrubPass), or extra
	// outstanding requests (LoadBurst).
	Factor float64
	// Duration is the kind-specific extent: outage length (BrickCrash,
	// informational — the paired BrickRecover carries the actual recovery
	// instant), slow-window length (SlowDrive, informational), or burst
	// length (LoadBurst).
	Duration des.Time
}

// String renders one timeline line; the format is part of the determinism
// contract (digests fold it in), so keep it stable.
func (e Event) String() string {
	return fmt.Sprintf("%.0f %s brick=%d drive=%d factor=%g dur=%.0f",
		float64(e.At), e.Kind, e.Brick, e.Drive, e.Factor, float64(e.Duration))
}

// Scenario is a canonical timeline: events sorted by (At, Kind, Brick,
// Drive), every field a pure function of the generating seed and options.
type Scenario struct {
	Seed   int64
	Events []Event
}

// Timeline renders the whole scenario one event per line — the canonical
// fingerprint cross-driver determinism checks compare.
func (s Scenario) Timeline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d events=%d\n", s.Seed, len(s.Events))
	for _, e := range s.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Options shapes a generated scenario.
type Options struct {
	// Bricks is the cluster size; brick-targeted events draw targets from
	// [0, Bricks).
	Bricks int
	// DrivesPerBrick bounds the Drive field of drive-targeted events.
	DrivesPerBrick int
	// Start and Horizon bound event times: every event (including paired
	// recoveries) lands inside [Start, Start+Horizon].
	Start   des.Time
	Horizon des.Time
	// Per-kind event counts. BrickCrashes crash distinct bricks (each
	// paired with a BrickRecover); DriveFails fail at most one drive per
	// brick so a mirrored brick never loses both copies to the scenario
	// itself.
	DriveFails   int
	SlowDrives   int
	BrickCrashes int
	ScrubPasses  int
	LoadBursts   int
	// SlowFactor is the fail-slow inflation applied by SlowDrive events
	// (default 4). Each onset is paired with a clearing event (Factor 1)
	// inside the horizon.
	SlowFactor float64
	// OutageFrac bounds a brick outage to this fraction of the horizon
	// (default 1/8).
	OutageFrac float64
	// ScrubMBps paces ScrubPass events (default 32).
	ScrubMBps float64
}

// Validate rejects shapes Generate cannot honor.
func (o Options) Validate() error {
	if o.Bricks < 1 {
		return fmt.Errorf("chaos: %d bricks (want >= 1)", o.Bricks)
	}
	if o.Horizon <= 0 {
		return fmt.Errorf("chaos: horizon %v (want > 0)", o.Horizon)
	}
	if o.Start < 0 {
		return fmt.Errorf("chaos: negative start %v", o.Start)
	}
	if o.DriveFails < 0 || o.SlowDrives < 0 || o.BrickCrashes < 0 || o.ScrubPasses < 0 || o.LoadBursts < 0 {
		return fmt.Errorf("chaos: negative event count")
	}
	if (o.DriveFails > 0 || o.SlowDrives > 0) && o.DrivesPerBrick < 1 {
		return fmt.Errorf("chaos: drive events need DrivesPerBrick >= 1, have %d", o.DrivesPerBrick)
	}
	if o.DriveFails > o.Bricks {
		return fmt.Errorf("chaos: %d drive failures over %d bricks (at most one per brick)", o.DriveFails, o.Bricks)
	}
	if o.BrickCrashes > o.Bricks {
		return fmt.Errorf("chaos: %d brick crashes over %d bricks (at most one per brick)", o.BrickCrashes, o.Bricks)
	}
	if o.SlowFactor != 0 && o.SlowFactor < 1 {
		return fmt.Errorf("chaos: slow factor %v (want 0 for default or >= 1)", o.SlowFactor)
	}
	if o.OutageFrac < 0 || o.OutageFrac > 1 {
		return fmt.Errorf("chaos: outage fraction %v (want 0..1)", o.OutageFrac)
	}
	return nil
}

// Generate produces the canonical scenario for (seed, o): the same inputs
// always yield the same timeline, and every draw comes from one seeded
// stream so adding an event kind changes the scenario but never the
// library's other outputs.
func Generate(seed int64, o Options) (Scenario, error) {
	if err := o.Validate(); err != nil {
		return Scenario{}, err
	}
	slowFactor := o.SlowFactor
	if slowFactor == 0 {
		slowFactor = 4
	}
	outageFrac := o.OutageFrac
	if outageFrac == 0 {
		outageFrac = 1.0 / 8
	}
	scrubMBps := o.ScrubMBps
	if scrubMBps == 0 {
		scrubMBps = 32
	}

	rng := rand.New(rand.NewSource(seed))
	at := func(margin des.Time) des.Time {
		span := float64(o.Horizon - margin)
		if span < 0 {
			span = 0
		}
		return o.Start + des.Time(rng.Float64()*span)
	}
	var ev []Event

	// Brick crashes first: they claim distinct bricks, and later drive
	// events avoid crashing bricks' outage windows only through apply-side
	// tolerance — the generator keeps them legal in time, not in target.
	crashed := rng.Perm(o.Bricks)[:o.BrickCrashes]
	sort.Ints(crashed) // Perm order is seed-stable, but sorted reads better
	for _, b := range crashed {
		outage := des.Time((rng.Float64()*0.75 + 0.25) * outageFrac * float64(o.Horizon))
		t := at(outage)
		ev = append(ev,
			Event{At: t, Kind: BrickCrash, Brick: b, Duration: outage},
			Event{At: t + outage, Kind: BrickRecover, Brick: b})
	}

	// Drive failures: distinct bricks, one drive each.
	failed := rng.Perm(o.Bricks)[:o.DriveFails]
	sort.Ints(failed)
	for _, b := range failed {
		ev = append(ev, Event{At: at(0), Kind: DriveFail, Brick: b, Drive: rng.Intn(o.DrivesPerBrick)})
	}

	// Fail-slow windows: onset plus clearing event inside the horizon.
	for i := 0; i < o.SlowDrives; i++ {
		window := des.Time((rng.Float64()*0.75 + 0.25) * outageFrac * float64(o.Horizon))
		t := at(window)
		b, d := rng.Intn(o.Bricks), rng.Intn(o.DrivesPerBrick)
		ev = append(ev,
			Event{At: t, Kind: SlowDrive, Brick: b, Drive: d, Factor: slowFactor, Duration: window},
			Event{At: t + window, Kind: SlowDrive, Brick: b, Drive: d, Factor: 1})
	}

	for i := 0; i < o.ScrubPasses; i++ {
		ev = append(ev, Event{At: at(0), Kind: ScrubPass, Brick: rng.Intn(o.Bricks), Factor: scrubMBps})
	}

	// A load burst adds burstExtra outstanding requests.
	const burstExtra = 16
	for i := 0; i < o.LoadBursts; i++ {
		burst := des.Time((rng.Float64()*0.75 + 0.25) * outageFrac * float64(o.Horizon))
		ev = append(ev, Event{
			At: at(burst), Kind: LoadBurst, Brick: ClientBrick,
			Factor: burstExtra, Duration: burst,
		})
	}

	// Canonical order: time, then a full structural tie-break so the sort
	// is a total order whatever the draws produced.
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Brick != b.Brick {
			return a.Brick < b.Brick
		}
		return a.Drive < b.Drive
	})
	return Scenario{Seed: seed, Events: ev}, nil
}

// Arm schedules every event of sc that targets brick onto sim, invoking
// apply from the simulator at each event's instant. It returns the number
// of events armed. Call it before the simulation starts (or from an event
// on sim's own shard): each apply runs as an ordinary event of that shard,
// so under a sharded engine the injections keep the epoch protocol's
// isolation for free.
func Arm(sim *des.Sim, sc Scenario, brick int, apply func(Event)) int {
	n := 0
	for _, e := range sc.Events {
		if e.Brick != brick {
			continue
		}
		e := e
		sim.At(e.At, func() { apply(e) })
		n++
	}
	return n
}
