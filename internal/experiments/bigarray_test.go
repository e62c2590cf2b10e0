package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// runLockstep is the reference driver the epoch engine is held to: the
// naive way to co-simulate, with every brick and the router on one sim, so
// events run in global (time, schedule order) and cross-brick events are
// injected directly. It takes the same build callback as runSharded and
// returns the same world and event count.
func runLockstep[C any](bricks int, build buildFn[C]) (C, uint64, error) {
	sim := des.New()
	sims := make([]*des.Sim, bricks+1)
	for i := range sims {
		sims[i] = sim
	}
	send := func(from, to int, at des.Time, fn func()) { sim.At(at, fn) }
	c, err := build(sims, send)
	if err != nil {
		return c, 0, err
	}
	sim.Run()
	return c, sim.Processed, nil
}

// runBigArrayLockstep executes the big-array cluster under runLockstep.
func runBigArrayLockstep(spec BigArraySpec) (*BigArrayResult, error) {
	w, events, err := runLockstep(spec.Bricks, func(sims []*des.Sim, send sendFn) (*brickWorld, error) {
		return newBrickWorld(spec.world(), sims, send)
	})
	if err != nil {
		return nil, err
	}
	if err := w.drained("big array"); err != nil {
		return nil, err
	}
	return bigResult(spec, w, events), nil
}

func testBigSpec() BigArraySpec {
	return BigArraySpec{
		Bricks:      4,
		Cfg:         layout.Config{Ds: 4, Dr: 2, Dm: 2},
		IOs:         600,
		Outstanding: 64,
		Sectors:     8,
		ReadFrac:    0.67,
		Seed:        1,
	}
}

// TestShardedMatchesSequential is the sharded engine's contract check: the
// same cluster must produce an identical digest under the naive lockstep
// driver and under the epoch engine at one, two, and four workers, batched
// or not, and that digest hashes to its pinned value. Run under -race this also exercises the epoch window's isolation
// claim (no two workers touch the same shard's state inside a window).
func TestShardedMatchesSequential(t *testing.T) {
	pins := map[bool]string{false: "31f30a46e4f60bf7", true: "729e770c6e3c8768"} // fnv-64a of the digest
	for _, batch := range []bool{false, true} {
		spec := testBigSpec()
		spec.Batch = batch
		base, err := runBigArrayLockstep(spec)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, fmt.Sprintf("batch=%v", batch), base.Digest, pins[batch])
		if base.Completed != spec.IOs {
			t.Fatalf("lockstep completed %d/%d", base.Completed, spec.IOs)
		}
		for _, workers := range []int{1, 2, 4} {
			spec.Workers = workers
			r, err := RunBigArray(spec)
			if err != nil {
				t.Fatalf("workers=%d batch=%v: %v", workers, batch, err)
			}
			if r.Digest != base.Digest {
				t.Fatalf("workers=%d batch=%v digest diverged:\nepoch:    %s\nlockstep: %s",
					workers, batch, r.Digest, base.Digest)
			}
		}
	}
}

// TestBigArrayBatchPrimesSameLoad: batched priming is a different driver
// (drives schedule against the whole window at once), so digests may
// differ from unbatched — but the load must be conserved: same request
// count, all completions accounted for.
func TestBigArrayBatchPrimesSameLoad(t *testing.T) {
	spec := testBigSpec()
	spec.Batch = true
	r, err := runBigArrayLockstep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != spec.IOs {
		t.Fatalf("completed %d/%d", r.Completed, spec.IOs)
	}
	if r.Drives != spec.Bricks*spec.Cfg.Disks() {
		t.Fatalf("drives = %d, want %d", r.Drives, spec.Bricks*spec.Cfg.Disks())
	}
	if r.MeanLat <= 0 || r.IOPS <= 0 {
		t.Fatalf("degenerate result: lat=%v iops=%v", r.MeanLat, r.IOPS)
	}
}

// TestPoolPoisoningPreservesFigures runs figures with pool poisoning on —
// every recycled request, extent-run, and copy object is scrambled at
// release — and requires byte-identical output to the unpoisoned run. Any
// read of a stale pooled object surfaces as a panic or a diverged figure.
// Figure 12 is read-only; Figure 6 replays the Cello trace through
// delayed-mode writes, whose requests recycle too; Table 2 replays it in
// prototype mode, where the head trackers' reference reads share the drive
// queues. The fault-tolerance experiments run at the golden test's scale
// with the integrity oracle on in their bricks (crash injection,
// corruption, scrubbing); fail-slow runs at its default scale, where hedges
// win, lose and are cancelled.
func TestPoolPoisoningPreservesFigures(t *testing.T) {
	cfg := Config{TraceIOs: 600, IometerIOs: 300, Seed: 1}
	golden := Config{TraceIOs: 600, IometerIOs: 200, Seed: 1}
	render := func(f *Figure, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	}
	for _, fig := range []struct {
		name string
		run  func() (string, error)
	}{
		{"fig12", func() (string, error) { return render(Figure12(cfg)) }},
		{"fig6-cello-base", func() (string, error) { return render(Figure6(cfg, "cello-base")) }},
		{"table2", func() (string, error) {
			r, err := Table2(cfg)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		}},
		{"chaos", func() (string, error) { return render(Chaos(golden)) }},
		{"scrub", func() (string, error) { return render(Scrub(golden)) }},
		{"brick-loss", func() (string, error) { return render(BrickLoss(golden)) }},
		{"fail-slow", func() (string, error) { return render(FailSlow(Config{IometerIOs: 2500, Seed: 1})) }},
	} {
		t.Run(fig.name, func(t *testing.T) {
			clean, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			defer core.SetPoolPoisoning(core.SetPoolPoisoning(true))
			poisoned, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			if clean != poisoned {
				t.Fatalf("pool poisoning changed figure output:\n--- clean ---\n%s--- poisoned ---\n%s", clean, poisoned)
			}
		})
	}
}
