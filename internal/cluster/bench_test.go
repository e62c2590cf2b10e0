package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// benchCluster builds a colocated 3-brick R=2 cluster for benchmarks.
func benchCluster(tb testing.TB) (*des.Sim, *Cluster) {
	tb.Helper()
	sim := des.New()
	bricks := make([]core.Volume, 3)
	for i := range bricks {
		a, err := core.New(sim, core.Options{
			Config: layout.Config{Ds: 1, Dr: 1, Dm: 2}, Seed: int64(i + 1),
			DataSectors: 1 << 13,
			Crash:       core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
		})
		if err != nil {
			tb.Fatal(err)
		}
		bricks[i] = a
	}
	c, err := New(sim, bricks, Options{Replicas: 2, ExtentSectors: 512, Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return sim, c
}

// runOne submits one synchronous read and drives it to completion.
func runOne(tb testing.TB, sim *des.Sim, v core.Volume, off int64, done func(core.Result)) {
	if err := v.Submit(core.Read, off, 8, false, done); err != nil {
		tb.Fatalf("submit: %v", err)
	}
	sim.Run()
}

// TestRouterZeroAllocHealthyPath is the CI guard for the pooled hot path:
// after warmup, a read through the cluster router must allocate no more
// than the same read submitted straight to a brick — the router itself
// adds zero allocations per op. Both legs run the same cached crossings:
// colocated over the inline link, sharded to the brick's shard and back.
func TestRouterZeroAllocHealthyPath(t *testing.T) {
	t.Run("colocated", func(t *testing.T) {
		sim, cl := benchCluster(t)
		routerAllocs(t, cl, func(v core.Volume, off int64, done func(core.Result)) {
			runOne(t, sim, v, off, done)
		})
	})
	t.Run("sharded", func(t *testing.T) {
		sh, cl := newShardedCluster(t, 3, 1, Options{Replicas: 2})
		var (
			vol  core.Volume
			off  int64
			done func(core.Result)
		)
		submit := func() {
			if err := vol.Submit(core.Read, off, 8, false, done); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		routerAllocs(t, cl, func(v core.Volume, o int64, d func(core.Result)) {
			// Submit from an event on the volume's own shard: the engine
			// delivers only crossings sent by running events.
			vol, off, done = v, o, d
			v.Sim().At(v.Sim().Now(), submit)
			sh.Run()
		})
	})
}

// routerAllocs warms cl, then fails the test if a read through it
// allocates more than the same read submitted to brick 0. run submits one
// read to a volume and drives it to completion.
func routerAllocs(t *testing.T, cl *Cluster, run func(v core.Volume, off int64, done func(core.Result))) {
	nop := func(core.Result) {}
	for i := int64(0); i < 200; i++ { // warm pools, caches, and EWMAs
		run(cl, (i*37)%(cl.DataSectors()-8), nop)
	}
	measure := func(v core.Volume) float64 {
		var off int64
		return testing.AllocsPerRun(100, func() {
			run(v, off, nop)
			off = (off + 37) % (v.DataSectors() - 8)
		})
	}
	clusterAllocs, directAllocs := measure(cl), measure(cl.bs[0])
	if clusterAllocs > directAllocs {
		t.Fatalf("healthy-path router adds allocations: cluster %.2f/op vs direct %.2f/op",
			clusterAllocs, directAllocs)
	}
}

// BenchmarkClusterFailover measures the router's read path: straight to a
// brick, through a healthy cluster, and through a cluster with one brick
// down (every read routed around the Open breaker).
func BenchmarkClusterFailover(b *testing.B) {
	nop := func(core.Result) {}
	b.Run("direct", func(b *testing.B) {
		sim, cl := benchCluster(b)
		direct := cl.bs[0]
		for i := int64(0); i < 100; i++ {
			runOne(b, sim, direct, (i*37)%(direct.DataSectors()-8), nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var off int64
		for i := 0; i < b.N; i++ {
			runOne(b, sim, direct, off, nop)
			off = (off + 37) % (direct.DataSectors() - 8)
		}
	})
	b.Run("healthy", func(b *testing.B) {
		sim, cl := benchCluster(b)
		for i := int64(0); i < 100; i++ {
			runOne(b, sim, cl, (i*37)%(cl.DataSectors()-8), nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var off int64
		for i := 0; i < b.N; i++ {
			runOne(b, sim, cl, off, nop)
			off = (off + 37) % (cl.DataSectors() - 8)
		}
	})
	b.Run("outage", func(b *testing.B) {
		sim, cl := benchCluster(b)
		sim.At(sim.Now(), func() { _ = cl.crashBrick(1) })
		sim.Run()
		// Warm until the breaker is Open and the probe budget is spent, so
		// the steady state is pure routed-around reads.
		for i := int64(0); i < 200; i++ {
			runOne(b, sim, cl, (i*37)%(cl.DataSectors()-8), nop)
		}
		if cl.State(1) != Open {
			b.Fatal("brick 1 breaker not open at steady state")
		}
		b.ReportAllocs()
		b.ResetTimer()
		var off int64
		for i := 0; i < b.N; i++ {
			runOne(b, sim, cl, off, nop)
			off = (off + 37) % (cl.DataSectors() - 8)
		}
	})
}
