package blockcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(3 * BlockSectors * 512)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	c.Touch(1)  // 1 most recent; LRU order now 2,3,1
	c.Insert(4) // evicts 2
	if _, ok := c.index[2]; ok {
		t.Fatal("LRU did not evict the least recently used block")
	}
	for _, b := range []int64{1, 3, 4} {
		if _, ok := c.index[b]; !ok {
			t.Fatalf("block %d missing", b)
		}
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewLRU(16 * BlockSectors * 512)
		for i := 0; i < 500; i++ {
			c.Insert(rng.Int63n(100))
			if c.order.Len() > c.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUCounters(t *testing.T) {
	c := NewLRU(4 * BlockSectors * 512)
	if c.Touch(9) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(9)
	if !c.Touch(9) {
		t.Fatal("miss on resident block")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCachedArrayHitFastMissSlow(t *testing.T) {
	sim := des.New()
	a, err := core.New(sim, core.Options{Config: layout.Striping(2), Policy: "satf", DataSectors: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ca := NewCachedArray(a, 1<<20)
	read := func(off int64) des.Time {
		var lat des.Time
		done := false
		if err := ca.Submit(core.Read, off, 8, false, func(r core.Result) {
			lat = r.Latency()
			done = true
		}); err != nil {
			t.Fatal(err)
		}
		for !done {
			if !sim.Step() {
				t.Fatal("stalled")
			}
		}
		return lat
	}
	cold := read(4096)
	warm := read(4096)
	if warm >= cold {
		t.Fatalf("warm read %v not faster than cold %v", warm, cold)
	}
	if warm > 200 {
		t.Fatalf("cache hit took %v, want memory speed", warm)
	}
	if ca.Cache.Hits == 0 || ca.Cache.Misses == 0 {
		t.Fatalf("hits=%d misses=%d", ca.Cache.Hits, ca.Cache.Misses)
	}
}

func TestCachedArrayWriteThrough(t *testing.T) {
	sim := des.New()
	a, err := core.New(sim, core.Options{Config: layout.Striping(2), Policy: "satf", DataSectors: 1 << 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ca := NewCachedArray(a, 1<<20)
	var wLat des.Time
	done := false
	if err := ca.Submit(core.Write, 512, 8, false, func(r core.Result) {
		wLat = r.Latency()
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	for !done {
		sim.Step()
	}
	// Synchronous writes are forced to disk: latency must be mechanical,
	// not memory-speed.
	if wLat < 500 {
		t.Fatalf("write completed in %v — write-through is broken", wLat)
	}
	// But the written block is now readable at cache speed.
	rDone := false
	var rLat des.Time
	ca.Submit(core.Read, 512, 8, false, func(r core.Result) { rLat, rDone = r.Latency(), true })
	for !rDone {
		sim.Step()
	}
	if rLat > 200 {
		t.Fatalf("read after cached write took %v", rLat)
	}
}
