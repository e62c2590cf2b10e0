package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
)

// shardLat is the test clusters' router-to-brick link latency and the
// engine's lookahead.
const shardLat = 150 * des.Microsecond

// newShardedCluster builds a sharded cluster of n test bricks: the router
// on shard 0 and brick b on shard 1+b of a des.Sharded running the given
// number of workers.
func newShardedCluster(t *testing.T, n, workers int, opts Options) (*des.Sharded, *Cluster) {
	t.Helper()
	sh := des.NewSharded(n+1, shardLat)
	if err := sh.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	sims := make([]*des.Sim, n+1)
	for i := range sims {
		sims[i] = sh.Shard(i)
	}
	bricks := make([]core.Volume, n)
	for b := range bricks {
		bricks[b] = newBrick(t, sims[1+b], int64(b+1))
	}
	c, err := NewSharded(sims, sh.Send, shardLat, bricks, testOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	return sh, c
}

// TestShardedDeclareDeadMidFlight crashes a brick on its own shard and
// declares it dead on the router shard before the first failure can cross
// back, so every failed attempt lands on a piece whose extent DeclareDead
// has already re-placed: onto a survivor when headroom allows, or nowhere
// (unplaced) when it does not. Those failures must trip the dead brick's
// breaker, not that of the brick now holding the slot (which would leave
// extents with no routable replica and fail client requests), and must not
// index a brick that no longer exists. Reads fail over, adopted extents
// backfill across shards, and the divergence log reconciles. Run it under
// -race: a brick shard writes each replica hop's outcome and the router
// shard reads it, ordered only by the epoch barrier.
func TestShardedDeclareDeadMidFlight(t *testing.T) {
	for _, headroom := range []float64{0.4, -1} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("headroom=%v/workers=%d", headroom, workers), func(t *testing.T) {
				declareDeadMidFlight(t, headroom, workers)
			})
		}
	}
}

func declareDeadMidFlight(t *testing.T, headroom float64, workers int) {
	sh, cl := newShardedCluster(t, 3, workers, Options{Replicas: 2, BackfillMBps: 512, Headroom: headroom})
	const total = 600
	rng := rand.New(rand.NewSource(9))
	issued, finished, failed := 0, 0, 0
	var issue func()
	issue = func() {
		if issued == total {
			return
		}
		issued++
		off := rng.Int63n(cl.DataSectors() - 8)
		op := core.Read
		if rng.Float64() < 0.3 {
			op = core.Write
		}
		if err := cl.Submit(op, off, 8, false, func(r core.Result) {
			finished++
			if r.Failed {
				failed++
			}
			issue()
		}); err != nil {
			t.Errorf("synchronous rejection: %v", err)
		}
	}
	const crashAt = 50 * des.Millisecond
	sh.Shard(2).At(crashAt, func() {
		if err := cl.bs[1].Crash(); err != nil {
			t.Errorf("crash: %v", err)
		}
	})
	var atDeath Counters
	sh.Shard(0).At(crashAt+shardLat/3, func() {
		if cl.pending == 0 {
			t.Error("nothing in flight when the brick was declared dead")
		}
		if err := cl.DeclareDead(1); err != nil {
			t.Errorf("DeclareDead: %v", err)
		}
		atDeath = cl.Counters()
	})
	// Submit runs on shard 0: a crossing sent from outside an event would
	// sit in the engine's buffer behind events already queued later.
	sh.Shard(0).At(0, func() {
		for i := 0; i < 16; i++ {
			issue()
		}
	})
	sh.Run()
	if finished != total || failed != 0 {
		t.Fatalf("finished %d/%d, failed %d (a surviving replica holds every extent)", finished, total, failed)
	}
	ctr := cl.Counters()
	if atDeath.ReadFailovers != 0 || ctr.ReadFailovers == 0 {
		t.Fatalf("failovers %d at DeclareDead, %d after: no failure crossed back after the re-placement",
			atDeath.ReadFailovers, ctr.ReadFailovers)
	}
	if headroom > 0 && ctr.Adopted == 0 || headroom < 0 && ctr.Unplaced == 0 {
		t.Fatalf("adopted %d and unplaced %d of the dead brick's replicas with headroom %v",
			ctr.Adopted, ctr.Unplaced, headroom)
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		t.Fatalf("divergence log does not reconcile: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if n := cl.DivergencePending(); n != 0 {
		t.Fatalf("%d divergence entries left after the engine drained", n)
	}
}
