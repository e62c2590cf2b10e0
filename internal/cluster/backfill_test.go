package cluster

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
)

// TestBackfillPacingPinned pins the instant every backfill copy starts and
// settles at BackfillMBps 8. Brick 1 misses writes while crashed and
// backfills after recoverBrick; brick 2 then crashes under that backfill,
// so the copies whose only fresh source is brick 2 find it Open: the
// backfill parks with the entries pending, and wakes when brick 2's probe
// closes its breaker.
func TestBackfillPacingPinned(t *testing.T) {
	sim, cl := newTestCluster(t, 3, Options{Replicas: 2, BackfillMBps: 8})
	if err := cl.crashBrick(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	failed := 0
	closedLoop(t, cl, rng, 120, 1, func(r core.Result) {
		if r.Failed {
			failed++
		}
	})
	sim.At(300*des.Millisecond, func() {
		if err := cl.recoverBrick(1); err != nil {
			t.Fatal(err)
		}
	})
	sim.At(340*des.Millisecond, func() {
		if err := cl.crashBrick(2); err != nil {
			t.Fatal(err)
		}
	})
	sim.At(1500*des.Millisecond, func() {
		if err := cl.recoverBrick(2); err != nil {
			t.Fatal(err)
		}
	})

	// One line per change of the backfill state: copies in flight and
	// whether each brick's loop is running, the breaker states, and the
	// log's counters.
	var log strings.Builder
	last := ""
	parked := false
	for sim.Step() {
		var b strings.Builder
		for i := range cl.br {
			st := &cl.br[i]
			copying := 0
			for _, e := range st.div {
				if e.copying {
					copying++
				}
			}
			fmt.Fprintf(&b, "b%d:%v/%d/%d/%v ", i, st.state, len(st.div), copying, st.backfillActive)
			if i == 1 && !st.backfillActive && len(st.div) > 0 && st.state != Open && cl.State(2) == Open {
				parked = true
			}
		}
		ctr := cl.Counters()
		fmt.Fprintf(&b, "backfilled %d recopies %d abandoned %d", ctr.Backfilled, ctr.Recopies, ctr.Abandoned)
		if s := b.String(); s != last {
			last = s
			fmt.Fprintf(&log, "%v %s\n", float64(sim.Now()), s)
		}
	}
	if !parked {
		t.Error("brick 1's backfill never parked on an Open source")
	}
	ctr := cl.Counters()
	if failed != 0 || ctr.Diverged == 0 || ctr.Diverged != ctr.Backfilled+ctr.Abandoned || cl.DivergencePending() != 0 {
		t.Fatalf("failed %d, pending %d, counters %+v; want a reconciled log", failed, cl.DivergencePending(), ctr)
	}
	h := fnv.New64a()
	h.Write([]byte(log.String()))
	const want = "03da849ae1b360f0"
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("backfill digest %s, want %s; timeline:\n%s", got, want, log.String())
	}
}
