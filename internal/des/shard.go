// Sharded is a conservative-lookahead parallel driver for a set of
// independent Sims ("shards"). Each shard owns a disjoint slice of the
// simulated world — in MimdRAID, a brick: one array plus its drives, buses
// and workload generator — and runs its own event queue with its own clock
// and sequence counter. Shards synchronize only at epoch barriers.
//
// Protocol. Let L > 0 be the lookahead: a lower bound on the latency of any
// cross-shard interaction (for disk bricks, the bus command overhead — no
// completion can reach another shard sooner than the command costs to
// issue). Each epoch computes m, the minimum next-event timestamp across
// all shards, and executes every shard's events in the half-open window
// [m, m+L) — concurrently, on worker goroutines. Cross-shard messages
// (Send) must carry timestamps >= sender-now + L, hence >= m + L, hence
// outside the window: no message can affect an event already being executed
// this epoch, so intra-window execution needs no locks. Buffered messages
// are merged at the barrier in (sender shard, send order) order and
// injected through the target shard's At, which assigns its deterministic
// sequence numbers.
//
// Determinism. Per-shard execution order is fixed by that shard's (at, seq)
// heap, independent of scheduling; the window boundary depends only on
// shard queue states; and the barrier merge order is fixed. Worker count
// therefore changes wall time, never output — the same bar runner.Map sets
// for cross-simulation parallelism. With one worker the engine degenerates
// to running the shards round-robin on the calling goroutine.
package des

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrWorkerCount reports an invalid worker count passed to
// Sharded.SetWorkers. The error wraps this sentinel (errors.Is) and names
// the offending value and bound.
var ErrWorkerCount = errors.New("des: invalid worker count")

// message is one buffered cross-shard event.
type message struct {
	to int
	at Time
	fn func()
}

// Sharded coordinates n shards under one lookahead window. Construct with
// NewSharded; drive with RunUntil or Run.
type Sharded struct {
	shards    []*Sim
	lookahead Time
	workers   int
	// out buffers cross-shard messages per sender; only the goroutine
	// executing a shard appends to that shard's buffer, and the barrier
	// (which has a happens-after edge on every worker) drains them all.
	out [][]message
	// ch/wg coordinate the persistent epoch workers (ch[0] is unused: the
	// calling goroutine acts as worker 0). Once the pool starts, its size
	// is frozen; each epoch recruits a prefix of it.
	ch []chan epochRun
	wg sync.WaitGroup
	// next caches each shard's next-event timestamp for the epoch scan
	// (+Inf for an empty queue); only RunUntil touches it.
	next []Time
}

// epochRun is one epoch's marching order for a worker. stride is the
// number of workers participating this epoch (never more than the busy
// shard count — extra workers would only add synchronization cost); each
// participant k covers shards k, k+stride, ....
type epochRun struct {
	boundary  Time // exclusive upper bound of the window
	inclusive bool // final partial epoch: run <= horizon instead
	horizon   Time
	stride    int
}

// NewSharded returns an engine over n fresh shards with the given
// lookahead (must be positive: a zero window could never make progress).
// It runs every epoch on the calling goroutine; SetWorkers is the only way
// to give one engine more workers, and there is no process-wide setting.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("des: NewSharded needs at least one shard")
	}
	if !(lookahead > 0) {
		panic(fmt.Sprintf("des: lookahead %v must be positive", lookahead))
	}
	sh := &Sharded{
		shards:    make([]*Sim, n),
		lookahead: lookahead,
		workers:   1,
		out:       make([][]message, n),
	}
	for i := range sh.shards {
		sh.shards[i] = New()
	}
	return sh
}

// SetWorkers overrides the engine's worker count. Counts below 1 or above
// the shard count are rejected with an error wrapping ErrWorkerCount (a
// worker beyond the shard count could never be recruited, so asking for
// one is a caller bug, not a preference). It must be called before the
// first RunUntil: once the worker pool has started, the count is frozen
// and SetWorkers has no effect.
func (sh *Sharded) SetWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: %d workers (want >= 1)", ErrWorkerCount, n)
	}
	if n > len(sh.shards) {
		return fmt.Errorf("%w: %d workers for %d shards (want <= shards)", ErrWorkerCount, n, len(sh.shards))
	}
	sh.workers = n
	return nil
}

// Shard returns shard i's simulator, for building that shard's world and
// for same-shard scheduling. Mutating a shard while RunUntil is executing
// an epoch is a data race; do it before running or from that shard's own
// events.
func (sh *Sharded) Shard(i int) *Sim { return sh.shards[i] }

// Processed sums events executed across shards.
func (sh *Sharded) Processed() uint64 {
	var n uint64
	for _, s := range sh.shards {
		n += s.Processed
	}
	return n
}

// Send schedules fn on shard `to` at absolute time `at` from within an
// event executing on shard `from`. The conservative constraint is
// validated: at must be >= the sender's clock plus the lookahead.
// Violations panic — they indicate the declared lookahead overstates the
// real coupling latency, which would silently break determinism.
func (sh *Sharded) Send(from, to int, at Time, fn func()) {
	if min := sh.shards[from].Now() + sh.lookahead; at < min {
		panic(fmt.Sprintf("des: cross-shard event at %v violates lookahead (shard %d now %v + %v)",
			at, from, sh.shards[from].Now(), sh.lookahead))
	}
	sh.out[from] = append(sh.out[from], message{to: to, at: at, fn: fn})
}

// Run executes until every shard drains and no messages remain buffered.
func (sh *Sharded) Run() { sh.RunUntil(Time(math.Inf(1))) }

// RunUntil executes events with timestamps <= t on every shard, then
// advances each shard's clock to t (matching Sim.RunUntil). Epochs run
// concurrently on the engine's workers; output is identical for any worker
// count.
func (sh *Sharded) RunUntil(t Time) {
	workers := sh.workers
	if workers > len(sh.shards) {
		workers = len(sh.shards)
	}
	if sh.ch != nil {
		workers = len(sh.ch) // pool already started: its size is frozen
	} else if workers > 1 {
		sh.startWorkers(workers)
	}
	if sh.next == nil {
		sh.next = make([]Time, len(sh.shards))
	}
	for {
		// One pass computes the epoch floor m and caches every shard's next
		// timestamp, so the busy-shard count below needs no second peek.
		m, ok := Time(0), false
		for i, s := range sh.shards {
			at, has := s.nextAt()
			if !has {
				at = Time(math.Inf(1))
			}
			sh.next[i] = at
			if has && (!ok || at < m) {
				m, ok = at, true
			}
		}
		if !ok || m > t {
			break
		}
		run := epochRun{boundary: m + sh.lookahead, horizon: t}
		if run.boundary > t {
			run.boundary = t
			run.inclusive = true
		}
		// Count the shards holding an event inside the window, up to the
		// worker count: the fan-out never recruits more workers than there
		// are busy shards (idle shards' runBefore calls are no-ops, so a
		// worker with no busy shard is pure synchronization cost). At low
		// event density the window often covers a single completion — then
		// the whole epoch runs inline on the calling goroutine. The same
		// events execute under any assignment, so worker count still never
		// changes output.
		busy, sole := 0, -1
		for i, at := range sh.next {
			if at < run.boundary {
				sole = i
				if busy++; busy >= workers && busy > 1 {
					break
				}
			}
		}
		active := busy
		if active > workers {
			active = workers
		}
		switch {
		case busy == 1:
			if run.inclusive {
				sh.shards[sole].RunUntil(run.horizon)
			} else {
				sh.shards[sole].runBefore(run.boundary)
			}
		case active > 1:
			run.stride = active
			sh.wg.Add(active - 1)
			for k := 1; k < active; k++ {
				sh.ch[k] <- run
			}
			sh.runShards(0, active, run)
			sh.wg.Wait()
		default:
			sh.runShards(0, 1, run)
		}
		sh.deliver()
	}
	for _, s := range sh.shards {
		s.advanceTo(t)
	}
}

// startWorkers spins up the persistent epoch workers (main participates as
// worker 0, so workers-1 goroutines). They live for the engine's lifetime.
func (sh *Sharded) startWorkers(workers int) {
	sh.ch = make([]chan epochRun, workers)
	for k := 1; k < workers; k++ {
		ch := make(chan epochRun)
		sh.ch[k] = ch
		go func(k int, ch chan epochRun) {
			for run := range ch {
				sh.runShards(k, run.stride, run)
				sh.wg.Done()
			}
		}(k, ch)
	}
}

// runShards executes one epoch for the shards assigned to worker k
// (static stride assignment: k, k+stride, ...). Shards whose cached next
// timestamp falls outside the window are skipped without touching them —
// sh.next is written only between epochs, so reading it here is safe, and
// an idle shard's runBefore would be a no-op anyway.
func (sh *Sharded) runShards(k, stride int, run epochRun) {
	for i := k; i < len(sh.shards); i += stride {
		if run.inclusive {
			if sh.next[i] <= run.horizon {
				sh.shards[i].RunUntil(run.horizon)
			}
		} else if sh.next[i] < run.boundary {
			sh.shards[i].runBefore(run.boundary)
		}
	}
}

// deliver drains every sender's buffer in shard order and injects the
// messages into their targets. Injection order — and therefore the target
// shards' sequence numbers — is a pure function of the senders' buffered
// order, never of worker scheduling.
func (sh *Sharded) deliver() {
	for from := range sh.out {
		buf := sh.out[from]
		if len(buf) == 0 {
			continue
		}
		for _, m := range buf {
			sh.shards[m.to].At(m.at, m.fn)
		}
		sh.out[from] = buf[:0]
	}
}
