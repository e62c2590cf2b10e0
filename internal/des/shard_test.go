package des

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// pingPong runs a randomized cross-shard workload on n shards with the
// given worker count and returns a transcript of every event execution
// (shard, time, payload) in a deterministic global order. Each shard runs
// a self-rescheduling local process and fires messages at random peers at
// legal lookahead distances.
func pingPong(t *testing.T, shards, workers int, seed int64) string {
	t.Helper()
	const look = Time(10)
	sh := NewSharded(shards, look)
	if workers > shards {
		workers = shards // SetWorkers rejects over-provisioning
	}
	if err := sh.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, shards) // per-shard transcripts: race-free
	rngs := make([]*rand.Rand, shards)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	var hop func(shard, ttl int)
	hop = func(shard, ttl int) {
		s := sh.Shard(shard)
		logs[shard] = append(logs[shard], fmt.Sprintf("s%d@%.2f ttl%d", shard, s.Now(), ttl))
		if ttl == 0 {
			return
		}
		rng := rngs[shard]
		to := rng.Intn(shards)
		delay := look + Time(rng.Float64()*25)
		if to == shard {
			s.After(delay, func() { hop(shard, ttl-1) })
		} else {
			sh.Send(shard, to, s.Now()+delay, func() { hop(to, ttl-1) })
		}
	}
	for i := 0; i < shards; i++ {
		i := i
		sh.Shard(i).At(Time(i), func() { hop(i, 40) })
	}
	sh.Run()
	for i, s := range sh.shards {
		if len(s.events.ev) != 0 {
			t.Fatalf("shard %d: %d events left", i, len(s.events.ev))
		}
	}
	out := ""
	for i, l := range logs {
		out += fmt.Sprintf("shard %d: %v\n", i, l)
	}
	return out
}

// The tentpole bar: the transcript must be byte-identical for any worker
// count, including the degenerate sequential engine.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		want := pingPong(t, shards, 1, 7)
		for _, w := range []int{2, 4, 8} {
			if got := pingPong(t, shards, w, 7); got != want {
				t.Fatalf("shards=%d workers=%d transcript diverged from sequential:\n%s\nvs\n%s", shards, w, got, want)
			}
		}
	}
}

// A second seed exercises different message interleavings.
func TestShardedDeterministicSeed2(t *testing.T) {
	want := pingPong(t, 4, 1, 1234)
	if got := pingPong(t, 4, 4, 1234); got != want {
		t.Fatalf("diverged:\n%s\nvs\n%s", got, want)
	}
}

// The barrier's merge rule: messages that two shards send to a third for
// the same instant arrive in (sender shard, send order), whatever the
// worker count. Both senders run in one epoch, so at two workers they
// execute concurrently; shard 1's event is scheduled first, so the order
// must come from the shard index, not from who ran or sent first.
func TestShardedDeliveryOrder(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sh := NewSharded(3, 10)
		if err := sh.SetWorkers(workers); err != nil {
			t.Fatal(err)
		}
		var got []string // written only by shard 2's events
		for _, from := range []int{1, 0} {
			from := from
			sh.Shard(from).At(0, func() {
				for i := 0; i < 2; i++ {
					msg := fmt.Sprintf("s%d#%d", from, i)
					sh.Send(from, 2, 10, func() { got = append(got, msg) })
				}
			})
		}
		sh.Run()
		if want := "[s0#0 s0#1 s1#0 s1#1]"; fmt.Sprint(got) != want {
			t.Errorf("workers=%d: delivered %v, want %s", workers, got, want)
		}
	}
}

// Sending below the lookahead horizon must panic loudly: a lookahead that
// overstates the real coupling latency breaks the conservative argument.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	sh := NewSharded(2, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on lookahead violation")
		}
	}()
	sh.Shard(0).At(50, func() {
		sh.Send(0, 1, 60, func() {}) // 60 < 50+100
	})
	sh.Run()
}

// RunUntil must stop at the horizon inclusively and land every shard's
// clock on it, like Sim.RunUntil. Two workers, so the final partial epoch
// fans out across both shards.
func TestShardedRunUntilHorizon(t *testing.T) {
	sh := NewSharded(2, 10)
	if err := sh.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	var ran []string
	sh.Shard(0).At(100, func() { ran = append(ran, "a@100") })
	sh.Shard(1).At(100.5, func() { ran = append(ran, "b@100.5") })
	sh.Shard(1).At(101, func() { ran = append(ran, "c@101") })
	sh.RunUntil(100.5)
	if fmt.Sprint(ran) != "[a@100 b@100.5]" {
		t.Fatalf("ran %v", ran)
	}
	for i := 0; i < 2; i++ {
		if now := sh.Shard(i).Now(); now != 100.5 {
			t.Fatalf("shard %d clock %v, want 100.5", i, now)
		}
	}
	sh.RunUntil(200)
	if fmt.Sprint(ran) != "[a@100 b@100.5 c@101]" {
		t.Fatalf("after second run: %v", ran)
	}
}

// AtArg events interleave with closure events in (at, seq) order and pass
// their argument through unboxed.
func TestAtArgOrdering(t *testing.T) {
	s := New()
	var got []string
	type payload struct{ name string }
	fn := func(a any) { got = append(got, a.(*payload).name) }
	p1, p2 := &payload{"arg1"}, &payload{"arg2"}
	s.At(5, func() { got = append(got, "closure@5") })
	s.AtArg(5, fn, p1)
	s.AtArg(3, fn, p2)
	s.Run()
	if fmt.Sprint(got) != "[arg2 closure@5 arg1]" {
		t.Fatalf("order %v", got)
	}
}

// Worker-count validation: a new engine runs one worker, and out-of-range
// counts are rejected with the typed error instead of silently clamped.
func TestWorkerCountValidation(t *testing.T) {
	sh := NewSharded(4, 10)
	if sh.workers != 1 {
		t.Fatalf("NewSharded starts with %d workers, want 1", sh.workers)
	}
	for _, bad := range []int{0, -2, 5, 100} {
		if err := sh.SetWorkers(bad); !errors.Is(err, ErrWorkerCount) {
			t.Fatalf("SetWorkers(%d) on 4 shards = %v, want ErrWorkerCount", bad, err)
		}
	}
	for _, ok := range []int{1, 4} {
		if err := sh.SetWorkers(ok); err != nil {
			t.Fatalf("SetWorkers(%d) on 4 shards: %v", ok, err)
		}
	}
}
