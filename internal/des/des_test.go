package des

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunExecutesInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 events, got %d", len(got))
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: got %d", i, v)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var order []string
	s.At(10, func() {
		order = append(order, "a")
		s.After(5, func() { order = append(order, "c") })
	})
	s.At(12, func() { order = append(order, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	ran := false
	s.At(100, func() { ran = true })
	s.RunUntil(50)
	if ran {
		t.Fatal("event at 100 ran during RunUntil(50)")
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	s.RunUntil(150)
	if !ran {
		t.Fatal("event at 100 did not run during RunUntil(150)")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	s.After(-1, func() {})
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: for any batch of event times, execution order is a stable sort
// by time.
func TestPropertyStableTimeSort(t *testing.T) {
	f := func(times []uint16) bool {
		s := New()
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, u := range times {
			at := Time(u)
			i := i
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.Run()
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500.0us"},
		{1500, "1.500ms"},
		{2.5e6, "2.5000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
	if got := Time(1500).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
}

func BenchmarkEventThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Time(rng.Float64()*100), func() {})
		s.Step()
	}
}

// Regression: popped events must not keep their closure reachable through
// the queue's backing array. Before the typed heap, the backing array held
// the last-popped event's fn (and everything it captured) until the slot
// was overwritten by a later push — on a drained queue, forever.
func TestPoppedEventsReleaseClosures(t *testing.T) {
	s := New()
	var collected atomic.Bool // the finalizer runs on the runtime's goroutine
	func() {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { collected.Store(true) })
		s.At(1, func() { _ = big[0] })
	}()
	// Keep the queue (and its backing array) alive while draining it.
	s.At(2, func() {})
	s.Run()
	if len(s.events.ev) != 0 {
		t.Fatalf("queue not drained: %d pending", len(s.events.ev))
	}
	for i := 0; i < 5 && !collected.Load(); i++ {
		runtime.GC()
	}
	if !collected.Load() {
		t.Fatal("popped event's closure still reachable from the event queue")
	}
	_ = s // the Sim itself is still live here
}

// oldEventHeap replicates the pre-optimization container/heap event queue
// so BenchmarkDESPushPop can compare the two shapes side by side.
type oldEventHeap []event

func (h oldEventHeap) Len() int { return len(h) }
func (h oldEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oldEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oldEventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *oldEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// BenchmarkDESPushPop holds a queue of depth events and measures one
// push+pop cycle — the steady-state shape of a simulation with many
// components scheduled ahead.
func BenchmarkDESPushPop(b *testing.B) {
	const depth = 256
	b.Run("typed4ary", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var q eventQueue
		var seq uint64
		now := Time(0)
		for i := 0; i < depth; i++ {
			seq++
			q.push(event{at: now + Time(rng.Float64()*1000), seq: seq, fn: func() {}})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := q.pop()
			now = e.at
			seq++
			q.push(event{at: now + Time(rng.Float64()*1000), seq: seq, fn: e.fn})
		}
	})
	b.Run("containerheap", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var q oldEventHeap
		var seq uint64
		now := Time(0)
		for i := 0; i < depth; i++ {
			seq++
			heap.Push(&q, event{at: now + Time(rng.Float64()*1000), seq: seq, fn: func() {}})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := heap.Pop(&q).(event)
			now = e.at
			seq++
			heap.Push(&q, event{at: now + Time(rng.Float64()*1000), seq: seq, fn: e.fn})
		}
	})
}

// Randomized stress: thousands of events scheduled from inside callbacks
// still execute in global time order.
func TestStressNestedScheduling(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(99))
	var last Time = -1
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		if s.Now() < last {
			t.Fatal("time went backwards")
		}
		last = s.Now()
		count++
		if depth == 0 {
			return
		}
		kids := rng.Intn(3)
		for i := 0; i < kids; i++ {
			s.After(Time(rng.Float64()*50), func() { spawn(depth - 1) })
		}
	}
	for i := 0; i < 200; i++ {
		s.At(Time(rng.Float64()*1000), func() { spawn(6) })
	}
	s.Run()
	if count < 200 {
		t.Fatalf("only %d events ran", count)
	}
	if len(s.events.ev) != 0 {
		t.Fatalf("%d events left", len(s.events.ev))
	}
}
