// Package des implements a small deterministic discrete-event simulation
// kernel. All of MimdRAID's simulated components (disks, buses, workload
// generators, trace replayers) advance time exclusively through a shared
// *Sim, so a run with a given seed is exactly reproducible.
//
// Time is measured in microseconds as a float64. Events scheduled for the
// same instant fire in the order they were scheduled (FIFO tie-break on a
// monotonically increasing sequence number), which keeps runs deterministic
// even when many components schedule at identical timestamps.
package des

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in microseconds.
type Time float64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Milliseconds reports t as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1000 }

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	a := math.Abs(float64(t))
	switch {
	case a < 1000:
		return fmt.Sprintf("%.1fus", float64(t))
	case a < 1e6:
		return fmt.Sprintf("%.3fms", float64(t)/1000)
	default:
		return fmt.Sprintf("%.4fs", float64(t)/1e6)
	}
}

type event struct {
	at  Time
	seq uint64
	fn  func()
	// fnA/arg is the allocation-free form: a long-lived func(any) plus a
	// pointer-typed argument boxes nothing at schedule time, whereas a
	// per-event fn closure costs one heap allocation per capture set.
	fnA func(any)
	arg any
}

// call runs whichever form the event carries.
func (e *event) call() {
	if e.fnA != nil {
		e.fnA(e.arg)
		return
	}
	e.fn()
}

// eventQueue is a typed 4-ary min-heap ordered by (at, seq). Compared to
// the previous container/heap implementation it avoids the interface{}
// boxing allocation on every Push and the virtual Less/Swap calls on every
// sift; the wider fan-out halves the sift-down depth, which is where a
// pop-heavy simulation spends its comparisons. Vacated slots are zeroed on
// pop so a popped event's closure (and everything it captures — arrays,
// traces, result collectors) becomes collectable immediately instead of
// being retained by the backing array.
type eventQueue struct {
	ev []event
}

// less orders events by time, FIFO among equals.
func (q *eventQueue) less(i, j int) bool {
	a, b := &q.ev[i], &q.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{} // release the closure reference
	ev = ev[:n]
	q.ev = ev
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			break
		}
		ev[i], ev[min] = ev[min], ev[i]
		i = min
	}
	return top
}

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	// Processed counts events executed; useful for run-away detection in
	// tests.
	Processed uint64
}

// New returns an empty simulator positioned at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in a component, and silently clamping
// would mask causality bugs.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, which typically
// forces a fresh closure per event, a caller can reuse one long-lived
// func(any) and thread per-event state through a pooled pointer argument,
// making the schedule itself allocation-free. Hot paths (drive completions,
// request retries) use this form.
func (s *Sim) AtArg(t Time, fn func(any), arg any) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fnA: fn, arg: arg})
}

// After schedules fn to run d microseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// Run executes events until the queue drains.
func (s *Sim) Run() {
	s.RunUntil(Time(math.Inf(1)))
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if the queue drained earlier, the clock still lands on t so periodic
// processes observe a consistent horizon).
func (s *Sim) RunUntil(t Time) {
	for len(s.events.ev) > 0 {
		if s.events.ev[0].at > t {
			break
		}
		e := s.events.pop()
		s.now = e.at
		s.Processed++
		e.call()
	}
	if s.now < t && !math.IsInf(float64(t), 1) {
		s.now = t
	}
}

// Step executes exactly one event if any is pending and reports whether one
// ran.
func (s *Sim) Step() bool {
	if len(s.events.ev) == 0 {
		return false
	}
	e := s.events.pop()
	s.now = e.at
	s.Processed++
	e.call()
	return true
}

// nextAt reports the timestamp of the earliest pending event. The Sharded
// engine uses it to compute the epoch boundary.
func (s *Sim) nextAt() (Time, bool) {
	if len(s.events.ev) == 0 {
		return 0, false
	}
	return s.events.ev[0].at, true
}

// runBefore executes events with timestamps strictly below t — the
// half-open epoch window of the Sharded engine. The clock is left at the
// last executed event (not advanced to t), so events injected at the epoch
// barrier with at >= t remain schedulable.
func (s *Sim) runBefore(t Time) {
	for len(s.events.ev) > 0 {
		if s.events.ev[0].at >= t {
			break
		}
		e := s.events.pop()
		s.now = e.at
		s.Processed++
		e.call()
	}
}

// advanceTo moves the clock forward to t without executing anything;
// Sharded uses it to land every shard on the horizon after a drain.
func (s *Sim) advanceTo(t Time) {
	if !math.IsInf(float64(t), 1) && s.now < t {
		s.now = t
	}
}
