package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/trace"
)

// traceStack is the 2x3 SR-Array under an open-loop replay of the
// Cello-base day, scaled with Trace.Scale and repeated day after day until
// the request count is met: the stack of trace-open. Synthesizing a fresh
// trace as long as the timed phase would cost as much host time as
// replaying it, three times per run; one generated day keeps set-up near a
// second and still gives every request stream the profile's burst cycle.
type traceStack struct {
	sim    *des.Sim
	arr    *core.Array
	vol    core.Volume
	in     *inputs
	scaled *trace.Trace
	period des.Time // one scaled day
	reg    *obs.Registry

	rec       *recorder
	next, end int
	base      des.Time // simulated instant of request 0 of the stream
	onDone    func(core.Result)
	arriveFn  func()
}

func newTraceStack(c runCfg) (stack, error) {
	s := &traceStack{sim: des.New(), in: c.in}
	if c.tr != nil {
		s.reg = &obs.Registry{}
	}
	arr, err := srArray(s.sim, c.seed, false, 0, s.reg)
	if err != nil {
		return nil, err
	}
	s.arr = arr
	s.vol = traceVolume(arr, c.tr, spanBrickSubmit, spanBrickDone, true)
	if s.in == nil {
		s.in = &inputs{seed: c.seed}
		genDay(s.in, c.ops)
	}
	if s.in.day.DataSectors > arr.DataSectors() {
		return nil, fmt.Errorf("trace volume %d exceeds array volume %d", s.in.day.DataSectors, arr.DataSectors())
	}
	s.scaled = s.in.day.Scale(c.load)
	s.period = des.Time(float64(s.in.dayDur) / c.load)
	s.onDone = func(r core.Result) { s.rec.done(r) }
	s.arriveFn = s.arrive
	return s, nil
}

// at is request i's arrival offset from the start of the stream.
func (s *traceStack) at(i int) des.Time {
	l := len(s.scaled.Records)
	return des.Time(i/l)*s.period + s.scaled.Records[i%l].At
}

// arrive submits the request that is due and schedules the next arrival.
// Only one arrival event is ever pending, so the event queue stays as
// short as the array's own work.
func (s *traceStack) arrive() {
	i := s.next
	s.next++
	if late := s.sim.Now() - (s.base + s.at(i)); late > s.rec.lateMax {
		s.rec.lateMax = late
	}
	r := &s.scaled.Records[i%len(s.scaled.Records)]
	op := core.Read
	if r.Write {
		op = core.Write
	}
	if err := s.vol.Submit(op, r.Off, r.Count, r.Async, s.onDone); err != nil {
		s.rec.refuse(true)
	} else {
		s.rec.issued(op, r.Off, r.Count)
	}
	if s.next < s.end && !s.rec.aborted {
		s.sim.At(s.base+s.at(s.next), s.arriveFn)
	}
}

func (s *traceStack) run(from, n int, rec *recorder, measured bool) error {
	s.rec, s.next, s.end = rec, from, from+n
	rec.simStart = s.sim.Now()
	s.base = s.sim.Now() - s.at(from)
	s.sim.At(s.sim.Now(), s.arriveFn)
	for !rec.over() {
		if !s.sim.Step() {
			return fmt.Errorf("replay stalled at %d/%d requests", rec.finished, n)
		}
	}
	return nil
}

func (s *traceStack) events() uint64  { return s.sim.Processed }
func (s *traceStack) inputs() *inputs { return s.in }
func (s *traceStack) discard()        {}

func (s *traceStack) counters(c counters) {
	obsCounters(c, s.reg)
	volumeCounters(c, s.arr)
	c["tracegen.generate_s"] = s.in.genSeconds
}

func (s *traceStack) finish() error {
	if !s.arr.Drain(des.Hour) {
		return fmt.Errorf("array did not drain its background work")
	}
	return nil
}
