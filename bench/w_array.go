package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/obs"
)

// arrayStack is a bare 2x3 SR-Array under a closed loop: the stack of
// array-read-closed and array-write-closed.
type arrayStack struct {
	sim     *des.Sim
	arr     *core.Array
	vol     core.Volume // arr, or its traced wrapper
	in      *inputs
	clients int
	reg     *obs.Registry
	// readFrac and foregroundWrites are the workload's shape, kept for the
	// model comparison.
	readFrac         float64
	foregroundWrites bool

	rec       *recorder
	next, end int
	onDone    func(core.Result)
}

// srArray builds the 2x3 SR-Array every single-array workload uses.
// nvram is the delayed-write table size (0: the prototype's 10 000).
func srArray(sim *des.Sim, seed int64, foregroundWrites bool, nvram int, reg *obs.Registry) (*core.Array, error) {
	return core.New(sim, core.Options{
		Config: layout.SRArray(2, 3), Policy: "rsatf", Seed: seed,
		ForegroundWrites: foregroundWrites, NVRAMEntries: nvram,
		Obs: reg, ObsLabel: "array",
	})
}

// writeNVRAM is array-write-closed's delayed-write table. At the default
// 10 000 entries the table fills and drains in cycles of about 10 000
// requests, during which host cost per request swings between 11 us and
// 140 us (every pick scans the delayed queue): a timed phase holds seven
// such cycles and no segment estimator is steady. At 1 000 a segment spans
// ten cycles, and the cliff is still there (75k requests/s against 330k
// with propagation off).
const writeNVRAM = 1000

func newArrayStack(c runCfg, readFrac float64, foregroundWrites bool) (stack, error) {
	s := &arrayStack{sim: des.New(), clients: int(c.load + 0.5), in: c.in, readFrac: readFrac, foregroundWrites: foregroundWrites}
	if c.tr != nil {
		s.reg = &obs.Registry{}
	}
	nvram := 0
	if !foregroundWrites {
		nvram = writeNVRAM
	}
	arr, err := srArray(s.sim, c.seed, foregroundWrites, nvram, s.reg)
	if err != nil {
		return nil, err
	}
	s.arr = arr
	s.vol = traceVolume(arr, c.tr, spanBrickSubmit, spanBrickDone, true)
	if s.in == nil {
		s.in = &inputs{seed: c.seed, ops: genOps(c.seed, c.ops, arr.DataSectors(), readFrac, 3)}
	}
	s.onDone = func(r core.Result) {
		s.rec.done(r)
		s.issue()
	}
	return s, nil
}

// issue submits the next request of the stream. A refused request is
// given up and the stream moves on (none is expected: admission control is
// off).
func (s *arrayStack) issue() {
	for s.next < s.end && !s.rec.aborted {
		op, off := decodeOp(s.in.ops[s.next])
		s.next++
		if err := s.vol.Submit(op, off, ioSectors, false, s.onDone); err != nil {
			s.rec.refuse(true)
			continue
		}
		s.rec.issued(op, off, ioSectors)
		return
	}
}

func (s *arrayStack) run(from, n int, rec *recorder, measured bool) error {
	if from+n > len(s.in.ops) {
		return fmt.Errorf("input stream holds %d requests, need %d", len(s.in.ops), from+n)
	}
	s.rec, s.next, s.end = rec, from, from+n
	rec.simStart = s.sim.Now()
	for i := 0; i < s.clients && i < n; i++ {
		s.issue()
	}
	for !rec.over() {
		if !s.sim.Step() {
			return fmt.Errorf("simulation stalled at %d/%d requests", rec.finished, n)
		}
	}
	return nil
}

func (s *arrayStack) events() uint64  { return s.sim.Processed }
func (s *arrayStack) inputs() *inputs { return s.in }

func (s *arrayStack) discard() {}

func (s *arrayStack) counters(c counters) {
	obsCounters(c, s.reg)
	volumeCounters(c, s.arr)
}

func (s *arrayStack) finish() error {
	if !s.arr.Drain(des.Hour) {
		return fmt.Errorf("array did not drain its background work")
	}
	return nil
}
