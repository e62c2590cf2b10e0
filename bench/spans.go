package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/des"
)

// Span names: one per wrapped layer boundary.
const (
	spanBrickSubmit   = iota // Submit* into an array (the innermost Volume)
	spanBrickDone            // a completion callback an array invoked
	spanClusterSubmit        // Submit* into the cluster router
	spanClusterDone          // a completion callback the router invoked
	spanGatewaySubmit        // the gateway's batched submit into its volume
	spanGatewayDone          // a completion callback the gateway's volume invoked
	spanHandler              // service.Server.ServeHTTP
	spanClient               // http.RoundTripper.RoundTrip
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core.submit", "core.done", "cluster.submit", "cluster.done",
	"service.volume.submit", "service.volume.done", "service.handler", "service.client",
}

// span is one timed interval at a layer boundary. id is its index + 1;
// parent is the id of the span whose call stack it ran inside (0: none).
// Spans of one logical request share req (0: not attributable, e.g.
// backfill copies).
type span struct {
	name       uint8
	req        uint32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans into a preallocated slice. The simulator-side
// wrappers run on the goroutine that owns the Sim, so their nesting is a
// plain stack (cur); the HTTP wrappers run on client and server goroutines
// and link by request id instead. mu makes the two kinds safe together (it
// is uncontended everywhere else, and the traced run reports its own cost).
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	cur    int32  // innermost open simulator-side span
	curReq uint32 // request the running code belongs to
	nextID uint32
	// clients and handlers map an in-flight HTTP request id to its client
	// and handler spans; waiting lists, per (op, off, count), the requests
	// whose handler is parked in the gateway, so the gateway's volume
	// spans can name the request that caused them.
	clients  map[uint32]int32
	handlers map[uint32]int32
	waiting  map[[3]int64][]uint32
	dropped  int
	// on gates recording: the wrappers pass straight through during a
	// set-up's warm-up pass.
	on bool
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch:    time.Now(),
		spans:    make([]span, 0, capacity),
		clients:  make(map[uint32]int32),
		handlers: make(map[uint32]int32),
		waiting:  make(map[[3]int64][]uint32),
	}
}

// open starts a span and returns its id (0 when the slice is full: spans
// are never reallocated mid-run, the overflow is counted and reported).
// Callers hold mu.
func (t *tracer) open(name uint8, req uint32, parent int32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans))
}

func (t *tracer) close(id int32) {
	if id > 0 {
		t.spans[id-1].end = int64(time.Since(t.epoch))
	}
}

// frame is what leave restores.
type frame struct {
	id, prev int32
	prevReq  uint32
}

// enter opens a simulator-side span nested in the current one. A request
// id of 0 inherits the running request. The gateway's submit span hangs
// off its request's HTTP handler, which stays parked until the request
// completes. The gateway's completion spans do not: the callback wakes the
// handler, which runs on another goroutine and may return before the
// callback does, so the span could outlive a handler parent; like a
// message across shards, it is tied to its request by req alone.
func (t *tracer) enter(name uint8, req uint32) frame {
	t.mu.Lock()
	f := frame{prev: t.cur, prevReq: t.curReq}
	if req == 0 {
		req = t.curReq
	}
	parent := t.cur
	if parent == 0 && name == spanGatewaySubmit {
		parent = t.handlers[req]
	}
	f.id = t.open(name, req, parent)
	if f.id > 0 {
		t.cur = f.id
	}
	t.curReq = req
	t.mu.Unlock()
	return f
}

func (t *tracer) leave(f frame) {
	t.mu.Lock()
	t.close(f.id)
	t.cur, t.curReq = f.prev, f.prevReq
	t.mu.Unlock()
}

// tracedVolume wraps a core.Volume with spans around every submit call and
// every completion callback. It is inserted at each stacking level.
type tracedVolume struct {
	core.Volume
	t            *tracer
	submit, done uint8
	// root marks the outermost level of a simulator-only stack, which
	// mints request ids; inner levels inherit the running request, and
	// the gateway's level takes ids from the HTTP handlers.
	root bool
}

func traceVolume(v core.Volume, t *tracer, submit, done uint8, root bool) core.Volume {
	if t == nil {
		return v
	}
	return &tracedVolume{Volume: v, t: t, submit: submit, done: done, root: root}
}

func (v *tracedVolume) reqFor(o *core.BatchOp) uint32 {
	switch {
	case v.root:
		v.t.nextID++
		return v.t.nextID
	case v.submit == spanGatewaySubmit:
		return v.t.waitingReq(o)
	}
	return v.t.curReq
}

func (v *tracedVolume) wrapDone(req uint32, done func(core.Result)) func(core.Result) {
	if done == nil {
		return nil
	}
	return func(r core.Result) {
		f := v.t.enter(v.done, req)
		done(r)
		v.t.leave(f)
	}
}

func (v *tracedVolume) Submit(op core.Op, off int64, count int, async bool, done func(core.Result)) error {
	if !v.t.on {
		return v.Volume.Submit(op, off, count, async, done)
	}
	req := v.reqFor(&core.BatchOp{Op: op, Off: off, Count: count})
	f := v.t.enter(v.submit, req)
	err := v.Volume.Submit(op, off, count, async, v.wrapDone(req, done))
	v.t.leave(f)
	return err
}

// wrapBatch wraps every Done of a batch and returns the first operation's
// request id, which the batch's one submit span carries.
func (v *tracedVolume) wrapBatch(ops []core.BatchOp) ([]core.BatchOp, uint32) {
	wrapped := make([]core.BatchOp, len(ops))
	var first uint32
	for i, o := range ops {
		req := v.reqFor(&o)
		if i == 0 {
			first = req
		}
		o.Done = v.wrapDone(req, o.Done)
		wrapped[i] = o
	}
	return wrapped, first
}

func (v *tracedVolume) SubmitBatch(ops []core.BatchOp) (int, error) {
	if !v.t.on {
		return v.Volume.SubmitBatch(ops)
	}
	wrapped, req := v.wrapBatch(ops)
	f := v.t.enter(v.submit, req)
	n, err := v.Volume.SubmitBatch(wrapped)
	v.t.leave(f)
	return n, err
}

func (v *tracedVolume) SubmitBatchErrs(ops []core.BatchOp) ([]error, int) {
	if !v.t.on {
		return v.Volume.SubmitBatchErrs(ops)
	}
	wrapped, req := v.wrapBatch(ops)
	f := v.t.enter(v.submit, req)
	errs, n := v.Volume.SubmitBatchErrs(wrapped)
	v.t.leave(f)
	return errs, n
}

// tracedSend wraps a des.Sharded send so the request id follows a message
// across shards (the parent does not: a span's parent is the span it ran
// inside, and a message runs after its sender returned).
func tracedSend(t *tracer, send func(from, to int, at des.Time, fn func())) func(from, to int, at des.Time, fn func()) {
	if t == nil {
		return send
	}
	return func(from, to int, at des.Time, fn func()) {
		req := t.curReq
		if req == 0 || !t.on {
			send(from, to, at, fn)
			return
		}
		send(from, to, at, func() {
			prev := t.curReq
			t.curReq = req
			fn()
			t.curReq = prev
		})
	}
}

// --- the HTTP wire ---------------------------------------------------------

// waitingReq pops the oldest request whose handler is parked in the
// gateway with this operation (two tenants asking for the same block at
// once are interchangeable).
func (t *tracer) waitingReq(o *core.BatchOp) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := [3]int64{int64(o.Op), o.Off, int64(o.Count)}
	reqs := t.waiting[k]
	if len(reqs) == 0 {
		return 0
	}
	if len(reqs) == 1 {
		delete(t.waiting, k)
	} else {
		t.waiting[k] = reqs[1:]
	}
	return reqs[0]
}

// tracedTransport is the client end of the wire.
type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

func (rt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t := rt.t
	if !t.on {
		return rt.inner.RoundTrip(r)
	}
	t.mu.Lock()
	t.nextID++
	req := t.nextID
	id := t.open(spanClient, req, 0)
	t.clients[req] = id
	t.mu.Unlock()
	r.Header.Set("X-Bench-Req", strconv.FormatUint(uint64(req), 10))
	resp, err := rt.inner.RoundTrip(r)
	t.mu.Lock()
	t.close(id)
	delete(t.clients, req)
	t.mu.Unlock()
	return resp, err
}

// tracedHandler is the server end of the wire.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.t
	if !t.on {
		h.inner.ServeHTTP(w, r)
		return
	}
	req64, _ := strconv.ParseUint(r.Header.Get("X-Bench-Req"), 10, 32)
	req := uint32(req64)
	q := r.URL.Query()
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	count, _ := strconv.Atoi(q.Get("count"))
	op := core.Read
	if r.Method == http.MethodPost {
		op = core.Write
	}
	k := [3]int64{int64(op), off, int64(count)}
	t.mu.Lock()
	id := t.open(spanHandler, req, t.clients[req])
	if id > 0 {
		t.handlers[req] = id
		t.waiting[k] = append(t.waiting[k], req)
	}
	t.mu.Unlock()
	h.inner.ServeHTTP(w, r)
	t.mu.Lock()
	t.close(id)
	delete(t.handlers, req)
	t.mu.Unlock()
}

// --- analysis and output ---------------------------------------------------

// spanStats aggregates the spans of one name: inclusive durations, and
// the part of them that direct children of each name cover (self time is
// the total minus those).
type spanStats struct {
	calls   int
	totalNs int64
	childNs [numSpanNames]int64
}

func (t *tracer) stats() [numSpanNames]spanStats {
	var st [numSpanNames]spanStats
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		st[s.name].calls++
		st[s.name].totalNs += d
		if s.parent > 0 {
			st[t.spans[s.parent-1].name].childNs[s.name] += d
		}
	}
	return st
}

// write stores the spans as JSON lines under bench/out/.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"req\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i+1, spanNames[s.name], s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
