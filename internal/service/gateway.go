package service

import (
	"errors"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/slo"
)

// Config configures a Gateway.
type Config struct {
	// Deterministic selects the counting-barrier discipline: virtual
	// time advances only when every registered tenant is parked in a
	// call, and each barrier's arrivals are admitted in (tenant, seq)
	// order — a load run is then byte-identical regardless of OS
	// scheduling. Off, the loop advances whenever any caller is waiting,
	// which is what an interactive server wants.
	Deterministic bool
	// Limits is the per-tenant rate-limit policy.
	Limits Limits
	// SLO optionally attaches the per-tenant SLO control plane. The
	// controller must wrap the same volume and is stepped exclusively on
	// the run loop: admissions consult its brownout ladder, token buckets
	// refill at its per-tier scale, completions feed its windows. Nil (the
	// default) leaves the gateway byte-identical to a controller-free
	// build.
	SLO *slo.Controller
}

type callKind uint8

const (
	callIO callKind = iota
	callSleep
	callAdmin
)

// call is one parked caller: the request, the response slot, and the
// channel its goroutine blocks on until the run loop completes it.
type call struct {
	kind  callKind
	req   Request
	dur   des.Time     // callSleep: how long
	admin func() error // callAdmin: runs on the run loop
	// counted marks a call billed to a registered tenant — the ones the
	// deterministic barrier accounts for.
	counted bool
	// overload marks a 429 caused by array admission control rather
	// than the token bucket; shed marks one caused by the SLO brownout
	// ladder.
	overload bool
	shed     bool
	resp     Response
	done     chan struct{}
}

// Gateway owns a Volume's Sim and bridges concurrent callers onto it.
// Callers park in Do/Sleep/Admin; the Run loop admits arrivals, advances
// virtual time, and wakes each caller when its completion fires. All
// Volume and Sim access happens on the Run goroutine.
type Gateway struct {
	vol core.Volume
	sim *des.Sim
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// clients holds the registered tenant names; accounted counts their
	// outstanding calls. The deterministic barrier opens exactly when
	// accounted == len(clients): every registered tenant is parked.
	clients   map[string]struct{}
	accounted int
	parked    int // all outstanding calls, registered or not
	pending   []*call
	closed    bool
	stats     Stats

	// Run-loop-only state (never touched under mu).
	buckets     map[string]*bucket
	outstanding map[*call]struct{} // admitted to the array, completion owed
}

// NewGateway wraps vol. The caller must run Run on its own goroutine
// before calls will complete, and must not touch vol or its Sim while
// the gateway is open.
func NewGateway(vol core.Volume, cfg Config) *Gateway {
	g := &Gateway{
		vol:         vol,
		sim:         vol.Sim(),
		cfg:         cfg,
		clients:     make(map[string]struct{}),
		buckets:     make(map[string]*bucket),
		outstanding: make(map[*call]struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Register adds a tenant to the deterministic barrier. A registered
// tenant must keep exactly one call outstanding at a time (issue, wait,
// think, issue) and must Unregister — with no call outstanding — when it
// finishes, or the barrier never opens again. Unregistered callers may
// still call Do/Admin; they are admitted at barriers without being
// waited for.
func (g *Gateway) Register(tenant string) {
	g.mu.Lock()
	g.clients[tenant] = struct{}{}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Unregister removes a tenant from the barrier.
func (g *Gateway) Unregister(tenant string) {
	g.mu.Lock()
	delete(g.clients, tenant)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Do submits one I/O and blocks until its virtual completion.
func (g *Gateway) Do(req Request) Response {
	c := &call{kind: callIO, req: req, done: make(chan struct{})}
	if !g.enqueue(c) {
		return c.resp
	}
	<-c.done
	return c.resp
}

// Sleep parks the tenant for a virtual duration — think time, or the
// backoff a 429's RetryAfter asked for. The seq keeps the tenant's calls
// totally ordered for the deterministic sort.
func (g *Gateway) Sleep(tenant string, seq uint64, d des.Time) Response {
	if d < 0 {
		d = 0
	}
	c := &call{kind: callSleep, req: Request{Tenant: tenant, Seq: seq}, dur: d, done: make(chan struct{})}
	if !g.enqueue(c) {
		return c.resp
	}
	<-c.done
	return c.resp
}

// Admin runs fn on the run loop — the only place Volume state may be
// read or mutated (stats snapshots, Crash/Recover) while the gateway is
// open — and blocks until it has run.
func (g *Gateway) Admin(fn func() error) Response {
	c := &call{kind: callAdmin, admin: fn, done: make(chan struct{})}
	if !g.enqueue(c) {
		return c.resp
	}
	<-c.done
	return c.resp
}

// Close shuts the gateway down: pending un-admitted calls are rejected,
// admitted work runs to its virtual completion, background machinery
// drains, and Run returns.
func (g *Gateway) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

func (g *Gateway) enqueue(c *call) bool {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		c.resp = Response{Status: StatusUnavailable, Err: ErrGatewayClosed.Error()}
		return false
	}
	if _, ok := g.clients[c.req.Tenant]; ok {
		c.counted = true
		g.accounted++
	}
	g.parked++
	g.pending = append(g.pending, c)
	g.cond.Broadcast()
	g.mu.Unlock()
	return true
}

// complete resolves one call: response recorded, barrier accounting
// released, caller woken. Runs on the run loop (or shutdown).
func (g *Gateway) complete(c *call, resp Response) {
	g.mu.Lock()
	c.resp = resp
	g.parked--
	if c.counted {
		g.accounted--
	}
	delete(g.outstanding, c)
	if c.kind == callSleep {
		g.stats.Sleeps++
	} else {
		g.stats.Requests++
		switch {
		case resp.Status == StatusOK:
			g.stats.OK++
		case resp.Status == StatusTooMany && c.shed:
			g.stats.Shed++
		case resp.Status == StatusTooMany && c.overload:
			g.stats.Overloaded++
		case resp.Status == StatusTooMany:
			g.stats.RateLimited++
		case resp.Status == StatusUnavailable:
			g.stats.Unavailable++
		case resp.Status == StatusBadRequest:
			g.stats.BadRequest++
		default:
			g.stats.Failed++
		}
	}
	g.mu.Unlock()
	close(c.done)
}

// runnableLocked reports whether the run loop has work it may do now.
func (g *Gateway) runnableLocked() bool {
	if g.cfg.Deterministic && g.accounted != len(g.clients) {
		// Some registered tenant is mid-think (or mid-HTTP-round-trip):
		// hold the barrier until every one of them is parked again.
		return false
	}
	return len(g.pending) > 0 || g.parked > 0
}

// Run is the gateway's event loop: admit arrivals, step the simulator,
// repeat. It returns after Close (nil) or on a stall (every caller
// parked with no event left to wake them).
func (g *Gateway) Run() error {
	for {
		g.mu.Lock()
		for !g.closed && !g.runnableLocked() {
			g.cond.Wait()
		}
		if g.closed {
			pending := g.pending
			g.pending = nil
			g.mu.Unlock()
			return g.shutdown(pending)
		}
		batch := g.pending
		g.pending = nil
		g.mu.Unlock()

		if len(batch) > 0 {
			g.admit(batch)
			continue // re-evaluate: admissions may have woken callers
		}
		if !g.sim.Step() {
			g.failOutstanding(ErrGatewayStalled)
			return ErrGatewayStalled
		}
	}
}

// admit routes one barrier's arrivals: deterministic order, rate-limit
// policy on the virtual clock, then one batched submit into the array so
// each touched drive schedules once.
func (g *Gateway) admit(batch []*call) {
	if g.cfg.Deterministic {
		sort.SliceStable(batch, func(i, j int) bool {
			a, b := &batch[i].req, &batch[j].req
			if a.Tenant != b.Tenant {
				return a.Tenant < b.Tenant
			}
			return a.Seq < b.Seq
		})
	}
	now := g.sim.Now()
	var ios []*call
	for _, c := range batch {
		switch c.kind {
		case callSleep:
			c := c
			g.sim.At(now+c.dur, func() {
				g.complete(c, Response{Status: StatusOK, Submit: now, Done: g.sim.Now()})
			})
		case callAdmin:
			err := c.admin()
			resp := Response{Status: statusOf(err), Submit: now, Done: now}
			if err != nil {
				resp.Err = err.Error()
			}
			g.complete(c, resp)
		default:
			// The brownout ladder sheds whole tiers before the token
			// bucket is even consulted — a shed tenant must not drain its
			// bucket.
			if ra, ok := g.cfg.SLO.Admit(now, c.req.Tenant); !ok {
				c.shed = true
				g.complete(c, Response{
					Status: StatusTooMany, Err: "shed: service brownout",
					Submit: now, Done: now, RetryAfter: ra,
				})
				continue
			}
			if ra, ok := g.allow(c.req.Tenant, now); !ok {
				g.complete(c, Response{
					Status: StatusTooMany, Err: "rate limited",
					Submit: now, Done: now, RetryAfter: ra,
				})
				continue
			}
			ios = append(ios, c)
		}
	}
	if len(ios) == 0 {
		return
	}
	ops := make([]core.BatchOp, len(ios))
	for i, c := range ios {
		c := c
		ops[i] = core.BatchOp{Op: c.req.Op, Off: c.req.Off, Count: c.req.Count, Done: func(r core.Result) {
			g.cfg.SLO.Observe(r.Done, c.req.Tenant, r.Done-r.Submit, r.Failed)
			status, errText := StatusOK, ""
			var retryAfter des.Time
			if r.Failed {
				status = statusOf(r.Err)
				if status == StatusBadRequest {
					// A completion-time failure is the array's, not the
					// caller's.
					status = StatusFailed
				}
				if status == StatusUnavailable {
					// The outage that failed this request is the kind a
					// probe cycle can heal: tell the client when to retry,
					// same contract as the 429 path.
					retryAfter = unavailableRetryAfter
				}
				if r.Err != nil {
					errText = r.Err.Error()
				}
			}
			g.complete(c, Response{Status: status, Err: errText, Submit: r.Submit, Done: r.Done, RetryAfter: retryAfter})
		}}
		g.outstanding[c] = struct{}{}
	}
	errs, _ := g.vol.SubmitBatchErrs(ops)
	for i, e := range errs {
		if e == nil {
			continue
		}
		c := ios[i]
		delete(g.outstanding, c)
		resp := Response{Status: statusOf(e), Err: e.Error(), Submit: now, Done: now}
		if errors.Is(e, core.ErrOverload) {
			// The array shed the request: hint about an array-queue drain
			// time at the reference drive's service rates (the bucket
			// rejections compute their own from the refill rate).
			const overloadRetryAfter = 2 * des.Millisecond
			c.overload = true
			resp.RetryAfter = overloadRetryAfter
		}
		if resp.Status == StatusUnavailable {
			// A crashed-volume rejection is retryable once a replica comes
			// back; hint like the 429 path does. (A cluster-backed volume
			// only rejects this way when every replica is down — partial
			// outages fail over inside the cluster and never surface here.)
			resp.RetryAfter = unavailableRetryAfter
		}
		if resp.Status == StatusUnavailable || resp.Status == StatusFailed {
			// 5xx-class synchronous rejections (a crashed array) are SLO
			// failures; 4xx-class backpressure and caller errors are not.
			g.cfg.SLO.Observe(now, c.req.Tenant, 0, true)
		}
		g.complete(c, resp)
	}
}

// shutdown finishes a closed gateway: reject what was never admitted,
// run admitted work to completion, and settle the volume's background
// machinery so its counters reconcile.
func (g *Gateway) shutdown(pending []*call) error {
	for _, c := range pending {
		g.complete(c, Response{Status: StatusUnavailable, Err: ErrGatewayClosed.Error()})
	}
	for {
		g.mu.Lock()
		parked := g.parked
		pend := g.pending
		g.pending = nil
		g.mu.Unlock()
		for _, c := range pend { // stragglers racing Close
			g.complete(c, Response{Status: StatusUnavailable, Err: ErrGatewayClosed.Error()})
		}
		if parked == 0 {
			break
		}
		if !g.sim.Step() {
			g.failOutstanding(ErrGatewayStalled)
			return ErrGatewayStalled
		}
	}
	g.vol.Drain(des.Hour)
	return nil
}

// failOutstanding resolves every admitted-but-incomplete call with err,
// in (tenant, seq) order so even the failure path is deterministic.
func (g *Gateway) failOutstanding(err error) {
	calls := make([]*call, 0, len(g.outstanding))
	for c := range g.outstanding {
		calls = append(calls, c)
	}
	sort.Slice(calls, func(i, j int) bool {
		a, b := &calls[i].req, &calls[j].req
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Seq < b.Seq
	})
	for _, c := range calls {
		g.complete(c, Response{Status: StatusUnavailable, Err: err.Error()})
	}
}
