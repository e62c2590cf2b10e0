package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/slo"
)

// httpStack is the serving stack over one 2x3 SR-Array: deterministic
// gateway with an SLO controller attached, the HTTP block server on an
// in-process listener, and one keep-alive connection per tenant, each
// tenant a goroutine with one request outstanding: the stack of
// http-closed.
type httpStack struct {
	arr     *core.Array
	vol     core.Volume
	ctl     *slo.Controller
	gw      *service.Gateway
	ln      *service.MemListener
	srv     *http.Server
	client  *http.Client
	runErr  chan error
	in      *inputs
	tenants int
	reg     *obs.Registry
	rec     *recorder
	closed  bool
	// tot accumulates the clients' tallies over every run on this stack,
	// and admins the benchmark's own Admin calls (the gateway counts them
	// as requests), for the reconciliation against Gateway.Stats.
	tot    struct{ attempted, ok, failed, refused int64 }
	admins int64
}

// ioResponse mirrors the JSON body of the block endpoints.
type ioResponse struct {
	Status    int     `json:"status"`
	Error     string  `json:"error"`
	SubmitUs  float64 `json:"submit_us"`
	DoneUs    float64 `json:"done_us"`
	LatencyUs float64 `json:"latency_us"`
}

func newHTTPStack(c runCfg) (stack, error) {
	s := &httpStack{in: c.in, tenants: int(c.load + 0.5), runErr: make(chan error, 1)}
	if c.tr != nil {
		s.reg = &obs.Registry{}
	}
	arr, err := srArray(des.New(), c.seed, false, 0, s.reg)
	if err != nil {
		return nil, err
	}
	s.arr = arr
	// The array is wrapped once, at the gateway's level: on this
	// workload service.volume_ns is the array's submit and completion
	// cost, and the core.* span metrics stay 0.
	s.vol = traceVolume(arr, c.tr, spanGatewaySubmit, spanGatewayDone, false)
	if s.in == nil {
		s.in = &inputs{seed: c.seed, ops: genOps(c.seed, c.ops, arr.DataSectors(), 0.60, 1)}
	}
	// A generous target: the controller does its per-request window
	// bookkeeping but has no reason to step the ladder.
	var targets [slo.NumTiers]des.Time
	targets[slo.Standard] = 500 * des.Millisecond
	if s.ctl, err = slo.New(s.vol, slo.Options{Targets: targets}); err != nil {
		return nil, err
	}
	s.gw = service.NewGateway(s.vol, service.Config{
		Deterministic: true,
		Limits:        service.Limits{Default: service.TenantLimit{Rate: 1e9, Burst: 1e9}},
		SLO:           s.ctl,
	})
	var handler http.Handler = service.NewServer(s.gw)
	if c.tr != nil {
		handler = &tracedHandler{inner: handler, t: c.tr}
	}
	s.ln = service.NewMemListener()
	s.srv = &http.Server{Handler: handler}
	go func() { _ = s.srv.Serve(s.ln) }()
	go func() { s.runErr <- s.gw.Run() }()
	var rt http.RoundTripper = &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return s.ln.Dial(ctx)
		},
		MaxIdleConns:        0,
		MaxIdleConnsPerHost: 1 << 10,
		DisableCompression:  true,
	}
	if c.tr != nil {
		rt = &tracedTransport{inner: rt, t: c.tr}
	}
	s.client = &http.Client{Transport: rt}
	return s, nil
}

func tenantName(i int) string { return fmt.Sprintf("t%04d", i) }

// do sends one block request over the wire and decodes the reply.
func (s *httpStack) do(tenant string, seq uint64, op core.Op, off int64) (ioResponse, error) {
	method, path := http.MethodGet, "/v1/vol/read"
	if op == core.Write {
		method, path = http.MethodPost, "/v1/vol/write"
	}
	url := "http://mem" + path + "?off=" + strconv.FormatInt(off, 10) + "&count=" + strconv.Itoa(ioSectors)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return ioResponse{}, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Seq", strconv.FormatUint(seq, 10))
	hr, err := s.client.Do(req)
	if err != nil {
		return ioResponse{}, err
	}
	defer hr.Body.Close()
	var resp ioResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return ioResponse{}, fmt.Errorf("bad response body: %w", err)
	}
	if resp.Status != hr.StatusCode {
		return resp, fmt.Errorf("body status %d under HTTP status %d", resp.Status, hr.StatusCode)
	}
	return resp, nil
}

// simEvents reads the simulator's event count on the gateway's run loop,
// the only goroutine allowed to touch the Sim while the gateway is open.
func (s *httpStack) simEvents() (uint64, des.Time) {
	var ev uint64
	var now des.Time
	s.admins++
	s.gw.Admin(func() error {
		ev, now = s.arr.Sim().Processed, s.arr.Sim().Now()
		return nil
	})
	return ev, now
}

func (s *httpStack) run(from, n int, rec *recorder, measured bool) error {
	if from+n > len(s.in.ops) {
		return fmt.Errorf("input stream holds %d requests, need %d", len(s.in.ops), from+n)
	}
	s.rec = rec
	_, rec.simStart = s.simEvents()
	// The last-request hook reads the simulator through Admin, which the
	// barrier holds back while any tenant is registered: run it once the
	// fleet has left instead of inside the last completion.
	last := rec.onLast
	rec.onLast = nil
	k := s.tenants
	if k > n {
		k = n
	}
	// Every tenant registers before any of them sends, so the barrier
	// never opens on a partial fleet.
	for t := 0; t < k; t++ {
		s.gw.Register(tenantName(t))
	}
	var wg sync.WaitGroup
	errs := make([]error, k)
	for t := 0; t < k; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			name := tenantName(t)
			defer s.gw.Unregister(name)
			var seq uint64
			// Tenant t takes requests t, t+k, t+2k, ... of the slice.
			for i := from + t; i < from+n; i += k {
				op, off := decodeOp(s.in.ops[i])
				seq++
				resp, err := s.do(name, seq, op, off)
				rec.mu.Lock()
				stop := rec.aborted
				switch {
				case err != nil:
					errs[t] = err
					stop = true
				case resp.Status == service.StatusOK:
					rec.attempted++
					if resp.LatencyUs != resp.DoneUs-resp.SubmitUs || resp.LatencyUs <= 0 {
						errs[t] = fmt.Errorf("response times do not add up: %+v", resp)
						stop = true
					}
					rec.complete(op, false, des.Time(resp.SubmitUs), des.Time(resp.DoneUs), false)
				case resp.Status == service.StatusTooMany || resp.Status == service.StatusUnavailable:
					rec.refuse(true)
				default:
					rec.attempted++
					rec.complete(op, false, des.Time(resp.SubmitUs), des.Time(resp.DoneUs), true)
				}
				rec.mu.Unlock()
				if stop {
					return
				}
			}
		}(t)
	}
	wg.Wait()
	if last != nil && rec.finished == rec.n {
		last()
	}
	s.tot.attempted += int64(rec.attempted)
	s.tot.ok += int64(rec.ok)
	s.tot.failed += int64(rec.failed)
	s.tot.refused += int64(rec.refused)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *httpStack) events() uint64 {
	if s.closed {
		return s.arr.Sim().Processed
	}
	ev, _ := s.simEvents()
	return ev
}

func (s *httpStack) inputs() *inputs { return s.in }

// close shuts the gateway down (it drains admitted work and the array's
// background work on the virtual clock), then the wire.
func (s *httpStack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.gw.Close()
	err := <-s.runErr
	s.client.CloseIdleConnections()
	_ = s.srv.Close()
	_ = s.ln.Close()
	return err
}

func (s *httpStack) discard() { _ = s.close() }

// counters reads the array's side on the gateway's run loop, like
// simEvents; the gateway must still be open.
func (s *httpStack) counters(c counters) {
	s.admins++
	s.gw.Admin(func() error {
		obsCounters(c, s.reg)
		volumeCounters(c, s.arr)
		state := s.ctl.State()
		c["slo.transitions"] = float64(state.Escalations + state.Deescalations)
		c["slo.level_final"] = float64(state.LevelIndex)
		var shed int64
		for _, t := range state.Tiers {
			shed += t.Sheds
		}
		c["slo.shed_total"] = float64(shed)
		return nil
	})
	st := s.gw.Stats()
	c["service.rate_limited"] = float64(st.RateLimited)
	c["service.overloaded"] = float64(st.Overloaded)
	c["service.shed"] = float64(st.Shed)
	c["service.unavailable"] = float64(st.Unavailable)
}

func (s *httpStack) finish() error {
	st := s.gw.Stats()
	if err := s.close(); err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	if st.Requests != s.tot.attempted+s.admins || st.OK != s.tot.ok+s.admins ||
		st.Failed+st.BadRequest != s.tot.failed ||
		st.RateLimited+st.Overloaded+st.Shed+st.Unavailable != s.tot.refused {
		return fmt.Errorf("gateway stats %+v do not reconcile with the clients' tallies %+v (+%d admin calls)", st, s.tot, s.admins)
	}
	return nil
}
