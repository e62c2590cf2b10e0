package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/stats"
)

// Harness stands up the full in-process serving stack over a volume:
// the virtual-time gateway, the HTTP server on a MemListener, and an
// http.Client whose transport dials it. Everything the wire would carry
// is exercised; no TCP port is opened.
type Harness struct {
	GW     *Gateway
	Client *http.Client
	ln     *MemListener
	srv    *http.Server
	runErr chan error
}

// NewHarness builds and starts the stack (server goroutine + gateway
// run loop). Callers must Close it.
func NewHarness(vol core.Volume, cfg Config) *Harness {
	h := &Harness{
		GW:     NewGateway(vol, cfg),
		ln:     NewMemListener(),
		runErr: make(chan error, 1),
	}
	h.srv = &http.Server{Handler: NewServer(h.GW)}
	go func() { _ = h.srv.Serve(h.ln) }()
	go func() { h.runErr <- h.GW.Run() }()
	h.Client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			return h.ln.Dial(ctx)
		},
		// Generous idle pool: a request must never wait for another
		// tenant's in-flight response (in deterministic mode that wait
		// would deadlock the barrier), so keep every tenant's connection
		// alive instead of cycling through a small pool.
		MaxIdleConns:        0,
		MaxIdleConnsPerHost: 1 << 14,
		DisableCompression:  true,
	}}
	return h
}

// Close shuts the gateway down (draining admitted work on the virtual
// clock), then the server, and returns the run loop's error.
func (h *Harness) Close() error {
	h.GW.Close()
	err := <-h.runErr
	h.Client.CloseIdleConnections()
	_ = h.srv.Close()
	_ = h.ln.Close()
	return err
}

// LoadConfig sizes a multi-tenant closed-loop load.
type LoadConfig struct {
	// Tenants and Requests set the fleet size and the total request
	// budget (split evenly, remainder to the low tenants).
	Tenants  int
	Requests int
	// Sectors bounds request offsets (the volume's DataSectors).
	Sectors int64
	// Seed derives every tenant's private RNG.
	Seed int64
	// ThinkMean is the mean virtual think time between a tenant's
	// operations (exponential); every 50th tenant runs hot at an eighth
	// of it. Zero means no think time — a pure closed loop.
	ThinkMean des.Time
	// MaxRetries bounds how many times one logical operation retries
	// after a 429 (sleeping out a jittered multiple of the Retry-After in
	// virtual time).
	MaxRetries int
	// Window groups completions into virtual-time windows for the
	// p99/429-rate series; default 100ms.
	Window des.Time
	// SLOTarget optionally maps a tenant index to its per-request latency
	// target; successful responses at or under it count toward the
	// tenant's Met tally. Nil disables the tally.
	SLOTarget func(tenant int) des.Time
	// BurstPeriod/BurstFactor overlay square-wave burstiness on the think
	// time: during the first half of each virtual period every tenant
	// thinks BurstFactor× faster. Zero period (or factor <= 1) disables.
	BurstPeriod des.Time
	BurstFactor float64
}

// TenantTotals is one tenant's outcome tallies. Met counts OK responses
// within the tenant's SLOTarget (0 when no target is configured).
type TenantTotals struct {
	Issued, OK, Limited, Overloaded, Failed, Met int64
}

// Window is one virtual-time bucket of the load: counts by outcome and
// the p99 of successful latencies.
type Window struct {
	Index                                  int64
	Count, OK, Limited, Overloaded, Failed int64
	P99                                    des.Time
}

// LoadReport aggregates a load run.
type LoadReport struct {
	Issued     int64 // HTTP requests issued (retries included)
	OK         int64
	Limited    int64 // 429 from the token buckets
	Overloaded int64 // 429 from array admission control
	Failed     int64
	Retries    int64
	Aborted    int64 // tenants that died on a transport error
	Windows    []Window
	PerTenant  []TenantTotals
}

// Digest folds the report into a stable fingerprint: totals, every
// window, every tenant. Two deterministic-mode runs of the same load
// must produce byte-identical digests.
func (r *LoadReport) Digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "issued=%d ok=%d limited=%d overloaded=%d failed=%d retries=%d aborted=%d\n",
		r.Issued, r.OK, r.Limited, r.Overloaded, r.Failed, r.Retries, r.Aborted)
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "w%d n=%d ok=%d lim=%d over=%d fail=%d p99=%.3f\n",
			w.Index, w.Count, w.OK, w.Limited, w.Overloaded, w.Failed, float64(w.P99))
	}
	for i, t := range r.PerTenant {
		fmt.Fprintf(&b, "t%d %d/%d/%d/%d/%d met=%d\n", i, t.Issued, t.OK, t.Limited, t.Overloaded, t.Failed, t.Met)
	}
	return b.String()
}

// tenantName is fixed-width so lexicographic order (the deterministic
// admission sort key) equals tenant index order.
func tenantName(i int) string { return fmt.Sprintf("t%05d", i) }

// winAgg accumulates one virtual-time window during the run.
type winAgg struct {
	count, ok, limited, overloaded, failed int64
	lats                                   []float64
}

// tenantRun is one tenant goroutine's private accumulator — no locks;
// merged after the WaitGroup joins.
type tenantRun struct {
	totals  TenantTotals
	wins    map[int64]*winAgg
	target  des.Time // per-request SLO target; 0 = untracked
	retries int64
	aborted bool
}

func (tr *tenantRun) record(resp apiResponse, window des.Time) {
	tr.totals.Issued++
	idx := int64(des.Time(resp.DoneUs) / window)
	wa := tr.wins[idx]
	if wa == nil {
		wa = &winAgg{}
		tr.wins[idx] = wa
	}
	wa.count++
	switch {
	case resp.Status == StatusOK:
		tr.totals.OK++
		wa.ok++
		if tr.target > 0 && des.Time(resp.LatencyUs) <= tr.target {
			tr.totals.Met++
		}
		wa.lats = append(wa.lats, resp.LatencyUs)
	case resp.Status == StatusTooMany && strings.Contains(resp.Error, "overload"):
		tr.totals.Overloaded++
		wa.overloaded++
	case resp.Status == StatusTooMany:
		tr.totals.Limited++
		wa.limited++
	default:
		tr.totals.Failed++
		wa.failed++
	}
}

// RunLoad drives the configured load through the harness's HTTP client
// and returns the merged report. Every tenant is registered with the
// gateway before any traffic starts, keeps one call outstanding at a
// time, and unregisters when its quota is spent — the contract the
// deterministic barrier requires.
func (h *Harness) RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Tenants <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("service: load needs tenants and requests, got %d/%d", cfg.Tenants, cfg.Requests)
	}
	if cfg.Sectors <= 0 {
		return nil, fmt.Errorf("service: load needs the volume size (Sectors)")
	}
	window := cfg.Window
	if window <= 0 {
		window = 100 * des.Millisecond
	}
	quota := make([]int, cfg.Tenants)
	for i := range quota {
		quota[i] = cfg.Requests / cfg.Tenants
		if i < cfg.Requests%cfg.Tenants {
			quota[i]++
		}
	}
	// Register the whole fleet before any traffic: the barrier size must
	// be fixed when the first request lands, or admission order would
	// depend on registration timing.
	for i := 0; i < cfg.Tenants; i++ {
		h.GW.Register(tenantName(i))
	}
	runs := make([]tenantRun, cfg.Tenants)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := tenantName(i)
			defer h.GW.Unregister(name)
			tr := &runs[i]
			tr.wins = make(map[int64]*winAgg)
			if cfg.SLOTarget != nil {
				tr.target = cfg.SLOTarget(i)
			}
			rng := rand.New(rand.NewSource(cfg.Seed<<20 ^ int64(i)))
			readFrac := 0.5 + 0.4*float64(i%7)/6
			count := 8 << (i % 3)
			think := cfg.ThinkMean
			if i%50 == 0 {
				think /= 8 // hot tenant: drives its bucket into rejection
			}
			var seq uint64
			var lastDone des.Time
			for n := 0; n < quota[i]; n++ {
				op := "read"
				if rng.Float64() >= readFrac {
					op = "write"
				}
				off := rng.Int63n(cfg.Sectors - int64(count))
				for attempt := 0; ; attempt++ {
					seq++
					resp, err := h.doOp(op, name, seq, off, count)
					if err != nil {
						tr.aborted = true
						return
					}
					tr.record(resp, window)
					lastDone = des.Time(resp.DoneUs)
					if resp.Status == StatusTooMany && attempt < cfg.MaxRetries {
						tr.retries++
						seq++
						h.GW.Sleep(name, seq, retryBackoff(rng, des.Time(resp.RetryAfterUs)))
						continue
					}
					break
				}
				if think > 0 {
					tk := think
					if burstActive(cfg, lastDone) {
						tk = des.Time(float64(tk) / cfg.BurstFactor)
					}
					seq++
					h.GW.Sleep(name, seq, des.Time(rng.ExpFloat64()*float64(tk)))
				}
			}
		}()
	}
	wg.Wait()
	// Merge in tenant index order, then window order — deterministic.
	rep := &LoadReport{PerTenant: make([]TenantTotals, cfg.Tenants)}
	wins := make(map[int64]*winAgg)
	for i := range runs {
		tr := &runs[i]
		rep.PerTenant[i] = tr.totals
		rep.Issued += tr.totals.Issued
		rep.OK += tr.totals.OK
		rep.Limited += tr.totals.Limited
		rep.Overloaded += tr.totals.Overloaded
		rep.Failed += tr.totals.Failed
		rep.Retries += tr.retries
		if tr.aborted {
			rep.Aborted++
		}
		for idx, wa := range tr.wins {
			g := wins[idx]
			if g == nil {
				g = &winAgg{}
				wins[idx] = g
			}
			g.count += wa.count
			g.ok += wa.ok
			g.limited += wa.limited
			g.overloaded += wa.overloaded
			g.failed += wa.failed
			g.lats = append(g.lats, wa.lats...)
		}
	}
	idxs := make([]int64, 0, len(wins))
	for idx := range wins {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, idx := range idxs {
		g := wins[idx]
		w := Window{Index: idx, Count: g.count, OK: g.ok, Limited: g.limited,
			Overloaded: g.overloaded, Failed: g.failed,
			P99: des.Time(stats.NearestRank(g.lats, 99, 100))}
		rep.Windows = append(rep.Windows, w)
	}
	return rep, nil
}

// retryBackoff spreads a shared Retry-After hint. Clients honoring an
// identical hint verbatim wake at the same virtual instant and re-stampede
// the bucket in lockstep; each retry instead sleeps hint × [1.0, 1.5),
// drawn from the tenant's seeded RNG — deterministic across runs, but
// de-synchronized across tenants.
func retryBackoff(rng *rand.Rand, hint des.Time) des.Time {
	if hint <= 0 {
		return 0
	}
	return hint + des.Time(rng.Float64()*0.5*float64(hint))
}

// burstActive reports whether the square-wave burst overlay is in its hot
// half-period at virtual instant now.
func burstActive(cfg LoadConfig, now des.Time) bool {
	if cfg.BurstPeriod <= 0 || cfg.BurstFactor <= 1 {
		return false
	}
	phase := now - des.Time(int64(now/cfg.BurstPeriod))*cfg.BurstPeriod
	return phase < cfg.BurstPeriod/2
}

func (h *Harness) doOp(op, tenant string, seq uint64, off int64, count int) (apiResponse, error) {
	method, path := http.MethodGet, "/v1/vol/read"
	if op == "write" {
		method, path = http.MethodPost, "/v1/vol/write"
	}
	url := "http://mem" + path + "?off=" + strconv.FormatInt(off, 10) + "&count=" + strconv.Itoa(count)
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return apiResponse{}, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Seq", strconv.FormatUint(seq, 10))
	hr, err := h.Client.Do(req)
	if err != nil {
		return apiResponse{}, err
	}
	defer hr.Body.Close()
	var resp apiResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return apiResponse{}, fmt.Errorf("service: bad response body: %w", err)
	}
	return resp, nil
}
