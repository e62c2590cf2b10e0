package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// testVolume builds a small SR-Array on a fresh simulator.
func testVolume(t *testing.T, mod func(*core.Options)) *core.Array {
	t.Helper()
	sim := des.New()
	o := core.Options{
		Config:      layout.SRArray(2, 2),
		Policy:      "rsatf",
		DataSectors: 1 << 16,
		Seed:        1,
	}
	if mod != nil {
		mod(&o)
	}
	a, err := core.New(sim, o)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return a
}

// get issues a raw HTTP request through the harness client.
func (h *Harness) get(t *testing.T, method, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	hr, err := h.Client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return hr, body
}

// TestServerHTTP drives the full stack — client transport, wire format,
// handlers, gateway, simulator — in real-time (non-deterministic) mode:
// reads, writes, input validation, stats, and the crash/recover admin
// path surfacing 503.
func TestServerHTTP(t *testing.T) {
	vol := testVolume(t, func(o *core.Options) {
		o.Crash = core.CrashModel{Enabled: true, Durability: core.BatteryBacked}
	})
	h := NewHarness(vol, Config{})
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	if a := h.ln.Addr(); a.Network() != "mem" || a.String() != "mem" {
		t.Fatalf("listener address %s/%s, want mem/mem", a.Network(), a)
	}

	// healthz.
	hr, body := h.get(t, http.MethodGet, "http://mem/healthz", nil)
	if hr.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", hr.StatusCode, body)
	}

	// A read and a write, both 200 with sane virtual timestamps.
	for _, tc := range []struct{ method, url string }{
		{http.MethodGet, "http://mem/v1/vol/read?off=0&count=8"},
		{http.MethodPost, "http://mem/v1/vol/write?off=4096&count=16"},
	} {
		hr, body := h.get(t, tc.method, tc.url, map[string]string{"X-Tenant": "curl", "X-Seq": "1"})
		if hr.StatusCode != 200 {
			t.Fatalf("%s %s: status %d body %s", tc.method, tc.url, hr.StatusCode, body)
		}
		var resp apiResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
		if resp.Status != 200 || resp.LatencyUs <= 0 || resp.DoneUs < resp.SubmitUs {
			t.Fatalf("bad response: %+v", resp)
		}
	}

	// Method and parameter validation.
	if hr, _ := h.get(t, http.MethodPost, "http://mem/v1/vol/read?off=0", nil); hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST read: got %d, want 405", hr.StatusCode)
	}
	if hr, _ := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=nope", nil); hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad off: got %d, want 400", hr.StatusCode)
	}
	// Out-of-range offset: rejected by the array at submit, as a 400.
	if hr, _ := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=999999999&count=8", nil); hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range read: got %d, want 400", hr.StatusCode)
	}

	// Stats reflect the traffic so far.
	hr, body = h.get(t, http.MethodGet, "http://mem/v1/stats", nil)
	if hr.StatusCode != 200 {
		t.Fatalf("stats: %d %s", hr.StatusCode, body)
	}
	var stats statsPayload
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if stats.Gateway.OK < 2 || stats.Gateway.BadRequest < 1 {
		t.Fatalf("stats counters off: %+v", stats.Gateway)
	}
	if stats.Crashed {
		t.Fatalf("not crashed yet: %+v", stats)
	}

	// Crash: I/O answers 503; recover: it works again.
	if hr, body := h.get(t, http.MethodPost, "http://mem/v1/admin/crash", nil); hr.StatusCode != 200 {
		t.Fatalf("crash: %d %s", hr.StatusCode, body)
	}
	hr, body = h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=0&count=8", nil)
	if hr.StatusCode != StatusUnavailable {
		t.Fatalf("read while crashed: got %d body %s, want 503", hr.StatusCode, body)
	}
	var down apiResponse
	if err := json.Unmarshal(body, &down); err != nil || !strings.Contains(down.Error, "crash") {
		t.Fatalf("crashed error body: %q err %v", body, err)
	}
	if hr, body := h.get(t, http.MethodPost, "http://mem/v1/admin/recover", nil); hr.StatusCode != 200 {
		t.Fatalf("recover: %d %s", hr.StatusCode, body)
	}
	if hr, body := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=0&count=8", nil); hr.StatusCode != 200 {
		t.Fatalf("read after recover: %d %s", hr.StatusCode, body)
	}
}

// TestRateLimited429 exercises the token-bucket layer over the wire: a
// tightly limited tenant's burst draws 429s carrying both Retry-After
// forms, while an unlimited tenant is untouched.
func TestRateLimited429(t *testing.T) {
	vol := testVolume(t, nil)
	h := NewHarness(vol, Config{Limits: Limits{
		PerTenant: map[string]TenantLimit{"slow": {Rate: 10, Burst: 2}},
	}})
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var ok, limited int
	for i := 0; i < 6; i++ {
		hr, body := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=0&count=8",
			map[string]string{"X-Tenant": "slow"})
		switch hr.StatusCode {
		case 200:
			ok++
		case StatusTooMany:
			limited++
			if hr.Header.Get("Retry-After") == "" || hr.Header.Get("X-Retry-After-Us") == "" {
				t.Fatalf("429 without Retry-After headers: %v", hr.Header)
			}
			var resp apiResponse
			if err := json.Unmarshal(body, &resp); err != nil || resp.RetryAfterUs <= 0 {
				t.Fatalf("429 body %q: %v", body, err)
			}
		default:
			t.Fatalf("unexpected status %d: %s", hr.StatusCode, body)
		}
	}
	// Burst 2 admits the first two; each read takes well under 100ms of
	// virtual time so at most one refill token can appear mid-loop.
	if ok < 2 || limited < 3 {
		t.Fatalf("ok=%d limited=%d, want >=2 / >=3", ok, limited)
	}
	for i := 0; i < 6; i++ {
		if hr, body := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=0&count=8",
			map[string]string{"X-Tenant": "fast"}); hr.StatusCode != 200 {
			t.Fatalf("unlimited tenant: %d %s", hr.StatusCode, body)
		}
	}
	st := h.GW.Stats()
	if st.RateLimited < 3 || st.OK < 8 {
		t.Fatalf("gateway stats: %+v", st)
	}
}

// TestAllowArithmetic unit-tests the bucket math directly: burst capping,
// linear refill against the virtual clock, and the Retry-After quote.
func TestAllowArithmetic(t *testing.T) {
	vol := testVolume(t, nil)
	g := NewGateway(vol, Config{Limits: Limits{
		Default: TenantLimit{Rate: 100, Burst: 3},
	}})
	// Burst admits 3 back-to-back at t=0, then rejects.
	for i := 0; i < 3; i++ {
		if ra, ok := g.allow("t", 0); !ok {
			t.Fatalf("burst draw %d rejected (retryAfter %v)", i, ra)
		}
	}
	ra, ok := g.allow("t", 0)
	if ok {
		t.Fatalf("4th draw admitted past burst")
	}
	// Empty bucket at rate 100/s: one token in 10ms.
	if want := 10 * des.Millisecond; ra < want-des.Microsecond || ra > want+des.Microsecond {
		t.Fatalf("retryAfter = %v, want ~%v", ra, want)
	}
	// Refill is linear: at t=5ms there is half a token — still rejected,
	// with half the wait quoted.
	ra, ok = g.allow("t", 5*des.Millisecond)
	if ok || ra < 5*des.Millisecond-des.Microsecond || ra > 5*des.Millisecond+des.Microsecond {
		t.Fatalf("half refill: ok=%v retryAfter=%v", ok, ra)
	}
	// After a long idle stretch the bucket caps at burst, not rate×idle.
	for i := 0; i < 3; i++ {
		if _, ok := g.allow("t", des.Second); !ok {
			t.Fatalf("post-idle draw %d rejected", i)
		}
	}
	if _, ok := g.allow("t", des.Second); ok {
		t.Fatalf("burst cap not enforced after idle")
	}
	// Rate 0 disables limiting entirely.
	g2 := NewGateway(vol, Config{})
	for i := 0; i < 100; i++ {
		if _, ok := g2.allow("t", 0); !ok {
			t.Fatalf("unlimited gateway rejected")
		}
	}
}

// TestDeterministicDigest is the tentpole's core property: the same
// multi-tenant load, driven twice over the real HTTP stack against fresh
// identical arrays, produces byte-identical reports — windows, per-tenant
// tallies, retries, everything — no matter how the OS schedules the
// tenant goroutines. The load is sized to exercise both 429 paths (token
// bucket and array admission control).
func TestDeterministicDigest(t *testing.T) {
	run := func() (string, Stats, core.ShedCounters) {
		vol := testVolume(t, func(o *core.Options) { o.MaxQueueDepth = 3 })
		h := NewHarness(vol, Config{
			Deterministic: true,
			Limits:        Limits{Default: TenantLimit{Rate: 400, Burst: 3}},
		})
		rep, err := h.RunLoad(LoadConfig{
			Tenants:    24,
			Requests:   720,
			Sectors:    vol.DataSectors(),
			Seed:       7,
			ThinkMean:  2 * des.Millisecond,
			MaxRetries: 2,
			Window:     50 * des.Millisecond,
		})
		if err != nil {
			t.Fatalf("RunLoad: %v", err)
		}
		stats := h.GW.Stats()
		sheds := vol.Sheds()
		if err := h.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if rep.Aborted != 0 {
			t.Fatalf("aborted tenants: %d", rep.Aborted)
		}
		return rep.Digest(), stats, sheds
	}
	d1, s1, sh1 := run()
	d2, s2, sh2 := run()
	if d1 != d2 {
		t.Fatalf("digests differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", d1, d2)
	}
	if s1 != s2 {
		t.Fatalf("gateway stats differ: %+v vs %+v", s1, s2)
	}
	if sh1 != sh2 {
		t.Fatalf("shed counters differ: %+v vs %+v", sh1, sh2)
	}
	// The load must actually have exercised the interesting paths.
	first := strings.SplitN(d1, "\n", 2)[0]
	if s1.OK == 0 || s1.RateLimited == 0 || s1.Overloaded == 0 {
		t.Fatalf("load missed a 429 path: %+v (digest %s)", s1, first)
	}
	if sh1.Overload != s1.Overloaded {
		t.Fatalf("array sheds %d != gateway overload 429s %d", sh1.Overload, s1.Overloaded)
	}
}

// TestGatewayCloseRejects: calls against a closed gateway answer 503
// immediately, and Run exits cleanly.
func TestGatewayCloseRejects(t *testing.T) {
	vol := testVolume(t, nil)
	h := NewHarness(vol, Config{})
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	resp := h.GW.Do(Request{Tenant: "t", Op: core.Read, Off: 0, Count: 8})
	if resp.Status != StatusUnavailable || !strings.Contains(resp.Err, "closed") {
		t.Fatalf("Do after close: %+v", resp)
	}
	if resp := h.GW.Admin(func() error { return nil }); resp.Status != StatusUnavailable {
		t.Fatalf("Admin after close: %+v", resp)
	}
}

// deafVolume accepts every I/O but never reports a completion.
type deafVolume struct{ *core.Array }

func (v deafVolume) SubmitBatchErrs(ops []core.BatchOp) ([]error, int) {
	for i := range ops {
		ops[i].Done = nil
	}
	return v.Array.SubmitBatchErrs(ops)
}

// TestGatewayStalled: a caller waiting on a completion the simulator will
// never deliver is failed with ErrGatewayStalled instead of hanging, and
// Run returns the same error.
func TestGatewayStalled(t *testing.T) {
	g := NewGateway(deafVolume{testVolume(t, nil)}, Config{})
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run() }()
	resp := g.Do(Request{Tenant: "t", Op: core.Read, Off: 0, Count: 8})
	if resp.Status != StatusUnavailable || resp.Err != ErrGatewayStalled.Error() {
		t.Fatalf("Do on a stalled gateway: %+v", resp)
	}
	if err := <-runErr; !errors.Is(err, ErrGatewayStalled) {
		t.Fatalf("Run = %v, want ErrGatewayStalled", err)
	}
}
