package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
)

// testCluster builds a colocated 3-brick R=2 replicated volume for the
// gateway to front. The returned sim is only safe to touch before the
// harness starts (pre-arming fault events) or after it closes.
func testCluster(t *testing.T) (*des.Sim, *cluster.Cluster, []core.Volume) {
	t.Helper()
	sim := des.New()
	bricks := make([]core.Volume, 3)
	for i := range bricks {
		a, err := core.New(sim, core.Options{
			Config: layout.SRArray(2, 2), Policy: "rsatf",
			DataSectors: 1 << 14, Seed: int64(i + 1),
			Crash: core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
		})
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		bricks[i] = a
	}
	cl, err := cluster.New(sim, bricks, cluster.Options{
		Replicas: 2, ExtentSectors: 512, Seed: 42, BackfillMBps: 256,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return sim, cl, bricks
}

// TestRealTimeClusterBrickCrash fronts a replicated cluster with the
// real-time gateway and crashes one brick mid-flight: every client call
// must still return 200 — the outage is absorbed by read failover and
// quorum writes, never surfaced — and after the drain the divergence
// counters reconcile exactly.
func TestRealTimeClusterBrickCrash(t *testing.T) {
	sim, cl, bricks := testCluster(t)
	// Pre-arm the outage on the virtual clock: crash early enough to land
	// under traffic, recover late enough that backfill runs in the drain.
	sim.At(3*des.Millisecond, func() {
		if err := bricks[1].Crash(); err != nil {
			t.Errorf("Crash: %v", err)
		}
	})
	sim.At(80*des.Millisecond, func() {
		if err := bricks[1].Recover(); err != nil {
			t.Errorf("Recover: %v", err)
		}
	})
	h := NewHarness(cl, Config{})
	const tenants, per = 8, 30
	var wg sync.WaitGroup
	bad := make(chan string, tenants*per)
	for i := 0; i < tenants; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				op, method := "read", http.MethodGet
				if n%3 == 0 {
					op, method = "write", http.MethodPost
				}
				off := strconv.Itoa(512 * ((i*per + n) % 24))
				hr, body := h.get(t, method, "http://mem/v1/vol/"+op+"?off="+off+"&count=8",
					map[string]string{"X-Tenant": "c" + strconv.Itoa(i)})
				if hr.StatusCode != 200 {
					bad <- op + " -> " + hr.Status + ": " + string(body)
					return
				}
			}
		}()
	}
	wg.Wait()
	// One brick dark is not a crashed service: healthz stays green.
	if hr, body := h.get(t, http.MethodGet, "http://mem/healthz", nil); hr.StatusCode != 200 {
		t.Errorf("healthz during single-brick outage: %d %q", hr.StatusCode, body)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(bad)
	for e := range bad {
		t.Fatalf("client saw the brick outage: %s", e)
	}
	ctr := cl.Counters()
	if ctr.Trips == 0 {
		t.Fatal("breaker never tripped; the crash landed after traffic ended")
	}
	if ctr.ReadFailovers == 0 && ctr.Diverged == 0 {
		t.Fatal("no failovers and no divergence; outage exercised nothing")
	}
	if ctr.AllDown != 0 {
		t.Fatalf("%d submissions saw all replicas down with two bricks healthy", ctr.AllDown)
	}
	if ctr.Diverged != ctr.Backfilled+ctr.Abandoned {
		t.Fatalf("counters do not reconcile after drain: Diverged=%d Backfilled=%d Abandoned=%d",
			ctr.Diverged, ctr.Backfilled, ctr.Abandoned)
	}
	if n := cl.DivergencePending(); n != 0 {
		t.Fatalf("%d divergence entries survived the drain", n)
	}
}

// TestRealTimeClusterGracefulDrain closes the gateway while tenants are
// mid-loop against the replicated volume: every call resolves (200 or a
// clean gateway-closed 503), and the shutdown drain settles the cluster's
// background machinery.
func TestRealTimeClusterGracefulDrain(t *testing.T) {
	_, cl, _ := testCluster(t)
	h := NewHarness(cl, Config{})
	const tenants, per = 6, 20
	results := make(chan Response, tenants*per)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < per; n++ {
				op := core.Read
				if n%4 == 0 {
					op = core.Write
				}
				results <- h.GW.Do(Request{
					Tenant: "d" + strconv.Itoa(i), Seq: uint64(n),
					Op: op, Off: int64(512 * i), Count: 8,
				})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	close(results)
	var ok, closed int
	for r := range results {
		switch {
		case r.Status == StatusOK:
			ok++
		case r.Status == StatusUnavailable && strings.Contains(r.Err, "closed"):
			closed++
		default:
			t.Fatalf("drain left a call in state %+v", r)
		}
	}
	if ok+closed != tenants*per {
		t.Fatalf("resolved %d+%d of %d calls", ok, closed, tenants*per)
	}
	if ok == 0 {
		t.Fatal("no call completed before Close; drain path exercised nothing")
	}
	if !cl.Idle() {
		t.Fatal("cluster not idle after gateway drain")
	}
}

// TestUnavailableRetryAfterHint pins the 503 half of the Retry-After
// contract: a crashed-volume rejection carries the 5ms hint in the
// same three places the 429 path does (Retry-After, X-Retry-After-Us,
// body), while gateway-closed 503s stay hintless.
func TestUnavailableRetryAfterHint(t *testing.T) {
	vol := testVolume(t, func(o *core.Options) {
		o.Crash = core.CrashModel{Enabled: true, Durability: core.BatteryBacked}
	})
	h := NewHarness(vol, Config{})
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if hr, body := h.get(t, http.MethodPost, "http://mem/v1/admin/crash", nil); hr.StatusCode != 200 {
		t.Fatalf("crash: %d %s", hr.StatusCode, body)
	}
	hr, body := h.get(t, http.MethodGet, "http://mem/v1/vol/read?off=0&count=8", nil)
	if hr.StatusCode != StatusUnavailable {
		t.Fatalf("read on crashed volume: %d %s", hr.StatusCode, body)
	}
	if got := hr.Header.Get("Retry-After"); got != "0" {
		t.Errorf("Retry-After %q, want 0 (floor of 5ms)", got)
	}
	us, err := strconv.ParseFloat(hr.Header.Get("X-Retry-After-Us"), 64)
	if err != nil || us != 5000 {
		t.Errorf("X-Retry-After-Us %q, want 5000", hr.Header.Get("X-Retry-After-Us"))
	}
	var resp apiResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.RetryAfterUs != us {
		t.Errorf("body hint %v != header hint %v (err %v)", resp.RetryAfterUs, us, err)
	}
	if hr, body := h.get(t, http.MethodPost, "http://mem/v1/admin/recover", nil); hr.StatusCode != 200 {
		t.Fatalf("recover: %d %s", hr.StatusCode, body)
	}
}
