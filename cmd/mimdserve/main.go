// Command mimdserve exposes the simulated array as a storage service.
//
// Three modes:
//
//	mimdserve                        serve the HTTP block API on -addr
//	mimdserve -load                  drive a deterministic multi-tenant load
//	                                 in-process and print the report
//	mimdserve -smoke                 tiny double-run determinism check
//	                                 (exit 1 on digest mismatch)
//
// Serve mode bridges real wall-clock HTTP clients onto the array's
// virtual clock (non-deterministic gateway mode):
//
//	mimdserve -addr localhost:8077 &
//	curl 'http://localhost:8077/v1/vol/read?off=0&count=8'
//	curl -XPOST 'http://localhost:8077/v1/vol/write?off=4096&count=16'
//	curl 'http://localhost:8077/v1/stats'
//
// Per-tenant rate limits (-rate/-burst, tenant = X-Tenant header) and the
// array's own admission control (-max-queue-depth) both surface as HTTP
// 429 with Retry-After.
//
// -slo attaches the per-tenant SLO control plane: tenants carry a tier
// (premium / standard / best-effort — name your live tenants with a
// "premium..." or "best..." X-Tenant prefix, the load generator's
// "t%05d" fleet is classified one premium and two each standard and
// best-effort per five), the controller judges windowed p99 against the
// -slo-*-ms targets, and under sustained violation it defers background
// work, then sheds best-effort, then standard — never premium. Brownout
// is visible in /v1/stats ("slo") and /healthz ("degraded: <level>");
// shed requests answer 429 with "shed: service brownout".
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/service"
	"repro/internal/slo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mimdserve:", err)
		os.Exit(1)
	}
}

// run parses args and runs one of the three modes, printing to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mimdserve", flag.ExitOnError)
	var (
		addr  = fs.String("addr", "localhost:8077", "serve mode: HTTP listen address")
		load  = fs.Bool("load", false, "run the deterministic load generator instead of serving")
		smoke = fs.Bool("smoke", false, "run a small load twice and verify byte-identical digests")

		ds     = fs.Int("ds", 8, "striping degree (Ds)")
		dr     = fs.Int("dr", 2, "rotational replicas (Dr)")
		dm     = fs.Int("dm", 1, "mirrors (Dm)")
		policy = fs.String("policy", "", "scheduler policy; empty picks the paper pairing (rsatf when Dr>1, else satf)")
		depth  = fs.Int("max-queue-depth", 8, "array admission control: shed when a target drive's queue reaches this (0 = off)")
		seed   = fs.Int64("seed", 1, "random seed")

		rate  = fs.Float64("rate", 0, "default per-tenant rate limit in requests per virtual second (0 = unlimited)")
		burst = fs.Float64("burst", 4, "default per-tenant burst")

		sloOn       = fs.Bool("slo", false, "attach the per-tenant SLO control plane (adaptive degradation + priority shedding)")
		sloWindowMs = fs.Float64("slo-window-ms", 100, "SLO evaluation window, virtual ms")
		sloPremMs   = fs.Float64("slo-premium-ms", 25, "premium p99 target, virtual ms (0 = unjudged)")
		sloStdMs    = fs.Float64("slo-standard-ms", 60, "standard p99 target, virtual ms (0 = unjudged)")
		sloBeMs     = fs.Float64("slo-besteffort-ms", 0, "best-effort p99 target, virtual ms (0 = unjudged)")
		sloViolate  = fs.Int("slo-violate", 3, "consecutive violating windows before escalating one brownout level")
		sloRecover  = fs.Int("slo-recover", 4, "consecutive compliant windows before stepping one level back")

		tenants  = fs.Int("tenants", 1000, "load mode: simulated tenants")
		requests = fs.Int("requests", 100000, "load mode: total HTTP requests")
		thinkMs  = fs.Float64("think-ms", 200, "load mode: mean per-tenant think time, virtual ms")
		retries  = fs.Int("retries", 2, "load mode: retries per operation after a 429")
		windowMs = fs.Float64("window-ms", 0, "load mode: report window in virtual ms (0 = auto)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := layout.Config{Ds: *ds, Dr: *dr, Dm: *dm}
	pol := *policy
	if pol == "" {
		pol = "satf"
		if cfg.Dr > 1 {
			pol = "rsatf"
		}
	}
	ms := func(v float64) des.Time { return des.Time(v * float64(des.Millisecond)) }
	build := func() (*core.Array, *slo.Controller, error) {
		a, err := core.New(des.New(), core.Options{
			Config: cfg, Policy: pol, Seed: *seed, MaxQueueDepth: *depth,
			// Arm the power switch so /v1/admin/crash and /v1/admin/recover
			// work over the wire.
			Crash: core.CrashModel{Enabled: true, Durability: core.BatteryBacked},
		})
		if err != nil {
			return nil, nil, err
		}
		if !*sloOn {
			return a, nil, nil
		}
		var targets [slo.NumTiers]des.Time
		targets[slo.Premium] = ms(*sloPremMs)
		targets[slo.Standard] = ms(*sloStdMs)
		targets[slo.BestEffort] = ms(*sloBeMs)
		ctl, err := slo.New(a, slo.Options{
			Window:         ms(*sloWindowMs),
			Targets:        targets,
			ViolateWindows: *sloViolate,
			RecoverWindows: *sloRecover,
			Classify:       tierOf,
		})
		if err != nil {
			return nil, nil, err
		}
		return a, ctl, nil
	}
	limits := service.Limits{Default: service.TenantLimit{Rate: *rate, Burst: *burst}}

	switch {
	case *smoke:
		return runSmoke(stdout, build, limits)
	case *load:
		return runLoad(stdout, build, limits, service.LoadConfig{
			Tenants:    *tenants,
			Requests:   *requests,
			Seed:       *seed,
			ThinkMean:  ms(*thinkMs),
			MaxRetries: *retries,
			Window:     ms(*windowMs),
		})
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	defer signal.Stop(stop)
	return serve(stdout, build, limits, *addr, stop)
}

// tierOf classifies a tenant: explicit "premium..."/"best..." name
// prefixes for live HTTP tenants, index modulo five for the load
// generator's "t%05d" fleet (one premium, two standard, two best-effort
// in every five tenants), standard otherwise.
func tierOf(name string) slo.Tier {
	switch {
	case strings.HasPrefix(name, "premium"):
		return slo.Premium
	case strings.HasPrefix(name, "best"):
		return slo.BestEffort
	}
	if i, err := strconv.Atoi(strings.TrimPrefix(name, "t")); err == nil && i >= 0 {
		switch i % 5 {
		case 0:
			return slo.Premium
		case 1, 2:
			return slo.Standard
		default:
			return slo.BestEffort
		}
	}
	return slo.Standard
}

type buildFn func() (*core.Array, *slo.Controller, error)

// serve runs the real-time HTTP front-end until stop delivers.
func serve(stdout io.Writer, build buildFn, limits service.Limits, addr string, stop <-chan os.Signal) error {
	a, ctl, err := build()
	if err != nil {
		return err
	}
	gw := service.NewGateway(a, service.Config{Limits: limits, SLO: ctl})
	runErr := make(chan error, 1)
	go func() { runErr <- gw.Run() }()
	srv := &http.Server{Addr: addr, Handler: service.NewServer(gw)}
	mode := ""
	if ctl != nil {
		mode = " (SLO control plane on)"
	}
	fmt.Fprintf(stdout, "mimdserve: serving %d sectors over %d disks on http://%s%s\n", a.DataSectors(), a.Disks(), addr, mode)
	fmt.Fprintf(stdout, "  curl 'http://%s/v1/vol/read?off=0&count=8'\n", addr)
	fmt.Fprintf(stdout, "  curl -XPOST 'http://%s/v1/vol/write?off=4096&count=16'\n", addr)
	fmt.Fprintf(stdout, "  curl 'http://%s/v1/stats'\n", addr)

	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	select {
	case err := <-srvErr:
		gw.Close()
		<-runErr
		return err
	case <-stop:
	}
	_ = srv.Close()
	gw.Close()
	if err := <-runErr; err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	fmt.Fprintln(stdout, "mimdserve: drained, bye")
	return nil
}

// runOnce builds a fresh stack and drives one deterministic load.
func runOnce(build buildFn, limits service.Limits, lc service.LoadConfig) (*service.LoadReport, service.Stats, string, error) {
	a, ctl, err := build()
	if err != nil {
		return nil, service.Stats{}, "", err
	}
	h := service.NewHarness(a, service.Config{Deterministic: true, Limits: limits, SLO: ctl})
	lc.Sectors = a.DataSectors()
	rep, err := h.RunLoad(lc)
	if err != nil {
		_ = h.Close()
		return nil, service.Stats{}, "", err
	}
	st := h.GW.Stats()
	if err := h.Close(); err != nil {
		return nil, service.Stats{}, "", err
	}
	// The SLO snapshot folds into the smoke digest so a nondeterministic
	// controller cannot hide behind an identical load report.
	sloState := ""
	if ctl != nil {
		sloState = ctl.State().String()
	}
	return rep, st, sloState, nil
}

func printReport(stdout io.Writer, rep *service.LoadReport, st service.Stats, sloState string) {
	fmt.Fprintf(stdout, "issued %d: ok %d, rate-limited 429 %d, overloaded 429 %d, shed 429 %d, failed %d (retries %d, sleeps %d)\n",
		rep.Issued, rep.OK, rep.Limited, rep.Overloaded, st.Shed, rep.Failed, rep.Retries, st.Sleeps)
	if sloState != "" {
		fmt.Fprintf(stdout, "slo: %s\n", sloState)
	}
	fmt.Fprintf(stdout, "windows %d, digest sha256 %x\n", len(rep.Windows), sha256.Sum256([]byte(rep.Digest()+sloState)))
}

func runLoad(stdout io.Writer, build buildFn, limits service.Limits, lc service.LoadConfig) error {
	rep, st, sloState, err := runOnce(build, limits, lc)
	if err != nil {
		return err
	}
	printReport(stdout, rep, st, sloState)
	if rep.Aborted > 0 {
		return fmt.Errorf("%d tenants aborted", rep.Aborted)
	}
	return nil
}

// runSmoke drives a small load twice and demands byte-identical digests —
// the check scripts/check.sh wires into CI.
func runSmoke(stdout io.Writer, build buildFn, limits service.Limits) error {
	if limits.Default.Rate == 0 {
		limits.Default = service.TenantLimit{Rate: 8, Burst: 4}
	}
	lc := service.LoadConfig{
		Tenants: 200, Requests: 5000, Seed: 1,
		ThinkMean: 100 * des.Millisecond, MaxRetries: 2,
	}
	var digests [2]string
	for i := range digests {
		rep, st, sloState, err := runOnce(build, limits, lc)
		if err != nil {
			return fmt.Errorf("smoke run %d: %w", i+1, err)
		}
		if i == 0 {
			printReport(stdout, rep, st, sloState)
		}
		if rep.Aborted > 0 || rep.OK == 0 {
			return fmt.Errorf("smoke run %d unhealthy: ok=%d aborted=%d", i+1, rep.OK, rep.Aborted)
		}
		digests[i] = rep.Digest() + sloState
	}
	if digests[0] != digests[1] {
		return fmt.Errorf("SMOKE FAIL: digests differ across identical runs")
	}
	fmt.Fprintln(stdout, "mimdserve: smoke ok (byte-identical digests)")
	return nil
}
