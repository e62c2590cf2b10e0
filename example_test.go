package mimdraid_test

import (
	"fmt"
	"math/rand"

	mimdraid "repro"
)

// Build a six-disk SR-Array (2-way striping x 3 rotational replicas) and
// read from it, then drive it with a read-mostly closed loop and compare
// against plain striping and RAID-10 on the same spindle budget.
func Example() {
	sim := mimdraid.NewSim()
	arr, err := mimdraid.New(sim, mimdraid.Options{
		Config:      mimdraid.SRArray(2, 3), // 2-way stripe x 3 rotational replicas
		DataSectors: 1 << 21,
		Seed:        1,
	})
	if err != nil {
		panic(err)
	}
	if err := arr.Read(4096, 8, func(r mimdraid.Result) {
		fmt.Printf("read %d sectors on a %v array\n", r.Count, arr.Layout().Cfg)
	}); err != nil {
		panic(err)
	}
	sim.Run()

	// The workload of the paper's micro-benchmarks: small requests, seek
	// locality index 3, read-mostly.
	load := mimdraid.ClosedLoop{
		ReadFrac:    0.9,
		Sectors:     8, // 4 KB
		Outstanding: 2,
		Locality:    3,
		Seed:        7,
	}
	fmt.Println("Six disks, three ways to configure them:")
	for _, cfg := range []mimdraid.Config{
		mimdraid.SRArray(2, 3), // the paper's model picks 2x3 for loads like this
		mimdraid.RAID10(6),     // 3-way stripe, 2-way mirror
		mimdraid.Striping(6),   // conventional striping
	} {
		sim := mimdraid.NewSim()
		arr, err := mimdraid.New(sim, mimdraid.Options{Config: cfg, Seed: 42})
		if err != nil {
			panic(err)
		}
		res, err := mimdraid.RunClosedLoop(sim, arr, load, 3000)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-6s  mean %8v   p95 %8v   %6.0f IOPS\n",
			cfg, res.Mean, res.P95, res.IOPS)
	}

	// And the model agrees before any simulation runs:
	spec := mimdraid.ST39133LWV()
	w := mimdraid.Workload{P: 1, Q: 1, L: 3}
	rec, err := mimdraid.Recommend(spec, 6, w)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nmodel recommendation for 6 disks at L=3: %v "+
		"(predicted overhead-independent latency %v vs %v for striping)\n",
		rec,
		mimdraid.PredictLatency(spec, rec, w),
		mimdraid.PredictLatency(spec, mimdraid.Striping(6), w))
	// Output:
	// read 8 sectors on a 2x3x1 array
	// Six disks, three ways to configure them:
	//   2x3x1   mean  5.082ms   p95  9.422ms      393 IOPS
	//   3x1x2   mean  5.626ms   p95  9.309ms      355 IOPS
	//   6x1x1   mean  5.802ms   p95  9.576ms      345 IOPS
	//
	// model recommendation for 6 disks at L=3: 2x3x1 (predicted overhead-independent latency 1.583ms vs 3.194ms for striping)
}

// Answer the paper's "aspect ratio question": given a budget of disks and
// a workload profile, how should the array trade capacity for
// performance? Sweep disk budgets and workload parameters and print the
// model-recommended configuration with its predicted latency (Section 2's
// models, including the integer-factor and Dr <= 6 constraints). A
// read-mostly file-system workload gets rotational replicas; one
// dominated by foreground writes cannot benefit from them.
func ExampleRecommend() {
	spec := mimdraid.ST39133LWV()
	recommend := func(d int, w mimdraid.Workload) mimdraid.Config {
		cfg, err := mimdraid.Recommend(spec, d, w)
		if err != nil {
			panic(err)
		}
		return cfg
	}

	fmt.Println("Recommended Ds x Dr x Dm per disk budget and workload")
	fmt.Println("(p = fraction of I/Os not forcing foreground propagation,")
	fmt.Println(" q = per-disk queue length, L = seek locality index)")
	fmt.Println()

	workloads := []struct {
		name string
		w    mimdraid.Workload
	}{
		{"file system (Cello base: L=4.14)", mimdraid.Workload{P: 1, Q: 1, L: 4.14}},
		{"news spool (Cello disk6: L=16.67)", mimdraid.Workload{P: 1, Q: 1, L: 16.67}},
		{"OLTP (TPC-C: L=1.04)", mimdraid.Workload{P: 1, Q: 1, L: 1.04}},
		{"OLTP, busy (q=8 per disk)", mimdraid.Workload{P: 1, Q: 8, L: 1.04}},
		{"write-heavy, no idle (p=0.6)", mimdraid.Workload{P: 0.6, Q: 1, L: 1.04}},
		{"write-dominated (p=0.4)", mimdraid.Workload{P: 0.4, Q: 1, L: 1.04}},
	}
	for _, wl := range workloads {
		fmt.Printf("%s\n", wl.name)
		fmt.Printf("  %-8s %-10s %-14s %-14s %s\n", "disks", "config", "predicted", "striping", "speedup")
		for _, d := range []int{2, 4, 6, 9, 12, 24, 36} {
			cfg := recommend(d, wl.w)
			pred := mimdraid.PredictLatency(spec, cfg, wl.w)
			stripe := mimdraid.PredictLatency(spec, mimdraid.Striping(d), wl.w)
			fmt.Printf("  %-8d %-10v %-14v %-14v %.2fx\n", d, cfg, pred, stripe, float64(stripe)/float64(pred))
		}
		fmt.Println()
	}

	fmt.Println("Rule of thumb (Section 2.6): with D disks, the overhead-independent")
	fmt.Println("part of the response time improves by about sqrt(D):")
	w := mimdraid.Workload{P: 1, Q: 1, L: 1}
	base := mimdraid.PredictLatency(spec, recommend(1, w), w)
	for _, d := range []int{1, 4, 9, 16, 36} {
		cfg := recommend(d, w)
		pred := mimdraid.PredictLatency(spec, cfg, w)
		fmt.Printf("  D=%-3d %-8v latency %-10v improvement %.2fx\n", d, cfg, pred, float64(base)/float64(pred))
	}
	// Output:
	// Recommended Ds x Dr x Dm per disk budget and workload
	// (p = fraction of I/Os not forcing foreground propagation,
	//  q = per-disk queue length, L = seek locality index)
	//
	// file system (Cello base: L=4.14)
	//   disks    config     predicted      striping       speedup
	//   2        1x2x1      2.345ms        3.423ms        1.46x
	//   4        2x2x1      1.923ms        3.211ms        1.67x
	//   6        2x3x1      1.423ms        3.141ms        2.21x
	//   9        3x3x1      1.282ms        3.094ms        2.41x
	//   12       2x6x1      922.7us        3.070ms        3.33x
	//   24       4x6x1      711.4us        3.035ms        4.27x
	//   36       6x6x1      640.9us        3.023ms        4.72x
	//
	// news spool (Cello disk6: L=16.67)
	//   disks    config     predicted      striping       speedup
	//   2        1x2x1      1.710ms        3.105ms        1.82x
	//   4        1x4x1      960.0us        3.052ms        3.18x
	//   6        1x6x1      710.0us        3.035ms        4.27x
	//   9        3x3x1      1.070ms        3.023ms        2.83x
	//   12       2x6x1      605.0us        3.017ms        4.99x
	//   24       4x6x1      552.5us        3.009ms        5.45x
	//   36       6x6x1      535.0us        3.006ms        5.62x
	//
	// OLTP (TPC-C: L=1.04)
	//   disks    config     predicted      striping       speedup
	//   2        2x1x1      4.683ms        4.683ms        1.00x
	//   4        4x1x1      3.841ms        3.841ms        1.00x
	//   6        3x2x1      2.622ms        3.561ms        1.36x
	//   9        9x1x1      3.374ms        3.374ms        1.00x
	//   12       4x3x1      1.841ms        3.280ms        1.78x
	//   24       6x4x1      1.311ms        3.140ms        2.40x
	//   36       9x4x1      1.124ms        3.093ms        2.75x
	//
	// OLTP, busy (q=8 per disk)
	//   disks    config     predicted      striping       speedup
	//   2        1x2x1      2.762ms        3.631ms        1.31x
	//   4        2x2x1      2.131ms        3.316ms        1.56x
	//   6        2x3x1      1.631ms        3.210ms        1.97x
	//   9        3x3x1      1.421ms        3.140ms        2.21x
	//   12       3x4x1      1.171ms        3.105ms        2.65x
	//   24       4x6x1      815.5us        3.053ms        3.74x
	//   36       6x6x1      710.3us        3.035ms        4.27x
	//
	// write-heavy, no idle (p=0.6)
	//   disks    config     predicted      striping       speedup
	//   2        2x1x1      4.683ms        4.683ms        1.00x
	//   4        4x1x1      3.841ms        3.841ms        1.00x
	//   6        6x1x1      3.561ms        3.561ms        1.00x
	//   9        9x1x1      3.374ms        3.374ms        1.00x
	//   12       12x1x1     3.280ms        3.280ms        1.00x
	//   24       12x2x1     2.980ms        3.140ms        1.05x
	//   36       18x2x1     2.887ms        3.093ms        1.07x
	//
	// write-dominated (p=0.4)
	//   disks    config     predicted      striping       speedup
	//   2        2x1x1      4.683ms        4.683ms        1.00x
	//   4        4x1x1      3.841ms        3.841ms        1.00x
	//   6        6x1x1      3.561ms        3.561ms        1.00x
	//   9        9x1x1      3.374ms        3.374ms        1.00x
	//   12       12x1x1     3.280ms        3.280ms        1.00x
	//   24       24x1x1     3.140ms        3.140ms        1.00x
	//   36       36x1x1     3.093ms        3.093ms        1.00x
	//
	// Rule of thumb (Section 2.6): with D disks, the overhead-independent
	// part of the response time improves by about sqrt(D):
	//   D=1   1x1x1    latency 6.500ms    improvement 1.00x
	//   D=4   4x1x1    latency 3.875ms    improvement 1.68x
	//   D=9   9x1x1    latency 3.389ms    improvement 1.92x
	//   D=16  8x2x1    latency 1.938ms    improvement 3.35x
	//   D=36  9x4x1    latency 1.139ms    improvement 5.71x
}

// Generate a synthetic file-system trace with the published Cello
// statistics and replay it, open loop, at its original timestamps and at
// accelerated rates on five six-disk configurations (the macro
// experiments of paper Section 4.1).
func ExampleReplay() {
	const ios = 3000
	tr := mimdraid.CelloBaseTrace(1, ios)
	st := tr.ComputeStats()
	fmt.Printf("synthetic Cello-base trace: %d I/Os, %.2f/s, %.0f%% reads, L=%.1f\n\n",
		st.IOs, st.AvgIOPS, st.ReadFrac*100, st.SeekLocality)

	configs := []mimdraid.Config{
		mimdraid.SRArray(2, 3),
		mimdraid.SRArray(1, 6),
		mimdraid.RAID10(6),
		mimdraid.Striping(6),
		mimdraid.Mirror(6),
	}
	for _, rate := range []float64{1, 8, 24} {
		fmt.Printf("trace at %gx original speed:\n", rate)
		scaled := tr.Scale(rate)
		for _, cfg := range configs {
			sim := mimdraid.NewSim()
			arr, err := mimdraid.New(sim, mimdraid.Options{
				Config:      cfg,
				Seed:        3,
				DataSectors: tr.DataSectors,
			})
			if err != nil {
				panic(err)
			}
			res, err := mimdraid.Replay(sim, arr, scaled)
			if err != nil {
				panic(err)
			}
			if res.Saturated {
				fmt.Printf("  %-6s  saturated (offered load exceeds sustainable throughput)\n", cfg)
				continue
			}
			fmt.Printf("  %-6s  mean %8v   p95 %8v   max %8v\n", cfg, res.Mean, res.P95, res.Max)
		}
		fmt.Println()
	}
	fmt.Println("The 2x3 SR-Array has the lowest mean and p95 at every rate, and none")
	fmt.Println("of the five configurations saturates, even at 24x.")
	// Output:
	// synthetic Cello-base trace: 2054 I/Os, 1.95/s, 55% reads, L=3.9
	//
	// trace at 1x original speed:
	//   2x3x1   mean  4.513ms   p95  8.403ms   max 27.014ms
	//   1x6x1   mean  5.003ms   p95 10.147ms   max 20.098ms
	//   3x1x2   mean  5.361ms   p95  9.264ms   max 20.221ms
	//   6x1x1   mean  5.928ms   p95 10.682ms   max 30.231ms
	//   1x1x6   mean  5.737ms   p95 11.480ms   max 21.040ms
	//
	// trace at 8x original speed:
	//   2x3x1   mean  5.809ms   p95 12.884ms   max 30.961ms
	//   1x6x1   mean  6.557ms   p95 15.768ms   max 28.186ms
	//   3x1x2   mean  6.793ms   p95 14.148ms   max 29.815ms
	//   6x1x1   mean  7.751ms   p95 17.269ms   max 32.800ms
	//   1x1x6   mean  6.897ms   p95 14.648ms   max 26.291ms
	//
	// trace at 24x original speed:
	//   2x3x1   mean  6.363ms   p95 14.434ms   max 30.546ms
	//   1x6x1   mean  7.151ms   p95 16.683ms   max 28.197ms
	//   3x1x2   mean  7.516ms   p95 16.005ms   max 33.926ms
	//   6x1x1   mean  8.385ms   p95 18.742ms   max 37.151ms
	//   1x1x6   mean  7.806ms   p95 17.375ms   max 30.992ms
	//
	// The 2x3 SR-Array has the lowest mean and p95 at every rate, and none
	// of the five configurations saturates, even at 24x.
}

// Sweep Iometer-style closed-loop load across disk budgets and queue
// depths: a properly configured SR-Array scales in the sqrt(D) manner,
// and the SATF gap narrows at deep queues (paper Figures 12 and 13 in
// miniature).
func ExampleRunClosedLoop() {
	spec := mimdraid.ST39133LWV()
	iops := func(cfg mimdraid.Config, q int) float64 {
		sim := mimdraid.NewSim()
		arr, err := mimdraid.New(sim, mimdraid.Options{Config: cfg, Seed: 11})
		if err != nil {
			panic(err)
		}
		res, err := mimdraid.RunClosedLoop(sim, arr, mimdraid.ClosedLoop{
			ReadFrac:    1,
			Sectors:     1,
			Outstanding: q,
			Locality:    3,
			Seed:        5,
		}, 2500)
		if err != nil {
			panic(err)
		}
		return res.IOPS
	}

	fmt.Println("random reads, seek locality 3, 512-byte requests")
	for _, q := range []int{8, 32} {
		fmt.Printf("\noutstanding requests: %d\n", q)
		fmt.Printf("  %-6s %-10s %12s %14s\n", "disks", "SR config", "SR IOPS", "striping IOPS")
		for _, d := range []int{2, 4, 6, 12} {
			cfg, err := mimdraid.Recommend(spec, d, mimdraid.Workload{P: 1, Q: float64(q) / float64(d), L: 3})
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-6d %-10v %12.0f %14.0f\n", d, cfg, iops(cfg, q), iops(mimdraid.Striping(d), q))
		}
	}
	fmt.Println("\nAt short queues the rotational replicas carry the SR-Array; at deep")
	fmt.Println("queues SATF finds rotationally convenient requests on its own and")
	fmt.Println("the gap narrows — exactly the paper's Figure 12 observation.")
	// Output:
	// random reads, seek locality 3, 512-byte requests
	//
	// outstanding requests: 8
	//   disks  SR config       SR IOPS  striping IOPS
	//   2      1x2x1               511            477
	//   4      2x2x1               869            766
	//   6      2x3x1              1140            974
	//   12     3x4x1              1676           1264
	//
	// outstanding requests: 32
	//   disks  SR config       SR IOPS  striping IOPS
	//   2      1x2x1               662            656
	//   4      1x4x1              1278           1257
	//   6      2x3x1              1917           1743
	//   12     3x4x1              3494           2853
	//
	// At short queues the rotational replicas carry the SR-Array; at deep
	// queues SATF finds rotationally convenient requests on its own and
	// the gap narrows — exactly the paper's Figure 12 observation.
}

// randomReads issues n random 4 KB reads against arr from a fixed seed,
// four outstanding; each completion runs done (if non-nil) before the
// next read is issued. The caller runs the simulator.
func randomReads(arr *mimdraid.Array, n int, done func(mimdraid.Result)) {
	rng := rand.New(rand.NewSource(4))
	issued := 0
	var issue func()
	issue = func() {
		if issued >= n {
			return
		}
		issued++
		off := rng.Int63n(arr.DataSectors() - 8)
		if err := arr.Read(off, 8, func(r mimdraid.Result) {
			if done != nil {
				done(r)
			}
			issue()
		}); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		issue()
	}
}

// The silent-corruption tolerance stack: latent media errors return
// successfully with garbage, so an unprotected array serves corrupt data
// without noticing. Verify-on-read catches the poison at access time,
// fails over to a clean mirror copy and repairs in place; the paced
// background scrubber finds cold poison no workload touches, though one
// pass does not repair every copy it condemns.
func Example_scrub() {
	scenarios := []struct {
		name          string
		verify, scrub bool
	}{
		{"unprotected", false, false},
		{"+ verify-on-read", true, false},
		{"+ background scrub", true, true},
	}

	fmt.Println("RAID-10 on six drives. 64 chunk copies are pre-poisoned with latent")
	fmt.Println("errors and every read draws fresh ones at 0.5%; 4000 random 4KB reads:")
	fmt.Printf("  %-20s %8s %8s %8s %10s\n",
		"scenario", "silent", "detected", "repaired", "remaining")
	for _, sc := range scenarios {
		sim := mimdraid.NewSim()
		opts := mimdraid.Options{
			Config:      mimdraid.RAID10(6),
			Seed:        9,
			DataSectors: 1 << 18,
			Faults:      mimdraid.FaultModel{LatentRate: 0.005},
			VerifyReads: sc.verify,
		}
		arr, err := mimdraid.New(sim, opts)
		if err != nil {
			panic(err)
		}
		if sc.scrub {
			if err := arr.StartScrub(mimdraid.ScrubOptions{MBps: 32}); err != nil {
				panic(err)
			}
		}
		injected := arr.InjectCorruption(64, 7)
		randomReads(arr, 4000, nil)
		sim.Run()

		fc := arr.Faults()
		fmt.Printf("  %-20s %8d %8d %8d %10d\n", sc.name,
			fc.SilentReads, fc.VerifyDetected, fc.RepairsDone, arr.CorruptCopies())

		if sc.scrub {
			s := arr.ScrubCounters()
			fmt.Println("\nInside the scrub run:")
			fmt.Printf("  injected %d poisoned copies; the workload touched only a fraction\n", injected)
			fmt.Printf("  scrub pass verified %d copies, condemned %d, repaired %d, skipped %d\n",
				s.Verified, s.Corrupt, s.Repaired, s.Skipped)
			fmt.Printf("  passes completed: %d, paced at 32 MB/s in the Background class\n", s.Passes)
		}
	}

	fmt.Println("\nUnprotected, the poisoned copies the workload happens to read are")
	fmt.Println("served as good data — only the oracle's silent-read count knows.")
	fmt.Println("Verify-on-read stops the bleeding for touched data but leaves cold")
	fmt.Println("poison in place. One scrub pass also verifies the copies no read")
	fmt.Println("touches and repairs most of what it condemns, but not all of it.")
	// Output:
	// RAID-10 on six drives. 64 chunk copies are pre-poisoned with latent
	// errors and every read draws fresh ones at 0.5%; 4000 random 4KB reads:
	//   scenario               silent detected repaired  remaining
	//   unprotected                95        0        0         83
	//   + verify-on-read            0       57       55         29
	//   + background scrub          0       55       53          5
	//
	// Inside the scrub run:
	//   injected 64 poisoned copies; the workload touched only a fraction
	//   scrub pass verified 4039 copies, condemned 59, repaired 52, skipped 0
	//   passes completed: 1, paced at 32 MB/s in the Background class
	//
	// Unprotected, the poisoned copies the workload happens to read are
	// served as good data — only the oracle's silent-read count knows.
	// Verify-on-read stops the bleeding for touched data but leaves cold
	// poison in place. One scrub pass also verifies the copies no read
	// touches and repairs most of what it condemns, but not all of it.
}

// The reliability side of the capacity tradeoff (paper Section 2.5):
// mirrored configurations survive a drive failure in degraded mode, while
// an SR-Array (all replicas on one disk) and plain striping lose the
// failed disk's share of the data. With a hot spare, a RAID-10 rebuilds
// the dead slot from its mirror while the reads keep running, and the
// fault counters record every transient error, retry and failover.
func Example_failure() {
	configs := []mimdraid.Config{
		mimdraid.SRArray(2, 3), // fast, not redundant
		mimdraid.RAID10(6),     // redundant
		{Ds: 1, Dr: 3, Dm: 2},  // SR-Mirror: both
		mimdraid.Striping(6),   // neither
	}
	const n = 600
	fmt.Println("Six disks, drive 0 fails mid-run. 600 random 4KB reads after the failure:")
	fmt.Printf("  %-8s %10s %10s %14s\n", "config", "served", "lost", "mean latency")
	for _, cfg := range configs {
		sim := mimdraid.NewSim()
		arr, err := mimdraid.New(sim, mimdraid.Options{Config: cfg, Seed: 9})
		if err != nil {
			panic(err)
		}
		if err := arr.FailDrive(0); err != nil {
			panic(err)
		}
		served, lost := 0, 0
		var lat mimdraid.Collector
		randomReads(arr, n, func(r mimdraid.Result) {
			if r.Failed {
				lost++
			} else {
				served++
				lat.Add(r.Latency())
			}
		})
		sim.Run()
		fmt.Printf("  %-8v %9d%% %9d%% %14v\n", cfg, served*100/n, lost*100/n, lat.Mean())
	}
	fmt.Println("\nMirroring (Dm>1) keeps every byte reachable; the SR-Array and the")
	fmt.Println("stripe lose the failed disk's share. The general SR-Mirror buys both")
	fmt.Println("rotational replicas and failure survival — at triple the capacity.")

	fmt.Println("\nSame failure with a hot spare (RAID-10, rebuild capped at 40 MB/s,")
	fmt.Println("transient faults injected at 2%):")
	sim := mimdraid.NewSim()
	arr, err := mimdraid.New(sim, mimdraid.Options{
		Config:      mimdraid.RAID10(6),
		Seed:        9,
		DataSectors: 1 << 18, // 128 MB keeps the demo short
		Spares:      1,
		RebuildMBps: 40,
		Faults:      mimdraid.FaultModel{TransientRate: 0.02},
	})
	if err != nil {
		panic(err)
	}
	if err := arr.FailDrive(0); err != nil {
		panic(err)
	}
	p := arr.RebuildProgress()
	fmt.Printf("  rebuild onto spare started: slot %d, %d chunks, ETA %v\n",
		p.Slot, p.Total, p.ETA)

	// Keep reading while the rebuild runs behind the load.
	served, lost := 0, 0
	var lat mimdraid.Collector
	randomReads(arr, n, func(r mimdraid.Result) {
		if r.Failed {
			lost++
		} else {
			served++
			lat.Add(r.Latency())
		}
	})
	for served+lost < n {
		if !sim.Step() {
			panic("simulation stalled")
		}
	}
	if p = arr.RebuildProgress(); p.Active {
		fmt.Printf("  after %d reads: %d/%d chunks rebuilt, ETA %v, slot 0 is %v\n",
			n, p.Done, p.Total, p.ETA, arr.DriveState(0))
	}
	arr.Drain(mimdraid.Hour)

	fc := arr.Faults()
	fmt.Printf("  mid-rebuild reads: %d served, %d lost, mean %v\n", served, lost, lat.Mean())
	fmt.Printf("  slot 0 after rebuild: %v (alive=%v, spares left %d)\n",
		arr.DriveState(0), arr.Alive(0), arr.Spares())
	fmt.Printf("  counters: transients %d, retries %d, failovers %d, rebuilds %d/%d, chunks lost %d\n",
		fc.Transients, fc.Retries, fc.Failovers, fc.RebuildsDone, fc.RebuildsStarted, fc.LostChunks)
	fmt.Println("\nThe spare restores full redundancy without stopping the workload;")
	fmt.Println("injected transient errors are absorbed by the in-drive retry and,")
	fmt.Println("when a command faults twice, by failover to the surviving mirror.")
	// Output:
	// Six disks, drive 0 fails mid-run. 600 random 4KB reads after the failure:
	//   config       served       lost   mean latency
	//   2x3x1           82%        17%        6.529ms
	//   3x1x2          100%         0%        8.140ms
	//   1x3x2          100%         0%        8.694ms
	//   6x1x1           82%        17%        7.616ms
	//
	// Mirroring (Dm>1) keeps every byte reachable; the SR-Array and the
	// stripe lose the failed disk's share. The general SR-Mirror buys both
	// rotational replicas and failure survival — at triple the capacity.
	//
	// Same failure with a hot spare (RAID-10, rebuild capped at 40 MB/s,
	// transient faults injected at 2%):
	//   rebuild onto spare started: slot 0, 683 chunks, ETA 1.1190s
	//   after 600 reads: 12/683 chunks rebuilt, ETA 1.0994s, slot 0 is rebuilding
	//   mid-rebuild reads: 600 served, 0 lost, mean 5.986ms
	//   slot 0 after rebuild: healthy (alive=true, spares left 0)
	//   counters: transients 40, retries 39, failovers 0, rebuilds 1/1, chunks lost 0
	//
	// The spare restores full redundancy without stopping the workload;
	// injected transient errors are absorbed by the in-drive retry and,
	// when a command faults twice, by failover to the surviving mirror.
}

// The fail-slow tolerance stack: a drive that is merely slow (not dead)
// defeats the fail-stop detector, and one laggard in a six-drive RAID-10
// owns the read tail. Health tracking flags it Suspect, hedged reads cut
// the tail, and eviction into a hot spare restores all-healthy latencies.
func Example_failslow() {
	// Drive 0 gets a persistent 8x service-time inflation plus 50 ms
	// stutter windows every ~250 ms: a caricature of a drive retrying over
	// a failing head.
	slow := mimdraid.FaultModel{Slow: map[int]mimdraid.SlowProfile{0: {
		Factor:        8,
		StutterEvery:  250 * mimdraid.Millisecond,
		StutterFor:    50 * mimdraid.Millisecond,
		StutterFactor: 4,
	}}}
	scenarios := []struct {
		name               string
		slow, hedge, evict bool
	}{
		{"all healthy", false, false, false},
		{"one slow drive", true, false, false},
		{"+ hedged reads", true, true, false},
		{"+ eviction into spare", true, true, true},
	}

	fmt.Println("RAID-10 on six drives, 4000 random 4KB reads, four outstanding.")
	fmt.Println("Drive 0 is fail-slow in all but the first scenario:")
	fmt.Printf("  %-22s %8s %8s %8s %8s\n", "scenario", "p50", "p99", "hedges", "evicted")
	for _, sc := range scenarios {
		sim := mimdraid.NewSim()
		opts := mimdraid.Options{
			Config:      mimdraid.RAID10(6),
			Seed:        9,
			DataSectors: 1 << 18,
		}
		if sc.slow {
			opts.Faults = slow
		}
		if sc.hedge {
			opts.Hedge = true
			// Detection-only health tracking: Suspect drives lose
			// scheduler preference and hedges fire earlier against them.
			opts.Health = mimdraid.HealthOptions{Enabled: true, EvictRatio: -1}
		}
		if sc.evict {
			opts.Spares = 1
			opts.RebuildMBps = 100
			opts.Health.EvictRatio = 2.5 // re-arm eviction
		}
		arr, err := mimdraid.New(sim, opts)
		if err != nil {
			panic(err)
		}
		var lat mimdraid.Collector
		randomReads(arr, 4000, func(r mimdraid.Result) { lat.Add(r.Latency()) })
		sim.Run()

		h := arr.Hedges()
		fmt.Printf("  %-22s %8v %8v %8d %8d\n", sc.name,
			lat.Percentile(50), lat.Percentile(99),
			h.Issued, arr.Faults().Evictions)

		if sc.evict {
			fmt.Println("\nInside the eviction run:")
			fc := arr.Faults()
			fmt.Printf("  drive 0 inflated %d commands (%d in stutter windows) before\n", fc.SlowCommands, fc.Stutters)
			fmt.Printf("  the tracker evicted it; the hot spare now holds slot 0 (%v)\n", arr.DriveHealth(0))
			fmt.Printf("  hedges issued %d, won %d, lost %d, cancelled %d\n",
				h.Issued, h.Won, h.Lost, h.Cancelled)
			if !arr.Drain(mimdraid.Hour) {
				panic("drain failed")
			}
			fmt.Printf("  after rebuild drains: rebuilds done %d, lost chunks %d, slot 0 is %v\n",
				arr.Faults().RebuildsDone, arr.Faults().LostChunks, arr.DriveState(0))
		}
	}

	fmt.Println("\nThe slow drive widens p99 several-fold. Hedging recovers most of the")
	fmt.Println("tail at the cost of duplicate reads; eviction swaps the laggard for a")
	fmt.Println("hot spare and rebuilds its mirror copies, after which the array is")
	fmt.Println("structurally healthy again and hedges stop firing.")
	// Output:
	// RAID-10 on six drives, 4000 random 4KB reads, four outstanding.
	// Drive 0 is fail-slow in all but the first scenario:
	//   scenario                    p50      p99   hedges  evicted
	//   all healthy             4.427ms 10.995ms        0        0
	//   one slow drive          4.805ms 44.374ms        0        0
	//   + hedged reads          4.850ms 29.305ms      126        0
	//   + eviction into spare   5.017ms 24.630ms        8        1
	//
	// Inside the eviction run:
	//   drive 0 inflated 16 commands (5 in stutter windows) before
	//   the tracker evicted it; the hot spare now holds slot 0 (healthy)
	//   hedges issued 8, won 3, lost 2, cancelled 3
	//   after rebuild drains: rebuilds done 1, lost chunks 0, slot 0 is healthy
	//
	// The slow drive widens p99 several-fold. Hedging recovers most of the
	// tail at the cost of duplicate reads; eviction swaps the laggard for a
	// hot spare and rebuilds its mirror copies, after which the array is
	// structurally healthy again and hedges stop firing.
}

// Watch a workload online and get reconfiguration advice.
func ExampleAdvisor() {
	adv := mimdraid.NewAdvisor(1 << 24)
	// A highly local, read-only stream.
	off := int64(0)
	for i := 0; i < 2000; i++ {
		off = (off + 96) % (1 << 24)
		adv.Observe(mimdraid.AdvisorObservation{Off: off, Count: 8})
	}
	cfg, err := adv.Recommend(mimdraid.ST39133LWV(), 12)
	if err != nil {
		panic(err)
	}
	fmt.Printf("local reads on 12 disks -> %v (p=%.1f)\n", cfg, adv.P())
	// Output: local reads on 12 disks -> 2x6x1 (p=1.0)
}
