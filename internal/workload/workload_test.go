package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/layout"
	"repro/internal/tracegen"
)

func newArray(t testing.TB, cfg layout.Config, policy string) (*des.Sim, *core.Array) {
	t.Helper()
	sim := des.New()
	a, err := core.New(sim, core.Options{Config: cfg, Policy: policy, DataSectors: 1 << 21, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sim, a
}

func TestIometerRunBasics(t *testing.T) {
	sim, a := newArray(t, layout.Striping(2), "satf")
	w := Iometer{ReadFrac: 1, Sectors: 1, Outstanding: 4, Locality: 3, Seed: 1}
	res, err := w.Run(sim, a, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 500 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.IOPS < 50 || res.IOPS > 5000 {
		t.Fatalf("IOPS = %.1f, implausible", res.IOPS)
	}
	if res.Latency.N() != 500 {
		t.Fatalf("latency samples %d", res.Latency.N())
	}
}

func TestIometerThroughputGrowsWithQueueDepth(t *testing.T) {
	measure := func(q int) float64 {
		sim, a := newArray(t, layout.Striping(4), "satf")
		w := Iometer{ReadFrac: 1, Sectors: 1, Outstanding: q, Locality: 3, Seed: 2}
		res, err := w.Run(sim, a, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	q1 := measure(1)
	q8 := measure(8)
	q32 := measure(32)
	if !(q1 < q8 && q8 < q32) {
		t.Fatalf("throughput not increasing with queue depth: %f %f %f", q1, q8, q32)
	}
}

func TestIometerValidation(t *testing.T) {
	sim, a := newArray(t, layout.Striping(2), "satf")
	if _, err := (Iometer{Outstanding: 0}).Run(sim, a, 10); err == nil {
		t.Fatal("zero outstanding accepted")
	}
}

func TestReplayCompletesAllRecords(t *testing.T) {
	sim, a := newArray(t, layout.SRArray(2, 3), "rsatf")
	p := tracegen.CelloBase(3).WithDuration(20 * des.Minute)
	p.DataSectors = 1 << 20 // fit the small test volume
	tr := tracegen.Generate(p)
	res, err := Replay(sim, a, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", res.Completed, len(tr.Records))
	}
	if res.Sync.N()+res.Async.N() != len(tr.Records) {
		t.Fatalf("collected %d+%d samples for %d records", res.Sync.N(), res.Async.N(), len(tr.Records))
	}
	if res.MeanResponse() <= 0 {
		t.Fatal("non-positive mean response")
	}
}

func TestReplayRejectsOversizedTrace(t *testing.T) {
	sim, a := newArray(t, layout.Striping(2), "satf")
	p := tracegen.TPCC(1).WithDuration(des.Second)
	tr := tracegen.Generate(p) // 9 GB volume vs 1 GB array
	if _, err := Replay(sim, a, tr); err == nil {
		t.Fatal("oversized trace accepted")
	}
}

// Replaying the same trace at a higher rate must not lower mean response
// time (queueing only hurts).
func TestReplayScalingMonotone(t *testing.T) {
	run := func(rate float64) des.Time {
		sim, a := newArray(t, layout.Striping(2), "satf")
		p := tracegen.TPCC(4).WithDuration(30 * des.Second)
		p.DataSectors = 1 << 20
		p.MeanIOPS = 120
		tr := tracegen.Generate(p).Scale(rate)
		res, err := Replay(sim, a, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanResponse()
	}
	slow := run(1)
	fast := run(4)
	if fast < slow {
		t.Fatalf("mean response at 4x (%v) below 1x (%v)", fast, slow)
	}
}

func TestIometerDeterministic(t *testing.T) {
	run := func() float64 {
		sim, a := newArray(t, layout.SRArray(2, 3), "rsatf")
		res, err := (Iometer{ReadFrac: 0.8, Sectors: 4, Outstanding: 6, Locality: 2, Seed: 3}).Run(sim, a, 600)
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %v and %v IOPS", a, b)
	}
}

func TestReplayBuildsQueuesUnderScaling(t *testing.T) {
	sim, a := newArray(t, layout.Striping(2), "satf")
	p := tracegen.TPCC(8).WithDuration(20 * des.Second)
	p.DataSectors = 1 << 20
	p.MeanIOPS = 300
	tr := tracegen.Generate(p).Scale(3)
	res, err := Replay(sim, a, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQueue < 2 {
		t.Fatalf("MaxQueue = %d under 3x scaling of a 300 IOPS trace on 2 disks", res.MaxQueue)
	}
}
