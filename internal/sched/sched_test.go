package sched

import (
	"math/rand"
	"testing"

	"repro/internal/calib"
	"repro/internal/des"
	"repro/internal/disk"
)

func est(t testing.TB) (*disk.Disk, calib.AccessEstimator) {
	t.Helper()
	d := disk.ST39133LWV().MustNew()
	return d, &calib.Exact{Dsk: d, Overhead: 200}
}

func reqAt(id uint64, cyl int, arrive des.Time) *Request {
	return &Request{
		ID:     id,
		Arrive: arrive,
		Replicas: []Replica{
			{Extents: []disk.Extent{{Start: disk.Chs{Cyl: cyl, Head: 0, Sector: 0}, Count: 8}}},
		},
	}
}

func TestNewPolicies(t *testing.T) {
	for _, name := range []string{"fcfs", "sstf", "look", "satf", "rlook", "rsatf"} {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
	if _, err := New("zig-zag"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestEmptyQueue(t *testing.T) {
	_, e := est(t)
	for _, name := range []string{"fcfs", "sstf", "look", "satf", "rlook", "rsatf"} {
		s, _ := New(name)
		if _, ok := s.Pick(0, disk.State{}, nil, e); ok {
			t.Errorf("%s picked from an empty queue", name)
		}
	}
}

func TestFCFSHonorsArrival(t *testing.T) {
	_, e := est(t)
	s, _ := New("fcfs")
	q := []*Request{reqAt(1, 100, 30), reqAt(2, 50, 10), reqAt(3, 2000, 20)}
	c, ok := s.Pick(100, disk.State{}, q, e)
	if !ok || q[c.Index].ID != 2 {
		t.Fatalf("FCFS picked %+v, want earliest arrival (ID 2)", c)
	}
}

func TestSSTFPicksNearestCylinder(t *testing.T) {
	_, e := est(t)
	s, _ := New("sstf")
	q := []*Request{reqAt(1, 4000, 0), reqAt(2, 1100, 0), reqAt(3, 300, 0)}
	c, ok := s.Pick(0, disk.State{Cyl: 1000}, q, e)
	if !ok || q[c.Index].ID != 2 {
		t.Fatalf("SSTF picked %+v, want cylinder 1100 (ID 2)", c)
	}
}

func TestLOOKScansInOneDirectionThenReverses(t *testing.T) {
	_, e := est(t)
	s, _ := New("look")
	q := []*Request{reqAt(1, 500, 0), reqAt(2, 1500, 0), reqAt(3, 900, 0)}
	arm := disk.State{Cyl: 800}
	var order []uint64
	for len(q) > 0 {
		c, ok := s.Pick(0, arm, q, e)
		if !ok {
			t.Fatal("no pick")
		}
		r := q[c.Index]
		order = append(order, r.ID)
		arm = disk.State{Cyl: r.Replicas[0].Extents[0].Start.Cyl}
		q = append(q[:c.Index], q[c.Index+1:]...)
	}
	// Starting at 800 going up: 900, 1500, then reverse to 500.
	want := []uint64{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LOOK order %v, want %v", order, want)
		}
	}
}

func TestSATFPicksShortestAccess(t *testing.T) {
	d, e := est(t)
	s, _ := New("satf")
	// One request on the arm's cylinder, one far away: access estimates
	// must prefer the near one at almost any rotation.
	near := reqAt(1, 1000, 0)
	far := reqAt(2, 6000, 0)
	c, ok := s.Pick(0, disk.State{Cyl: 1000}, []*Request{far, near}, e)
	if !ok {
		t.Fatal("no pick")
	}
	if got := []*Request{far, near}[c.Index]; got.ID != 1 {
		// Rotationally unlucky near choice can lose; verify via estimates.
		tNear := access(e, disk.State{Cyl: 1000}, disk.Request{Start: near.Replicas[0].Extents[0].Start, Count: 8}, 0)
		tFar := access(e, disk.State{Cyl: 1000}, disk.Request{Start: far.Replicas[0].Extents[0].Start, Count: 8}, 0)
		if tNear < tFar {
			t.Fatalf("SATF picked ID %d (%v) over cheaper (%v)", got.ID, tFar, tNear)
		}
	}
	_ = d
}

// RSATF with two rotational replicas must never predict worse than SATF
// restricted to the primary.
func TestRSATFBeatsPrimaryOnly(t *testing.T) {
	d, e := est(t)
	g := d.Geom
	cyl := 2000
	primary := disk.Chs{Cyl: cyl, Head: 0, Sector: 10}
	// Second replica half a revolution later on another head.
	angle := g.SectorAngle(primary) + 0.5
	if angle >= 1 {
		angle -= 1
	}
	second := disk.Chs{Cyl: cyl, Head: 6, Sector: g.SectorAtAngle(cyl, 6, angle)}
	req := &Request{
		ID:     1,
		Arrive: 0,
		Replicas: []Replica{
			{Extents: []disk.Extent{{Start: primary, Count: 4}}},
			{Extents: []disk.Extent{{Start: second, Count: 4}}},
		},
	}
	rsatf, _ := New("rsatf")
	satf, _ := New("satf")
	arm := disk.State{Cyl: cyl}
	for now := des.Time(0); now < 6000; now += 500 {
		cR, _ := rsatf.Pick(now, arm, []*Request{req}, e)
		cS, _ := satf.Pick(now, arm, []*Request{req}, e)
		if cR.Predicted > cS.Predicted+1e-9 {
			t.Fatalf("t=%v: RSATF predicted %v worse than SATF %v", now, cR.Predicted, cS.Predicted)
		}
	}
	// And at least sometimes strictly better.
	better := false
	for now := des.Time(0); now < 6000; now += 250 {
		cR, _ := rsatf.Pick(now, arm, []*Request{req}, e)
		cS, _ := satf.Pick(now, arm, []*Request{req}, e)
		if cR.Predicted < cS.Predicted-100 {
			better = true
		}
	}
	if !better {
		t.Fatal("RSATF never used the second replica to advantage")
	}
}

func TestAllowedReplicasMaskRespected(t *testing.T) {
	d, e := est(t)
	g := d.Geom
	cyl := 2000
	primary := disk.Chs{Cyl: cyl, Head: 0, Sector: 10}
	angle := g.SectorAngle(primary) + 0.5
	if angle >= 1 {
		angle -= 1
	}
	second := disk.Chs{Cyl: cyl, Head: 6, Sector: g.SectorAtAngle(cyl, 6, angle)}
	req := &Request{
		ID: 1,
		Replicas: []Replica{
			{Extents: []disk.Extent{{Start: primary, Count: 4}}},
			{Extents: []disk.Extent{{Start: second, Count: 4}}},
		},
		AllowedReplicas: []bool{false, true}, // primary stale
	}
	s, _ := New("rsatf")
	for now := des.Time(0); now < 6000; now += 333 {
		c, ok := s.Pick(now, disk.State{Cyl: cyl}, []*Request{req}, e)
		if !ok || c.Replica != 1 {
			t.Fatalf("t=%v: picked stale replica %d", now, c.Replica)
		}
	}
}

func TestPriorityRequestsJumpTheQueue(t *testing.T) {
	_, e := est(t)
	for _, name := range []string{"fcfs", "sstf", "look", "satf", "rlook", "rsatf"} {
		s, _ := New(name)
		q := []*Request{reqAt(1, 100, 0), reqAt(2, 200, 1)}
		q[1].Priority = true
		c, ok := s.Pick(10, disk.State{Cyl: 100}, q, e)
		if !ok || q[c.Index].ID != 2 {
			t.Errorf("%s: priority request not picked first", name)
		}
	}
}

// isRotationAware reports whether the scheduler New builds for policy
// picks among rotational replicas.
func isRotationAware(t *testing.T, policy string) bool {
	t.Helper()
	s, err := New(policy)
	if err != nil {
		t.Fatal(err)
	}
	switch s := s.(type) {
	case fcfs:
		return s.rotational
	case *look:
		return s.rotational
	case *satf:
		return s.rotational
	}
	t.Fatalf("%s: unexpected scheduler %T", policy, s)
	return false
}

// access predicts one unprepared request the way a one-off caller does:
// prepare a target, then evaluate it.
func access(est calib.AccessEstimator, st disk.State, req disk.Request, now des.Time) des.Time {
	var tg disk.Target
	est.Prepare(&tg, disk.Extent{Start: req.Start, Count: req.Count})
	return est.AccessPrepared(st, &tg, req.Write, now)
}

func TestIsRotationAware(t *testing.T) {
	for _, p := range []string{"rfcfs", "rlook", "rsatf", "rasatf"} {
		if !isRotationAware(t, p) {
			t.Errorf("%s should be rotation aware", p)
		}
	}
	for _, p := range []string{"fcfs", "look", "satf", "asatf"} {
		if isRotationAware(t, p) {
			t.Errorf("%s is not rotation aware", p)
		}
	}
}

func TestReplicaHelpers(t *testing.T) {
	r := Replica{Extents: []disk.Extent{
		{Start: disk.Chs{Cyl: 1}, Count: 5},
		{Start: disk.Chs{Cyl: 1}, Count: 3},
	}}
	if r.first().Count != 5 {
		t.Error("first extent wrong")
	}
	if r.totalSectors() != 8 {
		t.Error("totalSectors wrong")
	}
}

func TestCLOOKWrapsToLowestCylinder(t *testing.T) {
	_, e := est(t)
	s, _ := New("clook")
	if s.Name() != "clook" {
		t.Fatalf("Name = %q", s.Name())
	}
	q := []*Request{reqAt(1, 500, 0), reqAt(2, 1500, 0), reqAt(3, 900, 0)}
	arm := disk.State{Cyl: 800}
	var order []uint64
	for len(q) > 0 {
		c, ok := s.Pick(0, arm, q, e)
		if !ok {
			t.Fatal("no pick")
		}
		r := q[c.Index]
		order = append(order, r.ID)
		arm = disk.State{Cyl: r.Replicas[0].Extents[0].Start.Cyl}
		q = append(q[:c.Index], q[c.Index+1:]...)
	}
	// Starting at 800 going up: 900, 1500, then WRAP to 500 (not reverse).
	want := []uint64{3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("C-LOOK order %v, want %v", order, want)
		}
	}
	// One more pass: with requests below and above, the wrap picks the
	// lowest, unlike LOOK which would pick the nearest downward.
	q = []*Request{reqAt(1, 100, 0), reqAt(2, 700, 0)}
	arm = disk.State{Cyl: 800}
	c, _ := s.Pick(0, arm, q, e)
	if q[c.Index].ID != 1 {
		t.Fatalf("C-LOOK picked cylinder %d after wrap, want the lowest (100)",
			q[c.Index].Replicas[0].Extents[0].Start.Cyl)
	}
}

func TestAgedSATFBoundsWaiting(t *testing.T) {
	_, e := est(t)
	plain, _ := New("satf")
	aged, _ := New("asatf")
	// An old request far away competes with a fresh convenient one. Plain
	// SATF keeps preferring the convenient request; aged SATF eventually
	// serves the elder.
	old := reqAt(1, 6000, 0)
	fresh := reqAt(2, 1000, 199500) // just arrived
	arm := disk.State{Cyl: 1000}
	// After 200 ms of waiting, the old request has earned ~10 ms more
	// credit than the newcomer — more than the seek gap between them.
	now := des.Time(200000)
	cP, _ := plain.Pick(now, arm, []*Request{old, fresh}, e)
	cA, _ := aged.Pick(now, arm, []*Request{old, fresh}, e)
	q := []*Request{old, fresh}
	if q[cP.Index].ID != 2 {
		t.Fatalf("plain SATF served the far request (did the fixture break?)")
	}
	if q[cA.Index].ID != 1 {
		t.Fatalf("aged SATF still starves the 50ms-old request")
	}
}

func TestBackgroundDefersToForeground(t *testing.T) {
	_, e := est(t)
	for _, name := range []string{"fcfs", "sstf", "look", "clook", "satf", "rsatf"} {
		s, _ := New(name)
		// Background request is older AND closer — every policy would
		// normally prefer it — but a schedulable foreground request is
		// pending, so the background one must sit out.
		bg := reqAt(1, 1000, 0)
		bg.Background = true
		fgReq := reqAt(2, 4000, 100)
		q := []*Request{bg, fgReq}
		c, ok := s.Pick(200, disk.State{Cyl: 1000}, q, e)
		if !ok || q[c.Index].ID != 2 {
			t.Errorf("%s: background request beat pending foreground work", name)
		}
	}
}

func TestBackgroundServedWhenAlone(t *testing.T) {
	_, e := est(t)
	for _, name := range []string{"fcfs", "sstf", "look", "satf"} {
		s, _ := New(name)
		bg := reqAt(1, 1000, 0)
		bg.Background = true
		c, ok := s.Pick(100, disk.State{Cyl: 1000}, []*Request{bg}, e)
		if !ok || c.Index != 0 {
			t.Errorf("%s: lone background request not served", name)
		}
	}
}

func TestBackgroundAgesPastMaxWait(t *testing.T) {
	_, e := est(t)
	s, _ := New("fcfs")
	bg := reqAt(1, 1000, 0)
	bg.Background = true
	fgReq := reqAt(2, 4000, 100)
	q := []*Request{bg, fgReq}
	// Past the deferral window the background request competes normally,
	// and under FCFS its earlier arrival wins.
	now := des.Time(BackgroundMaxWait) + 1
	c, ok := s.Pick(now, disk.State{Cyl: 1000}, q, e)
	if !ok || q[c.Index].ID != 1 {
		t.Fatal("overdue background request still starved")
	}
}

func TestAgedNames(t *testing.T) {
	for _, name := range []string{"asatf", "rasatf"} {
		s, err := New(name)
		if err != nil || s.Name() != name {
			t.Errorf("New(%q) -> %v, %v", name, s, err)
		}
	}
	if !isRotationAware(t, "rasatf") {
		t.Error("rasatf should be rotation aware")
	}
}

// A queued replica caches its prepared targets on first evaluation. Every
// later Pick, from whatever arm state and time, must still decide exactly
// what a scheduler looking at never-scored copies of the same requests
// decides — for one-extent replicas, the layout's two-extent wrapped
// replicas, a fused multi-track extent, and a hand-built three-extent
// replica that does not fit the cache.
func TestReplicaCacheMatchesFreshEvaluation(t *testing.T) {
	d, e := est(t)
	g := d.Geom
	rng := rand.New(rand.NewSource(11))
	var queue []*Request
	for i := 0; i < 40; i++ {
		cyl := rng.Intn(g.LogicalCylinders())
		spt := g.SPTOf(cyl)
		var reps []Replica
		for j := 0; j < 3; j++ {
			head := j * (g.Heads / 3)
			var exts []disk.Extent
			switch i % 4 {
			case 0:
				exts = []disk.Extent{{Start: disk.Chs{Cyl: cyl, Head: head, Sector: rng.Intn(spt - 8)}, Count: 8}}
			case 1:
				exts = []disk.Extent{{Start: disk.Chs{Cyl: cyl, Head: head, Sector: spt - 5}, Count: 5}, {Start: disk.Chs{Cyl: cyl, Head: head}, Count: 11}}
			case 2:
				exts = []disk.Extent{{Start: disk.Chs{Cyl: cyl, Head: head, Sector: rng.Intn(spt)}, Count: spt + 40}}
			case 3:
				exts = []disk.Extent{{Start: disk.Chs{Cyl: cyl, Head: head, Sector: 3}, Count: 4}, {Start: disk.Chs{Cyl: cyl, Head: head + 1}, Count: 9}, {Start: disk.Chs{Cyl: cyl, Head: head, Sector: 30}, Count: 2}}
			}
			reps = append(reps, Replica{Extents: exts})
		}
		queue = append(queue, &Request{ID: uint64(i), Write: i%5 == 0, Arrive: des.Time(i), Replicas: reps})
	}
	fresh := func() []*Request {
		out := make([]*Request, len(queue))
		for i, r := range queue {
			c := *r
			c.Replicas = make([]Replica, len(r.Replicas))
			for j, rep := range r.Replicas {
				c.Replicas[j] = Replica{Extents: rep.Extents}
			}
			out[i] = &c
		}
		return out
	}
	for _, policy := range []string{"rfcfs", "sstf", "rlook", "satf", "rsatf", "rasatf"} {
		cached, err := New(policy)
		if err != nil {
			t.Fatal(err)
		}
		scratch, _ := New(policy)
		for round := 0; round < 50; round++ {
			arm := disk.State{Cyl: rng.Intn(g.Cylinders), Head: rng.Intn(g.Heads)}
			now := des.Time(100 + 977*round)
			got, ok := cached.Pick(now, arm, queue, e)
			want, wantOK := scratch.Pick(now, arm, fresh(), e)
			if got != want || ok != wantOK {
				t.Fatalf("%s round %d: cached queue picks %+v, never-scored copies pick %+v", policy, round, got, want)
			}
		}
	}
}
