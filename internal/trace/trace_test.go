package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/des"
)

func sample() *Trace {
	return &Trace{
		Name:        "sample",
		DataSectors: 100000,
		Records: []Record{
			{At: 0, Off: 100, Count: 8},
			{At: 1000, Write: true, Off: 200, Count: 8},
			{At: 2000, Off: 200, Count: 8}, // read-after-write
			{At: 3000, Write: true, Async: true, Off: 300, Count: 16},
			{At: 4000, Off: 50000, Count: 4},
		},
	}
}

func TestScaleHalvesInterarrival(t *testing.T) {
	tr := sample().Scale(2)
	if tr.Records[1].At != 500 {
		t.Fatalf("scaled arrival = %v, want 500", tr.Records[1].At)
	}
	if tr.Records[4].At != 2000 {
		t.Fatalf("scaled arrival = %v, want 2000", tr.Records[4].At)
	}
	// Original untouched.
	if sample().Records[1].At != 1000 {
		t.Fatal("Scale mutated the source")
	}
}

func TestScaleRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sample().Scale(0)
}

func TestComputeStats(t *testing.T) {
	s := sample().ComputeStats()
	if s.IOs != 5 {
		t.Fatalf("IOs = %d", s.IOs)
	}
	if math.Abs(s.ReadFrac-0.6) > 1e-9 {
		t.Fatalf("ReadFrac = %v, want 0.6", s.ReadFrac)
	}
	if math.Abs(s.AsyncFrac-0.2) > 1e-9 {
		t.Fatalf("AsyncFrac = %v, want 0.2", s.AsyncFrac)
	}
	if math.Abs(s.RAWFrac-0.2) > 1e-9 {
		t.Fatalf("RAWFrac = %v, want 0.2 (one RAW read of five I/Os)", s.RAWFrac)
	}
	if s.Duration != 4000 {
		t.Fatalf("Duration = %v", s.Duration)
	}
}

func TestRAWWindowExpires(t *testing.T) {
	tr := &Trace{
		DataSectors: 100000,
		Records: []Record{
			{At: 0, Write: true, Off: 100, Count: 8},
			{At: des.Hour + des.Second, Off: 100, Count: 8}, // too late
		},
	}
	if s := tr.ComputeStats(); s.RAWFrac != 0 {
		t.Fatalf("RAWFrac = %v, want 0 (window expired)", s.RAWFrac)
	}
}

func TestSeekLocalityOfUniformTraceIsNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{DataSectors: 1 << 24}
	for i := 0; i < 20000; i++ {
		tr.Records = append(tr.Records, Record{At: des.Time(i), Off: rng.Int63n(tr.DataSectors), Count: 1})
	}
	s := tr.ComputeStats()
	if s.SeekLocality < 0.9 || s.SeekLocality > 1.1 {
		t.Fatalf("uniform trace L = %v, want ~1", s.SeekLocality)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	var buf bytes.Buffer
	src := sample()
	if err := src.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != src.Name || got.DataSectors != src.DataSectors {
		t.Fatalf("header mismatch: %q %d", got.Name, got.DataSectors)
	}
	if len(got.Records) != len(src.Records) {
		t.Fatalf("%d records, want %d", len(got.Records), len(src.Records))
	}
	for i := range src.Records {
		a, b := src.Records[i], got.Records[i]
		if a.Write != b.Write || a.Async != b.Async || a.Off != b.Off || a.Count != b.Count {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, a, b)
		}
		if math.Abs(float64(a.At-b.At)) > 0.01 {
			t.Fatalf("record %d time mismatch", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("12.0 x 5 5\n")); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := Read(bytes.NewBufferString("not-a-number r 5 5\n")); err == nil {
		t.Fatal("bad line accepted")
	}
}

// TestComputeStatsRAWEdges pins the read-after-write attribution at the
// edges of its bucket table and window: each case is a hand-built trace
// and the number of its reads that must count as read-after-write.
func TestComputeStatsRAWEdges(t *testing.T) {
	w := func(at des.Time, off int64, cnt int) Record { return Record{At: at, Write: true, Off: off, Count: cnt} }
	aw := func(at des.Time, off int64, cnt int) Record {
		return Record{At: at, Write: true, Async: true, Off: off, Count: cnt}
	}
	r := func(at des.Time, off int64, cnt int) Record { return Record{At: at, Off: off, Count: cnt} }
	cases := []struct {
		name    string
		sectors int64
		recs    []Record
		raw     int
	}{
		{"straddle hits second bucket", 1000, []Record{w(0, 40, 4), r(10, 20, 16)}, 1},
		{"straddle hits first bucket", 1000, []Record{w(0, 0, 4), r(10, 12, 8)}, 1},
		{"adjacent bucket misses", 1000, []Record{w(0, 32, 4), r(10, 16, 16)}, 0},
		{"exactly one window later counts", 1000, []Record{w(0, 100, 8), r(RAWWindow, 100, 8)}, 1},
		{"just past the window misses", 1000, []Record{w(0, 100, 8), r(RAWWindow+1, 100, 8)}, 0},
		{"window measured from the last write", 1000,
			[]Record{w(0, 100, 8), w(RAWWindow/2, 100, 8), r(RAWWindow+1, 100, 8)}, 1},
		{"never written is not recent at t=0", 1000, []Record{r(0, 0, 8), r(1, 500, 8), w(2, 900, 8)}, 0},
		{"async write counts at its own time", 1000,
			[]Record{aw(5, 200, 16), r(6, 208, 4), r(5+RAWWindow+1, 200, 4)}, 1},
		{"read before the write it names", 1000, []Record{w(100, 300, 8), r(50, 300, 8)}, 1},
		{"no sectors header", 0, []Record{w(0, 1<<20, 32), r(1, 1<<20+16, 8), r(2, 5, 8)}, 1},
		{"negative offset", 0, []Record{w(0, -40, 8), r(1, -36, 4), r(2, 0, 4)}, 1},
	}
	for _, c := range cases {
		tr := &Trace{DataSectors: c.sectors, Records: c.recs}
		s := tr.ComputeStats()
		if want := float64(c.raw) / float64(len(c.recs)); s.RAWFrac != want {
			t.Errorf("%s: RAWFrac = %v, want %v (%d RAW reads of %d I/Os)", c.name, s.RAWFrac, want, c.raw, len(c.recs))
		}
	}
}

// TestComputeStatsWideOffsets runs one pattern of writes and reads at a
// near and at a far second region: the far one spans more buckets than
// the flat table holds, so LastWrite keeps it in a map, and read-after-write
// must match the same reads either way.
func TestComputeStatsWideOffsets(t *testing.T) {
	for _, far := range []int64{1 << 20, 1 << 50} {
		tr := &Trace{Records: []Record{
			{At: 0, Write: true, Off: 100, Count: 8},
			{At: 1, Off: 104, Count: 4}, // RAW
			{At: 2, Off: 500, Count: 8},
			{At: 3, Write: true, Off: far, Count: 16},
			{At: 4, Off: far + 8, Count: 8}, // RAW
			{At: 5, Off: far + 16, Count: 8},
			{At: RAWWindow + 4, Off: far, Count: 8},
		}}
		if s := tr.ComputeStats(); s.RAWFrac != 2.0/7 {
			t.Errorf("far=%d: RAWFrac = %v, want 2/7", far, s.RAWFrac)
		}
	}
}
