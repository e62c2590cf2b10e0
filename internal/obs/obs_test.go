package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/sched"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      des.Time
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{des.Hour, NumBuckets - 1}, // overflow absorbed by the last bucket
	}
	for _, c := range cases {
		before := h.Buckets[c.bucket]
		h.Observe(c.v)
		if h.Buckets[c.bucket] != before+1 {
			t.Fatalf("Observe(%v) did not land in bucket %d", c.v, c.bucket)
		}
	}
	if h.Count != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", h.Count, len(cases))
	}
	// Negative durations (clock skew in a caller) clamp to bucket 0 rather
	// than indexing out of range.
	h.Observe(-5)
	if h.Buckets[0] != 2 {
		t.Fatalf("negative duration not clamped: bucket0 = %d", h.Buckets[0])
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	for _, v := range []int64{3, 7, 2} {
		g.Set(v)
	}
	if g.Cur != 2 || g.Max != 7 || g.Samples != 3 || g.Sum != 12 {
		t.Fatalf("gauge state = %+v", g)
	}
}

func TestRingWraps(t *testing.T) {
	r := newRing(3)
	for i := 0; i < 5; i++ {
		r.add(TraceRecord{Req: uint64(i)})
	}
	recs := r.records()
	if len(recs) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recs))
	}
	seen := map[uint64]bool{}
	for _, rec := range recs {
		seen[rec.Req] = true
	}
	// Newest three survive.
	for _, want := range []uint64{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("ring lost record %d; kept %v", want, seen)
		}
	}
	if r.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", r.dropped)
	}
}

// fill records a deterministic workload into a recorder.
func fill(rec *Recorder, base int64) {
	d := rec.Drive(0)
	for i := int64(0); i < 10; i++ {
		d.ObservePick(3, sched.Choice{Predicted: des.Time(100 + i)}, true)
		d.Done(Dispatch{
			Req: uint64(base + i), Class: Foreground, Op: OpRead,
			Arrive: des.Time(i * 100), Start: des.Time(i*100 + 50),
		}, disk.Timing{Seek: 10, Rotate: 20, Transfer: 5}, des.Time(i*100+90))
	}
	d.Retry()
	d.Fault(disk.FaultTransient)
	d.FaultedRun(Dispatch{Req: uint64(base + 99), Class: Foreground, Op: OpWrite, Failover: true},
		disk.FaultTimeout, 1234)
	rec.RebuildChunkDone()
	rec.NVRAM.Set(4)
}

// TestSnapshotMergeOrderIndependent is the determinism contract: the same
// per-label content registered in any order must snapshot to identical
// bytes, and recorders sharing a label must merge by summation.
func TestSnapshotMergeOrderIndependent(t *testing.T) {
	mk := func(order []string) []byte {
		reg := &Registry{}
		for _, label := range order {
			fill(reg.NewRecorder(label, 2), 0)
		}
		b, err := reg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := mk([]string{"x", "y", "y"})
	b := mk([]string{"y", "x", "y"})
	reg := &Registry{}
	x, y := reg.NewRecorder("x", 1), reg.NewRecorder("y", 1)
	if recs := reg.Recorders(); len(recs) != 2 || recs[0] != x || recs[1] != y {
		t.Fatalf("Recorders() = %v, want both recorders in creation order", recs)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot depends on registration order:\n%s\nvs\n%s", a, b)
	}
	// The duplicated label must carry doubled counts.
	var snap struct {
		Recorders []struct {
			Label  string `json:"label"`
			Drives []struct {
				Dispatches int64 `json:"dispatches"`
			} `json:"drives"`
		} `json:"recorders"`
	}
	if err := json.Unmarshal(a, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recorders) != 2 {
		t.Fatalf("got %d recorders, want 2 (merged by label)", len(snap.Recorders))
	}
	for _, r := range snap.Recorders {
		want := int64(11) // 10 clean + 1 faulted per fill
		if r.Label == "y" {
			want = 22
		}
		if r.Drives[0].Dispatches != want {
			t.Fatalf("label %s drive0 dispatches = %d, want %d", r.Label, r.Drives[0].Dispatches, want)
		}
	}
}

func TestTraceJSONLDeterministicAndValid(t *testing.T) {
	mk := func(order []int64) string {
		reg := &Registry{TraceCap: 64}
		for _, base := range order {
			fill(reg.NewRecorder("lbl", 1), base)
		}
		var buf bytes.Buffer
		if err := reg.WriteTraceJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := mk([]int64{0, 1000})
	b := mk([]int64{1000, 0})
	if a != b {
		t.Fatal("trace JSONL depends on recorder registration order")
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != 22 {
		t.Fatalf("got %d trace lines, want 22", len(lines))
	}
	for _, l := range lines {
		var rec TraceRecord
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", l, err)
		}
		if rec.Label != "lbl" {
			t.Fatalf("line missing label: %q", l)
		}
	}
}

// TestFaultedRunFeedsNoHistogram pins the exclusion rule at the package
// level: faulted runs count as dispatches but never contribute latency.
func TestFaultedRunFeedsNoHistogram(t *testing.T) {
	reg := &Registry{}
	rec := reg.NewRecorder("x", 1)
	d := rec.Drive(0)
	d.FaultedRun(Dispatch{Class: Foreground, Op: OpRead}, disk.FaultTransient, 500)
	var total int64
	for c := 0; c < int(NumClasses); c++ {
		for op := 0; op < int(NumOps); op++ {
			total += d.Service[c][op].Count + d.Wait[c][op].Count
		}
	}
	if total != 0 {
		t.Fatalf("faulted run fed %d histogram samples", total)
	}
	if d.Dispatches != 1 || d.Faulted != 1 || d.Failovers != 0 {
		t.Fatalf("counters = %d/%d/%d", d.Dispatches, d.Faulted, d.Failovers)
	}
}

func TestHistQuantileUS(t *testing.T) {
	var h Hist
	if got := h.QuantileUS(0.99); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	// 99 fast samples and one slow one: p50 stays in the fast bucket,
	// p99+ reaches the slow one, and the estimate never under-reports.
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket 7: [64,127]
	}
	h.Observe(100000) // bucket 17
	if got := h.QuantileUS(0.5); got != 127 {
		t.Fatalf("p50 = %d, want 127 (bucket upper bound)", got)
	}
	if got := h.QuantileUS(1.0); got != (1<<17)-1 {
		t.Fatalf("p100 = %d, want %d", got, (1<<17)-1)
	}
	if got := h.QuantileUS(0.99); got != 127 {
		t.Fatalf("p99 = %d, want 127 (rank 99 of 100)", got)
	}
	// All-zero samples sit in bucket 0.
	var z Hist
	z.Observe(0)
	if got := z.QuantileUS(0.99); got != 0 {
		t.Fatalf("zero-only p99 = %d", got)
	}
}
