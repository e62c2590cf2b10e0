package des

import "testing"

func TestPacer(t *testing.T) {
	var p Pacer
	if got := p.Ready(5); got != 5 {
		t.Fatalf("zero pacer ready at %v, want 5 (now)", got)
	}
	// 1000 bytes at 2 MB/s hold the pacer 500us.
	if at := p.Take(5, 1000, 2); at != 5 {
		t.Fatalf("first Take starts at %v, want 5", at)
	}
	if got := p.Ready(100); got != 505 {
		t.Fatalf("ready at %v, want 505", got)
	}
	if at, want := p.Take(100, 1000, 2), Time(505); at != want {
		t.Fatalf("Take started at %v, want Ready(now) %v", at, want)
	}
	// After an idle gap the next unit starts now, not at the stale mark.
	if at := p.Take(5000, 1000, 2); at != 5000 {
		t.Fatalf("Take after an idle gap started at %v, want 5000", at)
	}
	if got := p.Ready(5000); got != 5500 {
		t.Fatalf("ready at %v after the gap, want 5500", got)
	}

	// Back-to-back units charged at one instant (the recovery scan's
	// batch) land bit-exactly where repeated addition puts them.
	var q Pacer
	now, want := Time(12345.678), Time(12345.678)
	for i := 0; i < 32; i++ {
		if at := q.Take(now, 65536+int64(i), 7.3); at != want {
			t.Fatalf("unit %d starts at %v, want %v", i, at, want)
		}
		want += Time(float64(65536+int64(i)) / 7.3)
	}
	if got := q.Ready(now); got != want {
		t.Fatalf("after 32 units ready at %v, want %v (diff %g)", got, want, float64(got-want))
	}
}
