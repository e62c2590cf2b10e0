package core

import "testing"

// BenchmarkArrayClosedLoop is the array layer's own number: one op is one
// logical request submitted and completed on closedLoop's array (the
// benchmark's 2x3 SR-Array, rsatf, 12 clients), with nothing above core in
// the way. The pools and the delayed-write table reach steady state before
// the timer starts. scripts/bench.sh guard holds write-delayed to one
// allocation per request.
func BenchmarkArrayClosedLoop(b *testing.B) {
	for _, leg := range []struct {
		name       string
		writeShare float64
		foreground bool
	}{
		{"read", 0, false},
		{"write-delayed", 1, false},
		{"write-foreground", 1, true},
	} {
		b.Run(leg.name, func(b *testing.B) {
			const warm = 6000
			runTo := closedLoop(b, leg.writeShare, leg.foreground, warm+b.N)
			runTo(warm)
			b.ReportAllocs()
			b.ResetTimer()
			runTo(warm + b.N)
		})
	}
}
