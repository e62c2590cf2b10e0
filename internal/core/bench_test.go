package core

import (
	"testing"

	"repro/internal/layout"
)

// BenchmarkArrayClosedLoop is the array layer's own number: one op is one
// logical request submitted and completed on closedLoop's array (the
// benchmark's 2x3 SR-Array, rsatf, 12 clients), with nothing above core in
// the way. The pools and the delayed-write table reach steady state before
// the timer starts. The oracle legs turn the integrity oracle on as a
// crash-enabled brick does (VerifyReads and Crash.Enabled, a third of the
// requests writes), on RAID-10 as the cluster's bricks run it and on the
// SR-Array. scripts/bench.sh guard holds write-delayed and both oracle legs
// to one allocation per request.
func BenchmarkArrayClosedLoop(b *testing.B) {
	foreground := func(o *Options) { o.ForegroundWrites = true }
	oracle := func(o *Options) {
		o.VerifyReads = true
		o.Crash = CrashModel{Enabled: true}
	}
	sr := layout.SRArray(2, 3)
	for _, leg := range []struct {
		name       string
		cfg        layout.Config
		writeShare float64
		opts       func(*Options)
	}{
		{"read", sr, 0, nil},
		{"write-delayed", sr, 1, nil},
		{"write-foreground", sr, 1, foreground},
		{"oracle-raid10", layout.RAID10(4), 0.33, oracle},
		{"oracle-sr-array", sr, 0.33, oracle},
	} {
		b.Run(leg.name, func(b *testing.B) {
			const warm = 6000
			runTo := closedLoop(b, leg.cfg, leg.writeShare, leg.opts, warm+b.N)
			runTo(warm)
			b.ReportAllocs()
			b.ResetTimer()
			runTo(warm + b.N)
		})
	}
}
