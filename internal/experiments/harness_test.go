package experiments

import (
	"testing"

	"repro/internal/chaos"
	"repro/internal/des"
)

// TestClientLoopBurst drives the shared closed-loop client against a stub
// brick with staggered service times: the window holds at outstanding, a
// burst of extra widens it by exactly extra for the burst's duration, the
// first extra completions after the burst ends narrow it back, and the
// loop never issues more than ios requests.
func TestClientLoopBurst(t *testing.T) {
	const (
		ios         = 300
		outstanding = 4
		extra       = 3
	)
	// Half a microsecond off the 10 µs grid completions land on, so no
	// completion ties with the burst's start or end.
	burstAt := 20*des.Millisecond + 0.5
	burstLen := 15 * des.Millisecond

	sim := des.New()
	l := &clientLoop{sim: sim, ios: ios, outstanding: outstanding}
	inflight, pastBurst, seen := 0, 0, 0
	l.attempt = func(seq int, submitAt des.Time) {
		if seq != seen {
			t.Errorf("attempt got seq %d, want %d", seq, seen)
		}
		seen++
		inflight++
		sim.After(des.Millisecond+des.Time(seq%7)*10*des.Microsecond, func() {
			inflight--
			if lat := l.complete(submitAt, false); lat != sim.Now()-submitAt {
				t.Errorf("complete returned latency %v, want %v", lat, sim.Now()-submitAt)
			}
			if l.issued == ios {
				return // the tail drains; there is nothing left to reissue
			}
			want := outstanding
			switch now := sim.Now(); {
			case now < burstAt:
			case now < burstAt+burstLen:
				want += extra
			default:
				pastBurst++
				want += max(extra-pastBurst, 0)
			}
			if inflight != want {
				t.Errorf("t=%v: %d in flight, want %d", sim.Now(), inflight, want)
			}
		})
	}
	sim.At(0, l.prime)
	sim.At(burstAt, func() {
		l.burst(chaos.Event{At: burstAt, Kind: chaos.ScrubPass, Factor: extra}) // not a burst: ignored
		l.burst(chaos.Event{At: burstAt, Kind: chaos.LoadBurst, Brick: chaos.ClientBrick, Factor: extra, Duration: burstLen})
		if inflight != outstanding+extra {
			t.Errorf("burst left %d in flight, want %d", inflight, outstanding+extra)
		}
	})
	sim.Run()

	if pastBurst < extra {
		t.Fatalf("run ended %d completions after the burst; the narrowing was never observed", pastBurst)
	}
	if l.issued != ios || l.finished != ios || seen != ios || inflight != 0 {
		t.Errorf("issued=%d finished=%d attempts=%d inflight=%d, want %d/%d/%d/0", l.issued, l.finished, seen, inflight, ios, ios, ios)
	}
	if err := l.drained("stub"); err != nil {
		t.Error(err)
	}
}
