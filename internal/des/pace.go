package des

// Pacer spaces units of background work to a bandwidth cap on the virtual
// clock: each unit of b bytes at r MB/s holds the pacer for b/r
// microseconds (the 1e6 factors of bytes/(MB/s) cancel). The zero value is
// ready at once. Rebuild, scrub, the recovery scan and cluster backfill
// share it; each caller decides when a unit is charged.
type Pacer struct {
	next Time
}

// Ready reports the earliest instant at or after now when the next unit
// may start.
func (p *Pacer) Ready(now Time) Time {
	if p.next > now {
		return p.next
	}
	return now
}

// Take charges a unit of bytes at mbps MB/s and returns its start: the
// next unit becomes ready that long after it.
func (p *Pacer) Take(now Time, bytes int64, mbps float64) Time {
	at := p.Ready(now)
	p.next = at + Time(float64(bytes)/mbps)
	return at
}
