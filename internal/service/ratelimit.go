package service

import "repro/internal/des"

// TenantLimit is one tenant's token-bucket policy, in virtual time.
type TenantLimit struct {
	// Rate is the sustained budget in requests per virtual second; zero
	// or negative disables limiting for the tenant.
	Rate float64
	// Burst is the bucket capacity — how far above Rate a quiet tenant
	// may spike. Values below 1 are treated as 1 (a full bucket must
	// admit at least one request).
	Burst float64
}

// Limits is the gateway's rate-limit policy: a default bucket shape with
// per-tenant overrides.
type Limits struct {
	Default   TenantLimit
	PerTenant map[string]TenantLimit
}

// unavailableRetryAfter is the virtual Retry-After attached to 503s caused
// by the volume rejecting with ErrCrashed (every replica of the requested
// range down): the order of a circuit-breaker probe cycle, the earliest a
// retry could find a replica back. Gateway-closed 503s carry no hint: the
// service is going away, not recovering.
const unavailableRetryAfter = 5 * des.Millisecond

func (l Limits) forTenant(t string) TenantLimit {
	if tl, ok := l.PerTenant[t]; ok {
		return tl
	}
	return l.Default
}

// bucket is one tenant's token state. Buckets refill as a pure function
// of the virtual clock and are touched only on the gateway's run loop,
// so rate-limit decisions are deterministic in deterministic mode.
type bucket struct {
	tokens float64
	last   des.Time
}

// allow draws one token from tenant's bucket at virtual instant now. A
// rejection returns the virtual duration until the bucket refills to one
// token — the Retry-After the front-end surfaces.
func (g *Gateway) allow(tenant string, now des.Time) (retryAfter des.Time, ok bool) {
	tl := g.cfg.Limits.forTenant(tenant)
	if tl.Rate <= 0 {
		return 0, true
	}
	// During brownout the SLO controller slows the refill of throttled
	// tiers; the scale is 1 at Normal (and from a nil controller), so the
	// default path is arithmetic-identical to an unscaled bucket.
	rate := tl.Rate * g.cfg.SLO.RateScale(tenant)
	burst := tl.Burst
	if burst < 1 {
		burst = 1
	}
	b := g.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: burst, last: now}
		g.buckets[tenant] = b
	}
	b.tokens += rate * float64(now-b.last) / float64(des.Second)
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return des.Time((1 - b.tokens) / rate * float64(des.Second)), false
}
