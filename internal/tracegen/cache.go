package tracegen

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// The experiments regenerate identical traces many times: every figure that
// replays Cello calls Generate with the same Params, and the fixed-point
// retune inside Generate makes each synthesis cost several full trace
// passes. Traces are immutable after generation (replay and statistics only
// read them; Scale copies), so one synthesis can safely be shared across
// experiments and across worker goroutines.

type cacheEntry struct {
	once sync.Once
	tr   *trace.Trace
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*cacheEntry{}
)

// cacheKey derives a deterministic key from the full parameter set. Params
// contains a slice (Sizes), so it is not directly comparable; the rendered
// form covers every field, including the seed.
func cacheKey(p Params) string { return fmt.Sprintf("%+v", p) }

// GenerateCached returns the trace for p, synthesizing it at most once per
// process. Concurrent callers with the same Params block until the single
// synthesis finishes (per-entry sync.Once), so a parallel sweep does not
// duplicate work. The returned trace is shared: callers must not mutate it
// — use Scale or copy first, as the experiments already do.
func GenerateCached(p Params) *trace.Trace {
	key := cacheKey(p)
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &cacheEntry{}
		cache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.tr = Generate(p) })
	return e.tr
}
