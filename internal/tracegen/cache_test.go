package tracegen

import (
	"sync"
	"testing"

	"repro/internal/des"
)

// resetCache drops every cached trace, so each test starts cold.
func resetCache() {
	cacheMu.Lock()
	cache = map[string]*cacheEntry{}
	cacheMu.Unlock()
}

func shortParams(seed int64) Params {
	p := CelloBase(seed)
	p.Duration = 200 * des.Second
	return p
}

func TestGenerateCachedReturnsSameTrace(t *testing.T) {
	resetCache()
	defer resetCache()
	p := shortParams(1)
	a := GenerateCached(p)
	b := GenerateCached(p)
	if a != b {
		t.Fatal("identical Params produced distinct cached traces")
	}
	if c := GenerateCached(shortParams(2)); c == a {
		t.Fatal("different seed hit the same cache entry")
	}
}

func TestGenerateCachedMatchesGenerate(t *testing.T) {
	resetCache()
	defer resetCache()
	p := shortParams(3)
	got := GenerateCached(p)
	want := Generate(p)
	if len(got.Records) != len(want.Records) {
		t.Fatalf("cached trace has %d records, direct has %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
}

func TestGenerateCachedSingleFlight(t *testing.T) {
	resetCache()
	defer resetCache()
	p := shortParams(4)
	const n = 8
	results := make([]interface{}, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i] = GenerateCached(p)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent GenerateCached returned distinct traces")
		}
	}
}
