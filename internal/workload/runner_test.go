package workload

import (
	"sync"
	"testing"
)

// Single-flight contract: 16 goroutines racing on the same (workload,
// config) key must trigger exactly one simulation; everyone shares the
// winner's backing arrays. Run under -race this also stresses the cache's
// synchronization.
func TestTracesSingleFlight(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	const callers = 16
	results := make([]TraceSet, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line everyone up on the cold cache
			results[i], errs[i] = Traces("li", cfg)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if &results[i].Reg[0] != &results[0].Reg[0] {
			t.Errorf("caller %d got a different backing array — duplicate simulation", i)
		}
	}
	hits, misses := TraceCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation", misses)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
}

// Distinct keys must not serialize behind each other's in-flight
// simulation, and each must simulate exactly once.
func TestTracesConcurrentDistinctKeys(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	names := []string{"li", "gcc", "swim", "compress"}
	var wg sync.WaitGroup
	for _, name := range names {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := Traces(name, cfg); err != nil {
					t.Error(err)
				}
			}(name)
		}
	}
	wg.Wait()
	_, misses := TraceCacheStats()
	if misses != uint64(len(names)) {
		t.Errorf("misses = %d, want %d (one simulation per key)", misses, len(names))
	}
}

// Errors are part of the single-flight contract: a failing key is
// simulated once and its error delivered to every caller.
func TestTracesCachesErrors(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	if _, err := Traces("no-such-benchmark", cfg); err == nil {
		t.Fatal("unknown workload must fail")
	}
	if _, err := Traces("no-such-benchmark", cfg); err == nil {
		t.Fatal("cached lookup must repeat the failure")
	}
	_, misses := TraceCacheStats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (error cached)", misses)
	}
}

// TestTracesCacheIsBounded: however many distinct run configs callers
// ask for, the in-memory cache keeps at most traceCacheLimit of them,
// evicting the least recently used.
func TestTracesCacheIsBounded(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfgOf := func(i int) RunConfig { return RunConfig{MaxInstructions: 2_000 + uint64(i), MaxBusValues: 200} }
	for i := 0; i <= traceCacheLimit; i++ {
		if _, err := Traces("li", cfgOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := traceMemo.Load().Stats(); st.Size > traceCacheLimit || st.Evictions != 1 {
		t.Fatalf("after %d distinct configs: %d entries, %d evictions; want at most %d entries, 1 eviction",
			traceCacheLimit+1, st.Size, st.Evictions, traceCacheLimit)
	}
	// The newest config is still cached; the oldest was the one evicted.
	if _, err := Traces("li", cfgOf(traceCacheLimit)); err != nil {
		t.Fatal(err)
	}
	if _, err := Traces("li", cfgOf(0)); err != nil {
		t.Fatal(err)
	}
	if hits, misses := TraceCacheStats(); hits != 1 || misses != traceCacheLimit+2 {
		t.Errorf("hits %d / misses %d, want 1 / %d", hits, misses, traceCacheLimit+2)
	}
}
