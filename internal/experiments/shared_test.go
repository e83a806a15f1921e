package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"buspower/internal/bus"
	"buspower/internal/coding"
	"buspower/internal/memo"
)

func testMeter(v uint64) func() (*bus.Meter, error) {
	return func() (*bus.Meter, error) {
		return coding.MeasureRawValues(busWidth, []uint64{v, v ^ 0xFF}), nil
	}
}

func memoKey(i int) traceID { return traceID{source: "k", n: i} }

// cached reports whether m holds a completed entry for key. A probe of
// an absent key inserts it, so callers probe the keys they expect present
// before the ones they expect gone.
func cached[K comparable, V any](m *memo.Memo[K, V], key K) bool {
	hit := true
	m.Do(key, func() (V, error) {
		hit = false
		var zero V
		return zero, nil
	})
	return hit
}

// The memo must stay bounded, evicting least-recently-used entries one at
// a time instead of flushing wholesale.
func TestMemoEvictsLRU(t *testing.T) {
	m := memo.New[traceID, *bus.Meter](4)
	for i := 0; i < 10; i++ {
		if _, err := m.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Misses != 10 || st.Hits != 0 || st.Evictions != 6 || st.Size != 4 || st.InFlight != 0 {
		t.Fatalf("stats %+v, want 10 misses / 0 hits / 6 evictions / size 4 / 0 in flight", st)
	}
	if !cached(m, memoKey(10)) {
		t.Error("most-recent entry was evicted")
	}
	if cached(m, memoKey(1)) {
		t.Error("least-recently-used entry survived eviction")
	}
}

// An in-flight computation must never be evicted: while one goroutine is
// computing a key, a flood of other keys overflows the memo, and a second
// caller for the in-flight key must still coalesce onto the first
// computation rather than start its own.
func TestMemoKeepsInFlightEntries(t *testing.T) {
	m := memo.New[traceID, *bus.Meter](2)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	slowKey := memoKey(999)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(slowKey, func() (*bus.Meter, error) {
			calls.Add(1)
			close(started)
			<-release
			return coding.MeasureRawValues(busWidth, []uint64{1}), nil
		})
	}()
	<-started

	if st := m.Stats(); st.InFlight != 1 {
		t.Fatalf("InFlight = %d during computation, want 1", st.InFlight)
	}

	// Overflow the memo while slowKey is still computing.
	for i := 0; i < 8; i++ {
		if _, err := m.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.InFlight != 1 || st.Size != 2 {
		t.Fatalf("after overflow: in-flight %d, size %d; want the in-flight entry kept beside one completed entry", st.InFlight, st.Size)
	}

	// A second caller for slowKey must wait for the first computation,
	// not run its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(slowKey, func() (*bus.Meter, error) {
			calls.Add(1)
			return coding.MeasureRawValues(busWidth, []uint64{2}), nil
		})
	}()
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("key computed %d times, want 1", n)
	}
}

// Touching an entry refreshes its recency: re-reading the oldest key
// before overflowing must keep it alive while a younger untouched key is
// evicted instead.
func TestMemoTouchRefreshesRecency(t *testing.T) {
	m := memo.New[traceID, *bus.Meter](3)
	for i := 0; i < 3; i++ {
		if _, err := m.Do(memoKey(i+1), testMeter(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 1 (the oldest), then insert a fourth key: key 2 is now
	// the LRU and must be the one evicted.
	if _, err := m.Do(memoKey(1), testMeter(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Do(memoKey(4), testMeter(3)); err != nil {
		t.Fatal(err)
	}
	if !cached(m, memoKey(1)) {
		t.Error("recently touched entry was evicted")
	}
	if cached(m, memoKey(2)) {
		t.Error("least-recently-used entry survived")
	}
}

// TestMemoSingleFlightUnderContention hammers a small set of keys from
// many goroutines (run under -race in CI): every key must be computed
// exactly once even while LRU pressure from disjoint keys churns the
// memo, and all callers for a key must observe the same value.
func TestMemoSingleFlightUnderContention(t *testing.T) {
	m := memo.New[int, int](4)
	const keys = 8
	const callers = 6
	var computed [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < keys; k++ {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				v, err := m.Do(k, func() (int, error) {
					computed[k].Add(1)
					return k * 100, nil
				})
				if err != nil || v != k*100 {
					t.Errorf("key %d: got (%d, %v), want (%d, nil)", k, v, err, k*100)
				}
			}(k)
		}
	}
	close(start)
	wg.Wait()
	for k := 0; k < keys; k++ {
		// Keys may age out between caller waves and be recomputed, but a
		// computation can never run concurrently with itself — with all
		// callers racing through close(start), each key computes once per
		// residency. The hard invariant: at least 1 (it ran), and never
		// more than the caller count (no free-for-all).
		if n := computed[k].Load(); n < 1 || n > callers {
			t.Errorf("key %d computed %d times", k, n)
		}
	}
	st := m.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after all callers returned", st.InFlight)
	}
	if st.Hits+st.Misses != keys*callers {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, keys*callers)
	}
}

// TestMemoResetKeepsInFlight pins Reset's contract: completed entries and
// counters go, an in-flight computation stays so its waiters coalesce.
func TestMemoResetKeepsInFlight(t *testing.T) {
	m := memo.New[traceID, *bus.Meter](8)
	if _, err := m.Do(memoKey(1), testMeter(1)); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Do(memoKey(2), func() (*bus.Meter, error) {
			close(started)
			<-release
			return coding.MeasureRawValues(busWidth, []uint64{1}), nil
		})
	}()
	<-started
	m.Reset()
	st := m.Stats()
	if st.Size != 1 || st.InFlight != 1 {
		t.Fatalf("after Reset: size %d in-flight %d, want 1 and 1", st.Size, st.InFlight)
	}
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("after Reset: counters %+v not zeroed", st)
	}
	close(release)
	wg.Wait()
}

// TestEvalResultMemoizes exercises the package-level result memo through
// evaluate: a second call with a rebuilt identical transcoder must hit
// (keyed on the canonical config, not the instance), the retained Result
// must be detached from the engine's reused coded meter, a different Λ
// must share the entry, and a different verify policy must miss.
func TestEvalResultMemoizes(t *testing.T) {
	ClearEvalMemo()
	t.Cleanup(ClearEvalMemo)
	vals := make([]uint64, 2000)
	for i := range vals {
		vals[i] = uint64(i*2654435761) >> 16
	}
	trace := []evalTrace{{id: traceID{source: "test-eval-memo"}, values: vals}}
	cfg := Config{}
	build := func() coding.Transcoder {
		win, err := coding.NewWindow(busWidth, 8, evalLambda)
		if err != nil {
			t.Fatal(err)
		}
		return win
	}
	eval := func(tc coding.Transcoder, lambda float64, cfg Config) coding.Result {
		t.Helper()
		res, err := evaluate(context.Background(), []gridPoint{{tc: tc, lambda: lambda}}, trace, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res[0][0]
	}
	before := EvalMemoStats()
	a := eval(build(), evalLambda, cfg)
	// Evaluate something else on the same trace: if the memoized Result
	// still referenced a reused coded meter, this would corrupt it.
	other, err := coding.NewStride(busWidth, 2, evalLambda)
	if err != nil {
		t.Fatal(err)
	}
	eval(other, evalLambda, cfg)
	b := eval(build(), evalLambda, cfg) // rebuilt instance: must hit
	if a.Coded != b.Coded {
		t.Fatal("memo hit returned a different Result than the original computation")
	}
	if a.CodedCost() != b.CodedCost() {
		t.Fatalf("retained Result was corrupted by later evaluations: %v != %v", b.CodedCost(), a.CodedCost())
	}
	st := EvalMemoStats()
	if hits := st.Hits - before.Hits; hits != 1 {
		t.Fatalf("got %d hits, want exactly 1 (the rebuilt-instance call)", hits)
	}
	// A different metered Λ shares the same entry — encoder output never
	// depends on the Λ the meters are read at — and the retrieved Result
	// is stamped with the requested Λ.
	atTwo := eval(build(), 2.0, cfg)
	if atTwo.Lambda != 2.0 {
		t.Fatalf("Λ=2 retrieval carries Λ=%g", atTwo.Lambda)
	}
	if atTwo.Coded != a.Coded {
		t.Fatal("Λ=2 retrieval recomputed instead of sharing the Λ=1 encode")
	}
	if st2 := EvalMemoStats(); st2.Hits != st.Hits+1 {
		t.Fatalf("Λ change missed the memo (hits %d -> %d)", st.Hits, st2.Hits)
	}
	// A different verify policy is still a distinct entry.
	st = EvalMemoStats()
	eval(build(), evalLambda, Config{Verify: coding.VerifySampled(0)})
	if st2 := EvalMemoStats(); st2.Hits != st.Hits {
		t.Fatalf("verify-policy change hit the memo (hits %d -> %d)", st.Hits, st2.Hits)
	}
}

// TestEvaluatePlanSingleFlight: two concurrent evaluate calls over the
// same points on one trace encode each configuration once. The batch
// claim hands every key to whichever call claims first, so the delivered
// cycle count is exactly one plan's worth however the calls interleave
// (a memo read before the encode and written after it let both calls
// miss and both encode).
func TestEvaluatePlanSingleFlight(t *testing.T) {
	t.Cleanup(ClearEvalMemo)
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(i*i) % 61 * 0x10001
	}
	trace := []evalTrace{{id: traceID{source: "test-plan-single-flight", n: len(vals)}, values: vals}}
	var points []gridPoint
	for _, n := range []int{4, 8, 16} {
		w, err := coding.NewWindow(busWidth, n, evalLambda)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, gridPoint{tc: w, lambda: evalLambda})
	}
	st, err := coding.NewStride(busWidth, 3, evalLambda)
	if err != nil {
		t.Fatal(err)
	}
	// One config read at two Λ: a duplicate key within the call.
	points = append(points, gridPoint{tc: st, lambda: 1}, gridPoint{tc: st, lambda: 2})
	want := uint64(len(vals) * len(points))
	for round := 0; round < 20; round++ {
		ClearEvalMemo()
		before := coding.EvaluatedCycles()
		var wg sync.WaitGroup
		start := make(chan struct{})
		results := make([][][]coding.Result, 2)
		for c := range results {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				var err error
				if results[c], err = evaluate(context.Background(), points, trace, Config{}); err != nil {
					t.Error(err)
				}
			}(c)
		}
		close(start)
		wg.Wait()
		if got := coding.EvaluatedCycles() - before; got != want {
			t.Fatalf("round %d: %d cycles evaluated, want %d (one encode per config)", round, got, want)
		}
		for i, p := range points {
			a, b := results[0][0][i], results[1][0][i]
			if a.Coded != b.Coded || a.Lambda != p.lambda || b.Lambda != p.lambda {
				t.Fatalf("round %d point %d: callers got different results", round, i)
			}
		}
	}
}

// TestRandomBundleMemoizes: the random comparison trace and its raw meter
// are generated once per length and shared thereafter.
func TestRandomBundleMemoizes(t *testing.T) {
	a := randomBundleFor(1234)
	b := randomBundleFor(1234)
	if &a.trace[0] != &b.trace[0] || a.meter != b.meter {
		t.Fatal("randomBundleFor regenerated the trace or meter for the same length")
	}
	if len(a.trace) != 1234 {
		t.Fatalf("trace length %d, want 1234", len(a.trace))
	}
	c := randomBundleFor(999)
	if len(c.trace) != 999 || a.meter == c.meter {
		t.Fatal("different lengths must be distinct entries")
	}
}
