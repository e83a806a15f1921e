package memo

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// waitHits blocks until m has counted at least n hits, so a test can
// fail or release a computing caller only once its waiters have joined.
func waitHits[K comparable, V any](t *testing.T, m *Memo[K, V], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Hits < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// counter records how often each key was computed.
type counter struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *counter) add(keys []string, claimed []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[string]int{}
	}
	vals := make([]int, len(claimed))
	for j, i := range claimed {
		c.n[keys[i]]++
		vals[j] = len(keys[i])
	}
	return vals
}

// TestDoAllOverlappingCallersComputeOnce: two callers whose key sets
// overlap compute every key exactly once. The second caller computes the
// key only it asked for while the first still holds the shared key, and
// only then waits on it.
func TestDoAllOverlappingCallersComputeOnce(t *testing.T) {
	m := New[string, int](8)
	var cnt counter
	inA := make(chan struct{})
	releaseA := make(chan struct{})
	aKeys := []string{"a", "bb"}
	bKeys := []string{"bb", "ccc"}
	var wg sync.WaitGroup
	var aVals, bVals []int
	var aErr, bErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		aVals, aErr = m.DoAll(aKeys, func(claimed []int) ([]int, error) {
			close(inA)
			<-releaseA
			return cnt.add(aKeys, claimed), nil
		})
	}()
	<-inA
	var bClaimed []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		bVals, bErr = m.DoAll(bKeys, func(claimed []int) ([]int, error) {
			for _, i := range claimed {
				bClaimed = append(bClaimed, bKeys[i])
			}
			return cnt.add(bKeys, claimed), nil
		})
	}()
	waitHits(t, m, 1) // b found "bb" in flight
	close(releaseA)
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("errors: %v, %v", aErr, bErr)
	}
	if !reflect.DeepEqual(aVals, []int{1, 2}) || !reflect.DeepEqual(bVals, []int{2, 3}) {
		t.Fatalf("values %v / %v, want [1 2] / [2 3]", aVals, bVals)
	}
	if !reflect.DeepEqual(bClaimed, []string{"ccc"}) {
		t.Fatalf("second caller claimed %v, want only [ccc]", bClaimed)
	}
	if !reflect.DeepEqual(cnt.n, map[string]int{"a": 1, "bb": 1, "ccc": 1}) {
		t.Fatalf("computations %v, want each key once", cnt.n)
	}
	if st := m.Stats(); st.Misses != 3 || st.Hits != 1 || st.InFlight != 0 || st.Size != 3 {
		t.Fatalf("stats %+v, want 3 misses / 1 hit / 0 in flight / size 3", st)
	}
}

// TestDoAllDuplicateKeys: a key repeated within one call is claimed and
// computed once (never waited on by its own claimant), and every
// occurrence gets the value.
func TestDoAllDuplicateKeys(t *testing.T) {
	m := New[string, int](8)
	keys := []string{"a", "a", "bb", "a", "bb"}
	calls := 0
	done := make(chan struct{})
	var vals []int
	var err error
	go func() {
		defer close(done)
		vals, err = m.DoAll(keys, func(claimed []int) ([]int, error) {
			calls++
			if !reflect.DeepEqual(claimed, []int{0, 2}) {
				t.Errorf("claimed %v, want the first occurrences [0 2]", claimed)
			}
			return []int{1, 2}, nil
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a duplicated key deadlocked its own call")
	}
	if err != nil || calls != 1 || !reflect.DeepEqual(vals, []int{1, 1, 2, 1, 2}) {
		t.Fatalf("got %v, %v after %d computations; want [1 1 2 1 2], nil after 1", vals, err, calls)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 3 {
		t.Fatalf("stats %+v, want 2 misses (distinct keys) and 3 hits (repeats)", st)
	}
}

// TestDoAllCancelledLeaderRetries: a batch leader that fails with its own
// context error un-caches every key it claimed; each waiter — whether it
// wanted one of those keys or several — claims them again and succeeds,
// and the recomputed values are cached.
func TestDoAllCancelledLeaderRetries(t *testing.T) {
	m := New[string, int](8)
	keys := []string{"a", "bb", "ccc"}
	inLeader := make(chan struct{})
	failLeader := make(chan struct{})
	var wg sync.WaitGroup
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = m.DoAll(keys, func([]int) ([]int, error) {
			close(inLeader)
			<-failLeader
			return nil, context.Canceled
		})
	}()
	<-inLeader
	var cnt counter
	waiterKeys := [][]string{{"a"}, {"bb", "ccc"}, {"ccc", "a"}}
	vals := make([][]int, len(waiterKeys))
	errs := make([]error, len(waiterKeys))
	for w, ks := range waiterKeys {
		wg.Add(1)
		go func(w int, ks []string) {
			defer wg.Done()
			vals[w], errs[w] = m.DoAll(ks, func(claimed []int) ([]int, error) {
				return cnt.add(ks, claimed), nil
			})
		}(w, ks)
	}
	waitHits(t, m, 5) // every waiter coalesced on every key it wants
	close(failLeader)
	wg.Wait()
	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error %v, want its own context.Canceled", leaderErr)
	}
	for w, ks := range waiterKeys {
		if errs[w] != nil {
			t.Fatalf("waiter %v: %v — the leader's cancellation leaked", ks, errs[w])
		}
		for i, k := range ks {
			if vals[w][i] != len(k) {
				t.Fatalf("waiter %v: values %v", ks, vals[w])
			}
		}
	}
	for _, k := range keys {
		if cnt.n[k] != 1 {
			t.Fatalf("after the cancelled leader, key %q recomputed %d times, want 1", k, cnt.n[k])
		}
	}
	for _, k := range keys {
		v, err := m.Do(k, func() (int, error) {
			t.Errorf("recomputed value of %q was not cached", k)
			return 0, nil
		})
		if err != nil || v != len(k) {
			t.Fatalf("cached %q: (%d, %v)", k, v, err)
		}
	}
	if st := m.Stats(); st.InFlight != 0 || st.Size != len(keys) {
		t.Fatalf("stats %+v after quiesce", st)
	}
}

// TestDoAllMultiKeyErrorIsNotCached: an error from a multi-key claim
// cannot be pinned on one key, so none of them caches it; a one-key
// claim's deterministic error stays cached.
func TestDoAllMultiKeyErrorIsNotCached(t *testing.T) {
	m := New[string, int](8)
	boom := errors.New("boom")
	if _, err := m.DoAll([]string{"a", "b"}, func([]int) ([]int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("batch error: %v", err)
	}
	if st := m.Stats(); st.Size != 0 {
		t.Fatalf("failed batch left %d entries", st.Size)
	}
	v, err := m.Do("a", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("recompute after batch error: (%d, %v)", v, err)
	}
	if _, err := m.Do("c", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("one-key error: %v", err)
	}
	if _, err := m.DoAll([]string{"c"}, func([]int) ([]int, error) {
		t.Error("a one-key deterministic error was recomputed")
		return []int{0}, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("cached one-key error: %v", err)
	}
}
