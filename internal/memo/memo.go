// Package memo is the shared single-flight, LRU-bounded cache behind
// the repository's in-process memos: workload traces, raw-bus meters,
// random traces, evaluation results and stride tapes are all instances
// of Memo.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of one memo's counters.
type Stats struct {
	// Hits counts keys that found an existing entry (including ones that
	// waited on an in-flight computation, and repeats of a key within one
	// DoAll call).
	Hits uint64
	// Misses counts keys whose computation a caller claimed.
	Misses uint64
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions uint64
	// InFlight is the number of claimed keys still computing.
	InFlight int
	// Size is the current number of entries (in-flight included).
	Size int
}

// Memo is a single-flight, LRU-bounded memo: concurrent callers for the
// same key compute once and share the result, and the entry count is
// bounded by evicting the least-recently-used *completed* entry — an
// in-flight entry is never dropped out from under its waiters (which
// would start a second computation of the same key).
//
// Callers claim keys in batches (DoAll); Do is the one-key case. A batch
// caller computes all of its claims in one call before it waits on keys
// other callers hold, so two batches with overlapping keys never wait on
// each other in a cycle, and no caller ever waits on its own claim.
//
// Errors are memoized alongside values when they belong to the key: a
// failed one-key computation is not retried until its entry ages out.
// Every other failure is un-cached the moment the computing caller
// finishes, and every coalesced waiter transparently claims the key
// again. That covers context errors (cancellation, deadline), which
// belong to the computing caller's request rather than to the key, and
// any failure of a multi-key claim, which cannot be attributed to one
// key: no key is ever cached with an error that came from computing a
// different key.
//
// The counters are atomics, not mu-guarded fields, so Stats is wait-free:
// a metrics scrape under load observes them without contending with (or
// being blocked behind) callers holding mu for eviction scans.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     *list.List // front = most recently used
	limit   int

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	inFlight  atomic.Int64
	size      atomic.Int64
}

type entry[K comparable, V any] struct {
	ready chan struct{}
	val   V
	err   error
	// done is set under Memo.mu before ready is closed; only done
	// entries are eviction candidates.
	done bool
	// retry is set (under mu, before ready is closed) when the
	// computation failed in a way that does not belong to the key: the
	// entry has already been un-cached and waiters must claim the key
	// again instead of adopting the failure.
	retry bool
	key   K
	elem  *list.Element
}

// New returns an empty memo holding at most limit completed entries.
func New[K comparable, V any](limit int) *Memo[K, V] {
	return &Memo[K, V]{entries: map[K]*entry[K, V]{}, lru: list.New(), limit: limit}
}

// Do returns the memoized value for key, running compute (without holding
// the memo lock) if no entry exists yet. It is DoAll for one key, without
// DoAll's per-call slices, so a hit allocates nothing.
func (c *Memo[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	for {
		c.mu.Lock()
		e, claimed := c.claimLocked(key)
		c.evictLocked()
		c.mu.Unlock()
		if claimed {
			v, err := compute()
			c.publish([]*entry[K, V]{e}, []V{v}, err)
			return v, err
		}
		<-e.ready
		if !e.retry {
			return e.val, e.err
		}
	}
}

// DoAll returns the memoized values for keys, aligned with keys. Keys
// may repeat; each distinct key is looked up once. Every distinct key
// without an entry is claimed by this call, and compute runs once over
// all of them: claimed holds the index in keys of each claimed key's
// first occurrence, and compute returns their values in the same order.
// Only after publishing those does DoAll wait on keys other callers are
// computing. A waiter whose computing caller failed with an un-cached
// error claims the key again, so hits+misses can exceed the number of
// keys only across such failures.
//
// compute's error is returned as is. It stays cached for the key when
// compute was called for exactly one key and the error is not a context
// error; otherwise every claimed key is un-cached (see Memo).
func (c *Memo[K, V]) DoAll(keys []K, compute func(claimed []int) ([]V, error)) ([]V, error) {
	out := make([]V, len(keys))
	// pending holds the index of each distinct key's first occurrence;
	// dups maps every later occurrence to it.
	var pending []int
	var dups [][2]int
	if len(keys) == 1 {
		pending = []int{0}
	} else {
		first := make(map[K]int, len(keys))
		for i, k := range keys {
			if j, ok := first[k]; ok {
				dups = append(dups, [2]int{i, j})
				continue
			}
			first[k] = i
			pending = append(pending, i)
		}
		c.hits.Add(uint64(len(dups)))
	}
	for len(pending) > 0 {
		var claimed, waits []int
		var claimedE, waitE []*entry[K, V]
		c.mu.Lock()
		for _, i := range pending {
			if e, mine := c.claimLocked(keys[i]); mine {
				claimed = append(claimed, i)
				claimedE = append(claimedE, e)
			} else {
				waits = append(waits, i)
				waitE = append(waitE, e)
			}
		}
		c.evictLocked()
		c.mu.Unlock()

		if len(claimed) > 0 {
			vals, err := compute(claimed)
			c.publish(claimedE, vals, err)
			if err != nil {
				return nil, err
			}
			for j, i := range claimed {
				out[i] = vals[j]
			}
		}
		pending = pending[:0]
		for j, e := range waitE {
			<-e.ready
			if e.retry {
				// The computing caller's failure was un-cached; this
				// caller may succeed. Race to claim the key again (the
				// losers wait on the winner).
				pending = append(pending, waits[j])
				continue
			}
			if e.err != nil {
				return nil, e.err
			}
			out[waits[j]] = e.val
		}
	}
	for _, d := range dups {
		out[d[0]] = out[d[1]]
	}
	return out, nil
}

// claimLocked returns key's entry, inserting an in-flight one that the
// caller then owns (claimed) when there is none. c.mu must be held.
func (c *Memo[K, V]) claimLocked(key K) (e *entry[K, V], claimed bool) {
	if e, ok := c.entries[key]; ok {
		c.hits.Add(1)
		c.lru.MoveToFront(e.elem)
		return e, false
	}
	c.misses.Add(1)
	c.inFlight.Add(1)
	e = &entry[K, V]{ready: make(chan struct{}), key: key}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	return e, true
}

// evictLocked drops least-recently-used completed entries until the
// memo is within its limit. Every entry in flight tolerates a temporary
// overshoot rather than evicting work in progress.
func (c *Memo[K, V]) evictLocked() {
	for le := c.lru.Back(); len(c.entries) > c.limit && le != nil; {
		prev := le.Prev()
		if e := le.Value.(*entry[K, V]); e.done {
			c.lru.Remove(le)
			delete(c.entries, e.key)
			c.evictions.Add(1)
		}
		le = prev
	}
	c.size.Store(int64(len(c.entries)))
}

// publish completes one caller's claims with compute's outcome and wakes
// their waiters.
func (c *Memo[K, V]) publish(claimed []*entry[K, V], vals []V, err error) {
	keep := err == nil || (len(claimed) == 1 && !isContextErr(err))
	c.mu.Lock()
	for j, e := range claimed {
		e.done = true
		switch {
		case err == nil:
			e.val = vals[j]
		case keep:
			e.err = err
		default:
			e.retry = true
			c.lru.Remove(e.elem)
			if c.entries[e.key] == e {
				delete(c.entries, e.key)
			}
		}
	}
	c.inFlight.Add(-int64(len(claimed)))
	c.size.Store(int64(len(c.entries)))
	c.mu.Unlock()
	for _, e := range claimed {
		close(e.ready)
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats returns a snapshot of the memo's counters. It is wait-free (pure
// atomic loads), so reporting and metrics-scrape paths can call it at any
// rate without contending with in-flight callers; the counters are read
// individually, so a snapshot taken mid-burst may be slightly torn
// between fields, which any monitoring consumer already tolerates.
func (c *Memo[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		InFlight:  int(c.inFlight.Load()),
		Size:      int(c.size.Load()),
	}
}

// Reset drops every completed entry and zeroes the counters, returning
// the memo to its cold state (for tests and the bench harness's
// memo-cold phases). In-flight entries are kept so their waiters still
// coalesce.
func (c *Memo[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		if e.done {
			c.lru.Remove(e.elem)
			delete(c.entries, k)
		}
	}
	c.size.Store(int64(len(c.entries)))
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}
