package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"
)

// TestRespCacheLRU: the cache holds at most its limit, evicts the least
// recently used entry (a get refreshes recency, a re-put replaces the
// bytes without evicting), and counts hits, misses and evictions.
func TestRespCacheLRU(t *testing.T) {
	c := newRespCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // a is now the most recently used
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; the LRU victim should have been b, not a")
	}
	c.put("c", []byte("C2"))
	for key, want := range map[string]string{"a": "A", "c": "C2"} {
		if got, ok := c.get(key); !ok || string(got) != want {
			t.Fatalf("get(%q) = %q, %v; want %q", key, got, ok, want)
		}
	}
	hits, misses, evictions, entries := c.stats()
	if hits != 3 || misses != 1 || evictions != 1 || entries != 2 {
		t.Fatalf("stats = %d hits, %d misses, %d evictions, %d entries; want 3, 1, 1, 2", hits, misses, evictions, entries)
	}
}

// TestRespCacheBodyAlias: a request shed with 429 must not leave a
// raw-body alias behind, so the same bytes re-sent once the pool is free
// are evaluated and answered 200 with the full response. A differently
// spelled body for the same request misses the alias but is served from
// the canonical key's entry.
func TestRespCacheBodyAlias(t *testing.T) {
	srv := testServer(t, Options{Workers: 1, QueueDepth: -1})
	defer srv.Close()
	body := evalBody("businvert")
	release, err := srv.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec := postEval(srv.Handler(), body); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: code %d, want 429", rec.Code)
	}
	if _, ok := srv.respCache.get(bodyCacheKey([]byte(body))); ok {
		t.Fatal("a 429 stored a body alias")
	}
	release()

	rec := postEval(srv.Handler(), body)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"energy_removed_pct"`)) {
		t.Fatalf("after release: code %d, body %q", rec.Code, rec.Body.String())
	}
	alias, ok := srv.respCache.get(bodyCacheKey([]byte(body)))
	if !ok || !bytes.Equal(alias, rec.Body.Bytes()) {
		t.Fatalf("200 did not store its exact bytes under the body alias (stored %v)", ok)
	}

	respaced := strings.Replace(body, `],"`, `], "`, 1)
	if respaced == body {
		t.Fatalf("test body %q has no separator to respace", body)
	}
	hits0, misses0, _, _ := srv.respCache.stats()
	if again := postEval(srv.Handler(), respaced); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatalf("respaced body: code %d, body %q", again.Code, again.Body.String())
	}
	// The new spelling misses its alias and hits the canonical entry,
	// leaving one canonical entry plus one alias per spelling.
	hits, misses, _, entries := srv.respCache.stats()
	if hits-hits0 != 1 || misses-misses0 != 1 || entries != 3 {
		t.Fatalf("respaced body: %d hits, %d misses, %d entries; want 1, 1, 3", hits-hits0, misses-misses0, entries)
	}
}
