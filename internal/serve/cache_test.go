package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/mining"
)

// cacheCounters reads the server's cache counters.
func cacheCounters(srv *Server) (hits, misses uint64) {
	return srv.cache.counters()
}

// TestCacheHitMissCounters pins the counter semantics: first query
// misses, an identical repeat hits, a differently-spelled but
// identically-normalized query hits too.
func TestCacheHitMissCounters(t *testing.T) {
	srv := newTestServer(t, fixtureRows(150, 16, 11), Config{})
	q := RulesQuery{K: 5, By: BySupport, Antecedent: []int{3, 1}}
	first, v1, err := srv.TopRules(q)
	if err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	hits, misses := cacheCounters(srv)
	if hits != 0 || misses != 1 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", hits, misses)
	}
	again, v2, err := srv.TopRules(RulesQuery{K: 5, By: BySupport, Antecedent: []int{1, 3, 3}})
	if err != nil {
		t.Fatalf("TopRules repeat: %v", err)
	}
	hits, misses = cacheCounters(srv)
	if hits != 1 || misses != 1 {
		t.Fatalf("after normalized repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if v1 != v2 || !reflect.DeepEqual(first, again) {
		t.Fatal("cache hit returned a different result than the computed miss")
	}
}

// TestTopRulesRejectsBeforeTheCache pins that TopRules, which unlike
// the HTTP handler takes a query nobody has normalized, rejects a bad
// one with ErrBadQuery and never reaches the cache.
func TestTopRulesRejectsBeforeTheCache(t *testing.T) {
	srv := newTestServer(t, fixtureRows(150, 16, 11), Config{})
	for _, q := range []RulesQuery{
		{K: -1},
		{By: "height"},
		{MinConfidence: 2},
		{Antecedent: []int{2, -1}},
	} {
		if _, _, err := srv.TopRules(q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("TopRules(%+v) error = %v, want ErrBadQuery", q, err)
		}
	}
	if hits, misses := cacheCounters(srv); hits != 0 || misses != 0 {
		t.Errorf("rejected queries touched the cache: hits=%d misses=%d", hits, misses)
	}
}

// TestCacheNeverServesStaleVersion is the cache-correctness pin: after a
// Maintain publishes a new version, the same query must be recomputed
// against the new view — never answered from the old version's entry.
func TestCacheNeverServesStaleVersion(t *testing.T) {
	rows := fixtureRows(120, 14, 12)
	srv := newTestServer(t, rows, Config{})
	ctx := context.Background()
	q := RulesQuery{K: 8, By: BySupport}

	_, v1, err := srv.TopRules(q)
	if err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	if _, _, err := srv.TopRules(q); err != nil { // warm the entry
		t.Fatalf("TopRules warm: %v", err)
	}

	// Shift the distribution hard: a burst of one correlated pair changes
	// supports (and the top-by-support ranking).
	for i := 0; i < 60; i++ {
		if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{7, 8, 9}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	view, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if view.Version() <= v1 {
		t.Fatalf("Flush did not publish a new version: %d", view.Version())
	}

	hitsBefore, missesBefore := cacheCounters(srv)
	fresh, v2, err := srv.TopRules(q)
	if err != nil {
		t.Fatalf("TopRules after publish: %v", err)
	}
	if v2 != view.Version() {
		t.Fatalf("query answered from version %d, current is %d", v2, view.Version())
	}
	hits, misses := cacheCounters(srv)
	if hits != hitsBefore || misses != missesBefore+1 {
		t.Fatalf("stale-version lookup was a hit (hits %d→%d, misses %d→%d)",
			hitsBefore, hits, missesBefore, misses)
	}
	// The recomputed answer is the new view's own; TestOracle checks that
	// against the reference.
	if want := view.topRules(q); !reflect.DeepEqual(fresh, want) {
		t.Fatal("post-publish query does not match the new view's answer")
	}
}

// TestCacheLRUEviction pins the eviction order with a capacity-2 cache.
func TestCacheLRUEviction(t *testing.T) {
	srv := newTestServer(t, fixtureRows(100, 12, 13), Config{CacheSize: 2})
	queries := []RulesQuery{{K: 1}, {K: 2}, {K: 3}}
	for _, q := range queries {
		if _, _, err := srv.TopRules(q); err != nil {
			t.Fatalf("TopRules: %v", err)
		}
	}
	// {K:1} was evicted by {K:3}; {K:3} and {K:2} remain.
	_, missesBefore := cacheCounters(srv)
	if _, _, err := srv.TopRules(RulesQuery{K: 1}); err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	if _, misses := cacheCounters(srv); misses != missesBefore+1 {
		t.Fatal("evicted entry was served from cache")
	}
	hitsBefore, _ := cacheCounters(srv)
	if _, _, err := srv.TopRules(RulesQuery{K: 3}); err != nil {
		t.Fatalf("TopRules: %v", err)
	}
	if hits, _ := cacheCounters(srv); hits != hitsBefore+1 {
		t.Fatal("resident entry missed")
	}
}

// TestCacheDisabled pins CacheSize < 0: everything misses, nothing is
// stored, queries still work.
func TestCacheDisabled(t *testing.T) {
	srv := newTestServer(t, fixtureRows(100, 12, 14), Config{CacheSize: -1})
	for i := 0; i < 3; i++ {
		if _, _, err := srv.TopRules(RulesQuery{K: 4}); err != nil {
			t.Fatalf("TopRules: %v", err)
		}
	}
	hits, misses := cacheCounters(srv)
	if hits != 0 || misses != 3 {
		t.Fatalf("disabled cache: hits=%d misses=%d, want 0/3", hits, misses)
	}
}

// TestRecommendCached pins that recommendations go through the cache and
// respect version keying too.
func TestRecommendCached(t *testing.T) {
	srv := newTestServer(t, fixtureRows(150, 16, 15), Config{})
	ctx := context.Background()
	first, v1, err := srv.Recommend([]int{2}, 5)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	again, _, err := srv.Recommend([]int{2, 2}, 5) // normalizes identically
	if err != nil {
		t.Fatalf("Recommend repeat: %v", err)
	}
	hits, _ := cacheCounters(srv)
	if hits != 1 {
		t.Fatalf("normalized recommend repeat did not hit (hits=%d)", hits)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("recommend hit differs from the miss")
	}
	for i := 0; i < 40; i++ {
		if err := srv.Enqueue(ctx, Op{Kind: OpAppend, Items: []int{2, 13}}); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	view, err := srv.Flush(ctx)
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	_, v2, err := srv.Recommend([]int{2}, 5)
	if err != nil {
		t.Fatalf("Recommend after publish: %v", err)
	}
	if v2 != view.Version() || v2 == v1 {
		t.Fatalf("recommend served version %d after publish of %d", v2, view.Version())
	}
	// The consequent of every recommendation must add something new.
	rules, _, err := srv.Recommend([]int{2, 13}, 10)
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	for _, r := range rules {
		if containsAll([]int{2, 13}, r.Consequent) {
			t.Fatalf("recommendation %v adds nothing beyond the basket", r)
		}
	}
	if stats := srv.Stats(); stats.CacheHits == 0 || stats.CacheMisses == 0 {
		t.Fatalf("Stats does not expose cache counters: %+v", stats)
	}
}

// TestLRUCacheUnit exercises the raw cache: overwrite, eviction of the
// oldest key, version keying.
func TestLRUCacheUnit(t *testing.T) {
	c := newLRUCache(2)
	rulesA := []mining.Rule{{Support: 1}}
	rulesB := []mining.Rule{{Support: 2}}
	c.put(cacheKey{1, "q"}, rulesA)
	c.put(cacheKey{1, "q"}, rulesB) // overwrite moves to front, no growth
	if got, ok := c.get(cacheKey{1, "q"}); !ok || !reflect.DeepEqual(got, rulesB) {
		t.Fatal("overwrite lost the newest value")
	}
	if _, ok := c.get(cacheKey{2, "q"}); ok {
		t.Fatal("version 2 hit a version-1 entry")
	}
	c.put(cacheKey{2, "q"}, rulesA)
	c.put(cacheKey{3, "q"}, rulesB) // evicts (1, "q") — the least recently used
	if _, ok := c.get(cacheKey{1, "q"}); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := c.get(cacheKey{3, "q"}); !ok {
		t.Fatal("newest entry missing")
	}
}
