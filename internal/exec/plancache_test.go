package exec

import (
	"fmt"
	"sync"
	"testing"
)

func ck(q string) CacheKey {
	return CacheKey{Query: q, Planner: "hsp", Engine: "monet"}
}

// TestPlanCacheLRU checks hit/miss accounting and least-recently-used
// eviction order.
func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	if _, ok := c.Get(ck("a"), 0); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Add(ck("a"), "A", 0, true)
	c.Add(ck("b"), "B", 0, true)
	if v, ok := c.Get(ck("a"), 0); !ok || v != "A" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// a is now most recently used; adding c must evict b.
	c.Add(ck("c"), "C", 0, true)
	if _, ok := c.Get(ck("b"), 0); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if _, ok := c.Get(ck("a"), 0); !ok {
		t.Fatal("a was evicted; LRU order wrong")
	}
	s := c.Stats()
	if s.Len != 2 || s.Cap != 2 {
		t.Fatalf("Stats Len/Cap = %d/%d, want 2/2", s.Len, s.Cap)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("Stats Hits/Misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
}

// TestPlanCacheKeyDistinguishes verifies the full key — query, raw
// alias namespace, planner, engine, rewrite set — separates entries.
func TestPlanCacheKeyDistinguishes(t *testing.T) {
	c := NewPlanCache(8)
	keys := []CacheKey{
		{Query: "q", Planner: "hsp", Engine: "monet"},
		{Query: "q", Planner: "cdp", Engine: "monet"},
		{Query: "q", Planner: "hsp", Engine: "rdf3x"},
		{Query: "q", Raw: true, Planner: "hsp", Engine: "monet"},
		{Query: "q", Planner: "hsp", Engine: "monet", Rewrites: "constfold"},
	}
	for i, k := range keys {
		c.Add(k, i, 0, true)
	}
	for i, k := range keys {
		v, ok := c.Get(k, 0)
		if !ok || v != i {
			t.Fatalf("Get(%+v) = %v, %v; want %d", k, v, ok, i)
		}
	}
}

// TestPlanCacheReplace re-adds an existing key and expects the value to
// be replaced without growing the cache.
func TestPlanCacheReplace(t *testing.T) {
	c := NewPlanCache(4)
	c.Add(ck("a"), 1, 0, true)
	c.Add(ck("a"), 2, 0, true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Add", c.Len())
	}
	if v, _ := c.Get(ck("a"), 0); v != 2 {
		t.Fatalf("Get = %v, want 2", v)
	}
}

// TestPlanCacheMinimumCapacity checks capacities below 1 are raised.
func TestPlanCacheMinimumCapacity(t *testing.T) {
	c := NewPlanCache(0)
	if c.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", c.Cap())
	}
	c.Add(ck("a"), 1, 0, true)
	c.Add(ck("b"), 2, 0, true)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestPlanCacheEpochInvalidation is the MVCC staleness guard: an entry
// compiled at an older dataset epoch is never served to a newer-epoch
// lookup — it is dropped lazily, counted in Invalidations, and the
// lookup misses so the caller re-plans.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	c := NewPlanCache(8)
	c.Add(ck("q"), "old", 1, true)
	if v, ok := c.Get(ck("q"), 1); !ok || v != "old" {
		t.Fatalf("same-epoch Get = %v, %v", v, ok)
	}
	if _, ok := c.Get(ck("q"), 2); ok {
		t.Fatal("stale-epoch entry was served")
	}
	s := c.Stats()
	if s.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", s.Invalidations)
	}
	if s.Len != 0 {
		t.Fatalf("stale entry not dropped: Len = %d", s.Len)
	}
	// Re-adding at the new epoch serves again.
	c.Add(ck("q"), "new", 2, true)
	if v, ok := c.Get(ck("q"), 2); !ok || v != "new" {
		t.Fatalf("new-epoch Get = %v, %v", v, ok)
	}

	// Aliases invalidate with their entry.
	c.Add(ck("t"), "tpl", 2, true)
	c.AddAlias(ck("alias"), ck("t"), "view", 2)
	if v, ok := c.GetAlias(ck("alias"), 2); !ok || v != "view" {
		t.Fatalf("same-epoch GetAlias = %v, %v", v, ok)
	}
	if _, ok := c.GetAlias(ck("alias"), 3); ok {
		t.Fatal("stale-epoch alias was served")
	}
	if _, ok := c.Get(ck("t"), 3); ok {
		t.Fatal("stale entry survived alias invalidation")
	}
	if s := c.Stats(); s.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", s.Invalidations)
	}
}

// TestPlanCacheDataIndependentEntries: an entry whose planner read no
// data serves every epoch — older and newer callers alike hit it, it
// is never invalidated, its aliases attach and hit at any epoch, and an
// Add from an older epoch is not a straggler to reject.
func TestPlanCacheDataIndependentEntries(t *testing.T) {
	c := NewPlanCache(8)
	c.Add(ck("q"), "plan", 3, false)
	for _, epoch := range []uint64{0, 3, 4, 100} {
		if v, ok := c.Get(ck("q"), epoch); !ok || v != "plan" {
			t.Fatalf("Get at epoch %d = %v, %v", epoch, v, ok)
		}
	}
	c.AddAlias(ck("raw"), ck("q"), "view", 7)
	for _, epoch := range []uint64{2, 7, 9} {
		if v, ok := c.GetAlias(ck("raw"), epoch); !ok || v != "view" {
			t.Fatalf("GetAlias at epoch %d = %v, %v", epoch, v, ok)
		}
	}
	c.Add(ck("late"), "plan", 1, false)
	if v, ok := c.Get(ck("late"), 9); !ok || v != "plan" {
		t.Fatalf("older-epoch Add was dropped: %v, %v", v, ok)
	}
	if s := c.Stats(); s.Invalidations != 0 || s.Misses != 0 || s.Hits != 8 {
		t.Fatalf("stats = %+v, want 8 hits, no misses, no invalidations", s)
	}

	// Beside it, a data-reading entry of the same cache keeps the
	// epoch guard.
	c.Add(ck("cdp"), "stats-plan", 9, true)
	if _, ok := c.Get(ck("cdp"), 10); ok {
		t.Fatal("data-reading entry served to a newer epoch")
	}
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", s.Invalidations)
	}
}

// TestPlanCacheStragglerKeepsFreshEntries: an in-flight request pinned
// to a superseded epoch must neither be served the newer entry, nor
// evict it, nor displace it with its own re-planned stale entry — so a
// commit racing slow requests never makes the cache thrash.
func TestPlanCacheStragglerKeepsFreshEntries(t *testing.T) {
	c := NewPlanCache(8)
	c.Add(ck("q"), "fresh", 5, true)

	// Older-epoch lookup: plain miss, no invalidation, entry retained.
	if _, ok := c.Get(ck("q"), 4); ok {
		t.Fatal("newer entry served to an older-epoch caller")
	}
	s := c.Stats()
	if s.Invalidations != 0 || s.Misses != 1 || s.Len != 1 {
		t.Fatalf("straggler lookup stats = %+v", s)
	}

	// The straggler re-plans and re-adds at its old epoch: ignored.
	c.Add(ck("q"), "stale", 4, true)
	if v, ok := c.Get(ck("q"), 5); !ok || v != "fresh" {
		t.Fatalf("current epoch lost its entry: %v, %v", v, ok)
	}

	// Even under a *different* key and a full cache, a stale Add must
	// not evict current-epoch entries.
	full := NewPlanCache(1)
	full.Add(ck("hot"), "fresh", 9, true)
	full.Add(ck("other"), "stale", 8, true)
	if v, ok := full.Get(ck("hot"), 9); !ok || v != "fresh" {
		t.Fatalf("stale Add evicted the current entry from a full cache: %v, %v", v, ok)
	}

	// A straggler alias must not attach its view to the fresh entry.
	c.AddAlias(ck("a"), ck("q"), "stale-view", 4)
	if _, ok := c.GetAlias(ck("a"), 5); ok {
		t.Fatal("stale view attached to the fresh entry")
	}

	// Older-epoch alias lookups also leave the fresh entry alone.
	c.AddAlias(ck("a"), ck("q"), "view", 5)
	if _, ok := c.GetAlias(ck("a"), 4); ok {
		t.Fatal("fresh alias served to an older-epoch caller")
	}
	if v, ok := c.GetAlias(ck("a"), 5); !ok || v != "view" {
		t.Fatalf("fresh alias lost: %v, %v", v, ok)
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines; run
// under -race this is the concurrency acceptance test.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := ck(fmt.Sprintf("q%d", (w+i)%32))
				if _, ok := c.Get(k, 0); !ok {
					c.Add(k, w, 0, true)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Fatalf("Len %d exceeds Cap %d", c.Len(), c.Cap())
	}
	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Fatalf("Hits+Misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
}
