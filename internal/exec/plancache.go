package exec

import (
	"container/list"
	"sync"
)

// CacheKey identifies one compiled query in a PlanCache: everything
// that changes the compiled plan, and nothing that only changes how a
// run executes it (parallelism, sort budget, temp directory and
// exchange threshold are run-time options, so one entry serves them
// all). Building one allocates nothing.
type CacheKey struct {
	// Query is the SPARQL text the entry was planned from, byte for
	// byte: a normalised template, or the caller's raw text when Raw.
	Query string
	// Raw marks an exact-text alias key (see AddAlias), keeping the
	// namespace of callers' raw texts apart from normalised templates.
	Raw bool
	// Planner names the optimiser that produced the plan.
	Planner string
	// Engine names the storage substrate the plan was compiled against.
	Engine string
	// Rewrites is the canonical encoding of the algebraic rewrite rules
	// the entry was planned under; configurations with different rewrite
	// sets plan differently and must never share an entry.
	Rewrites string
}

// CacheStats is a point-in-time snapshot of a PlanCache's counters.
type CacheStats struct {
	// Hits counts Get calls that found an entry.
	Hits int64
	// Misses counts Get calls that found nothing.
	Misses int64
	// TemplateHits counts the subset of Hits where the caller's query
	// text differed from the cached entry's normalised template — hits
	// that text keying would have missed (constant-only variations of a
	// cached query shape). Recorded by GetServe.
	TemplateHits int64
	// Invalidations counts entries whose planner read the data, dropped
	// lazily because a lookup arrived with a newer dataset epoch than the
	// entry was planned at — the MVCC staleness guard. Entries planned
	// from the query alone are never invalidated. Every invalidation
	// also counts as a miss (the caller re-plans against the current
	// snapshot).
	Invalidations int64
	// Len is the current number of cached entries.
	Len int
	// Cap is the cache's capacity.
	Cap int
}

// PlanCache is a thread-safe LRU cache of compiled query plans for the
// serving path: parsing, heuristic planning and physical compilation
// run once per distinct query, and every further request reuses the
// immutable Compiled artifact. Values are opaque to the cache — the
// public facade stores its parse+plan+compile bundles — and the cache
// never copies or mutates them, so cached plans must be safe for
// concurrent runs (Compiled is).
//
// The cache is shared across MVCC snapshots of a live dataset, and what
// a commit does to an entry depends on whether its planner read the
// data (Add's readsData). A plan made from the query alone — HSP's,
// whose heuristics consult no statistics — is the same at every epoch,
// and a compiled plan runs on any snapshot of its dataset
// (Options.Engine), so such an entry is served to every epoch. A plan
// whose planner read the snapshot's statistics (the cost-based and
// hybrid planners) must follow the data: the entry records the epoch
// it was planned at, lookups carry the caller's epoch, and a lookup
// from a newer epoch invalidates the entry lazily — it is dropped,
// Invalidations counts it, and the lookup reports a miss so the caller
// re-plans against the current snapshot. A plan built from superseded
// statistics is therefore never served.
type PlanCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used
	m             map[CacheKey]*list.Element
	aliases       map[CacheKey]aliasVal
	hits          int64
	misses        int64
	templateHits  int64
	invalidations int64
	// maxEpoch is the newest epoch any entry was added at — the cache's
	// notion of "current". Data-reading adds from older epochs
	// (stragglers racing a commit) are dropped so they can never evict
	// current plans.
	maxEpoch uint64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key CacheKey
	val any
	// epoch is the dataset epoch the entry was planned at; readsData
	// marks a planner that read that epoch's data, so lookups from any
	// other epoch miss (and newer ones invalidate the entry).
	epoch     uint64
	readsData bool
	// aliases lists the alias keys pointing at this entry, so eviction
	// removes them together.
	aliases []CacheKey
}

// servesAt reports whether the entry may answer a lookup from epoch.
func (ent *cacheEntry) servesAt(epoch uint64) bool {
	return !ent.readsData || ent.epoch == epoch
}

// aliasVal is one alias-index slot: the entry it rides on (for LRU
// touching and lifetime) and the alias's own value.
type aliasVal struct {
	e   *list.Element
	val any
}

// maxAliases caps the alias keys one entry may accumulate: hot
// repeated texts get the fast exact-key path, an unbounded long tail
// of constant variations does not grow the index without limit.
const maxAliases = 8

// NewPlanCache returns an empty cache holding at most n entries;
// capacities below 1 are raised to 1.
func NewPlanCache(n int) *PlanCache {
	if n < 1 {
		n = 1
	}
	return &PlanCache{
		cap:     n,
		ll:      list.New(),
		m:       make(map[CacheKey]*list.Element, n),
		aliases: make(map[CacheKey]aliasVal, n),
	}
}

// Get returns the value cached under k for the caller's dataset epoch,
// marking it most recently used, and records a hit or miss. An entry
// that read the data of an older epoch than the caller's is
// invalidated (dropped, counted in Invalidations) and reported as a
// miss; one that read a newer epoch's — an in-flight request still
// pinned to a superseded snapshot racing a commit — is left in place
// and reported as a plain miss, so stragglers never evict the current
// epoch's plans. Entries that read no data hit at every epoch.
func (c *PlanCache) Get(k CacheKey, epoch uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if !ent.servesAt(epoch) {
		c.mismatch(e, ent, epoch)
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return ent.val, true
}

// mismatch books an epoch-mismatched lookup as a miss, dropping the
// entry only when it is the stale side (older than the caller).
// Callers hold mu.
func (c *PlanCache) mismatch(e *list.Element, ent *cacheEntry, epoch uint64) {
	if ent.epoch < epoch {
		c.invalidateEntry(e, ent)
	}
	c.misses++
}

// invalidateEntry drops a stale entry (aliases included) and counts
// the invalidation — the one place epoch-staleness eviction happens.
// Callers hold mu.
func (c *PlanCache) invalidateEntry(e *list.Element, ent *cacheEntry) {
	c.ll.Remove(e)
	delete(c.m, ent.key)
	c.dropAliases(ent)
	c.invalidations++
}

// Add caches v under k, planned at the given dataset epoch; readsData
// reports whether the planner consulted that epoch's data (statistics),
// which ties the entry to the epoch (see PlanCache). The least recently
// used entry (and its aliases) is evicted when the cache is full.
// Re-adding an existing key replaces its value and epoch and drops its
// aliases — they may embed the old value. Data-reading stragglers are
// rejected entirely: such an Add from an epoch older than the newest
// the cache has seen (a request re-planning against a superseded
// snapshot while commits race past it) inserts nothing, so it can
// neither displace a current-epoch entry under its key nor evict one
// from a full cache; the straggler's own execution still uses the plan
// it built.
func (c *PlanCache) Add(k CacheKey, v any, epoch uint64, readsData bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if readsData && epoch < c.maxEpoch {
		return
	}
	c.maxEpoch = max(c.maxEpoch, epoch)
	if e, ok := c.m[k]; ok {
		ent := e.Value.(*cacheEntry)
		ent.val = v
		ent.epoch, ent.readsData = epoch, readsData
		c.dropAliases(ent)
		c.ll.MoveToFront(e)
		return
	}
	for c.ll.Len() >= c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		ent := last.Value.(*cacheEntry)
		delete(c.m, ent.key)
		c.dropAliases(ent)
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, val: v, epoch: epoch, readsData: readsData})
}

// dropAliases removes an entry's alias-index slots. Callers hold mu.
func (c *PlanCache) dropAliases(ent *cacheEntry) {
	for _, a := range ent.aliases {
		delete(c.aliases, a)
	}
	ent.aliases = nil
}

// AddAlias indexes the entry cached under k by an additional alias key
// — the exact-text fast path in front of template normalisation. The
// alias carries its own value v (the caller's view of the shared
// entry), lives exactly as long as the entry, does not consume LRU
// capacity, and is dropped silently when the entry is absent, cannot
// serve the caller's epoch (a straggler must not attach a superseded
// view to the current epoch's entry), or already carries maxAliases
// aliases.
func (c *PlanCache) AddAlias(alias, k CacheKey, v any, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok || !e.Value.(*cacheEntry).servesAt(epoch) {
		return
	}
	c.addAliasLocked(alias, e, v)
}

// addAliasLocked registers alias → v on an entry. Callers hold mu.
func (c *PlanCache) addAliasLocked(alias CacheKey, e *list.Element, v any) {
	ent := e.Value.(*cacheEntry)
	if len(ent.aliases) >= maxAliases {
		return
	}
	if _, dup := c.aliases[alias]; dup {
		return
	}
	ent.aliases = append(ent.aliases, alias)
	c.aliases[alias] = aliasVal{e: e, val: v}
}

// GetServe is Get with the serving path's hit bookkeeping folded into
// one critical section: on a hit, templateHit(v) reporting true bumps
// the template-hit counter, and the alias key is registered to
// aliasVal(v) (see AddAlias). Both callbacks run under the cache lock
// and must be cheap and must not call back into the cache. Entries that
// cannot serve the caller's epoch are handled like Get's.
func (c *PlanCache) GetServe(k, alias CacheKey, epoch uint64, templateHit func(any) bool, aliasVal func(any) any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if !ent.servesAt(epoch) {
		c.mismatch(e, ent, epoch)
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	v := ent.val
	if templateHit(v) {
		c.templateHits++
	}
	c.addAliasLocked(alias, e, aliasVal(v))
	return v, true
}

// GetAlias returns the value stored under an alias key for the
// caller's dataset epoch, marking the underlying entry most recently
// used. A found alias counts as a hit; an alias whose data-reading
// entry is from an older epoch invalidates the entry (alias included)
// without counting a miss here, and one from a newer epoch is simply
// skipped — in both of the latter cases, as for a missing alias, the
// caller falls through to the normalised Get, which records the
// lookup's outcome.
func (c *PlanCache) GetAlias(alias CacheKey, epoch uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.aliases[alias]
	if !ok {
		return nil, false
	}
	ent := a.e.Value.(*cacheEntry)
	if !ent.servesAt(epoch) {
		// The fall-through Get books the miss; record only the
		// invalidation here (stale entries only), so one mismatched
		// lookup is not double-counted.
		if ent.epoch < epoch {
			c.invalidateEntry(a.e, ent)
		}
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(a.e)
	return a.val, true
}

// Len returns the current number of cached entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the cache capacity.
func (c *PlanCache) Cap() int { return c.cap }

// Stats snapshots the hit/miss counters and occupancy.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		TemplateHits:  c.templateHits,
		Invalidations: c.invalidations,
		Len:           c.ll.Len(),
		Cap:           c.cap,
	}
}
