// The server-side prepared-statement registry: register a query once,
// execute it forever by digest. Entries are keyed by hsp.QueryDigest
// (the canonical-rendering hash, so any spelling of the same query
// maps to one entry), bounded by an LRU, and epoch-aware — a commit
// moving the dataset epoch makes every registered statement stale, and
// each entry lazily re-prepares from its stored query text on its next
// execution (for an HSP statement a plan-cache hit: the cached plan
// survives the commit and the new statement runs it on the new
// snapshot). Replaced and evicted statements are merely dropped, never
// Closed: hsp.Stmt.Close frees nothing and in-flight executions on the
// old statement must keep working.

package hspserve

import (
	"container/list"
	"context"
	"sync"

	"github.com/sparql-hsp/hsp"
)

// regEntry is one registered statement: the digest key, the original
// query text (the re-prepare source), and the currently prepared form.
type regEntry struct {
	digest string
	query  string

	mu sync.Mutex
	st *hsp.Stmt
}

// statement returns the entry's prepared statement for the DB's
// current epoch, re-preparing from the stored text when a commit has
// moved the dataset on — the registry's epoch-aware invalidation.
func (e *regEntry) statement(ctx context.Context, db *hsp.DB, opts []hsp.ExecOption, reg *registry) (*hsp.Stmt, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st != nil && e.st.Epoch() == db.Epoch() {
		return e.st, nil
	}
	st, err := db.Prepare(ctx, e.query, opts...)
	if err != nil {
		return nil, err
	}
	if e.st != nil {
		reg.noteReprepare()
	}
	e.st = st
	return st, nil
}

// registry is the digest-keyed LRU of registered statements.
type registry struct {
	mu      sync.Mutex
	cap     int
	byKey   map[string]*list.Element // digest → element holding *regEntry
	lru     *list.List               // front = most recently used
	hits    int64
	misses  int64
	total   int64 // registrations ever accepted
	evicted int64

	repMu      sync.Mutex
	reprepares int64
}

func newRegistry(capacity int) *registry {
	return &registry{cap: capacity, byKey: map[string]*list.Element{}, lru: list.New()}
}

// register prepares query (unless an entry for its digest already
// exists) and returns the entry plus whether it was newly created.
// Parse errors surface from hsp.QueryDigest before anything is stored.
func (r *registry) register(ctx context.Context, db *hsp.DB, query string, opts []hsp.ExecOption) (*regEntry, bool, error) {
	digest, err := hsp.QueryDigest(query)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	if el, ok := r.byKey[digest]; ok {
		r.lru.MoveToFront(el)
		e := el.Value.(*regEntry)
		r.mu.Unlock()
		return e, false, nil
	}
	r.mu.Unlock()

	// Prepare outside the registry lock: planning can be slow and must
	// not serialise unrelated lookups. A concurrent register of the
	// same digest is resolved below (first insert wins).
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return nil, false, err
	}
	e := &regEntry{digest: digest, query: query, st: st}

	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.byKey[digest]; ok {
		r.lru.MoveToFront(el)
		return el.Value.(*regEntry), false, nil
	}
	r.byKey[digest] = r.lru.PushFront(e)
	r.total++
	for r.lru.Len() > r.cap {
		old := r.lru.Back()
		r.lru.Remove(old)
		delete(r.byKey, old.Value.(*regEntry).digest)
		r.evicted++
	}
	return e, true, nil
}

// lookup returns the entry for a digest, bumping its recency; nil when
// the digest was never registered or has been evicted.
func (r *registry) lookup(digest string) *regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.byKey[digest]
	if !ok {
		r.misses++
		return nil
	}
	r.hits++
	r.lru.MoveToFront(el)
	return el.Value.(*regEntry)
}

// noteReprepare counts one lazy epoch re-preparation.
func (r *registry) noteReprepare() {
	r.repMu.Lock()
	r.reprepares++
	r.repMu.Unlock()
}

// entries snapshots the registry, most recently used first.
func (r *registry) entries() []*regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*regEntry, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*regEntry))
	}
	return out
}

// stats snapshots the registry counters for /metrics.
func (r *registry) stats() RegistryStats {
	r.mu.Lock()
	s := RegistryStats{
		Len:        r.lru.Len(),
		Cap:        r.cap,
		Hits:       r.hits,
		Misses:     r.misses,
		Registered: r.total,
		Evicted:    r.evicted,
	}
	r.mu.Unlock()
	r.repMu.Lock()
	s.Reprepares = r.reprepares
	r.repMu.Unlock()
	return s
}

// RegistryStats reports the statement registry's counters in Stats.
type RegistryStats struct {
	// Len and Cap are the registry's occupancy and LRU bound.
	Len int `json:"len"`
	Cap int `json:"cap"`
	// Hits and Misses count execute-by-digest lookups; Registered the
	// registrations ever accepted; Evicted the entries dropped by the
	// LRU bound.
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Registered int64 `json:"registered"`
	Evicted    int64 `json:"evicted"`
	// Reprepares counts lazy epoch invalidations: executions that
	// found their statement prepared against an older epoch and
	// re-prepared it from the stored query text.
	Reprepares int64 `json:"reprepares"`
}
