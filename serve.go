// Serving path: context-bound execution and the compiled-plan cache.
//
// All execution funnels through one core: compileQuery (behind Prepare)
// and compilePlan (behind PreparePlan) lower a query to immutable
// compiled branches (plan-cache aware, keyed by the normalised
// parameterized template), and executeCompiled/streamCompiled run them
// under the caller's context with the execution's parameter bindings,
// on the engine of the snapshot the caller captured.

package hsp

import (
	"context"
	"fmt"

	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// compiledQuery is the unit the plan cache stores: one query parsed,
// planned and compiled — the head carrying the solution modifiers, and
// one immutable physical plan per UNION branch. Compiled plans are safe
// for any number of concurrent runs, each on the snapshot its caller
// captured, so one cached entry serves many requests at once.
type compiledQuery struct {
	head     *sparql.Query
	compiled []*exec.Compiled
	// raw is the query text the entry was compiled from, for detecting
	// template hits (a hit whose incoming text differs from raw was
	// served by normalisation, not byte-exact text keying).
	raw string
	// rewrites carries the rewrite-pass notes of the planning run, for
	// the rewrite: lines of EXPLAIN ANALYZE.
	rewrites []string
}

// preparedQuery binds a compiledQuery to one caller's view of it: the
// caller's placeholder names (params, in declaration order), their
// translation to the compiled template's canonical names (rename), and
// the literal constants the normalisation lifted out of the caller's
// text (autoBinds, merged into every execution). A preparedQuery is
// immutable once built, so the plan cache stores it as the value of
// the caller's exact-text alias and hands the same one to every
// byte-identical repeat.
type preparedQuery struct {
	cq        *compiledQuery
	params    []string
	rename    map[string]string
	autoBinds map[string]rdf.Term
}

// planCache returns the DB's shared plan cache, creating it with
// capacity n on first use.
func (db *DB) planCache(n int) *exec.PlanCache {
	db.pcMu.Lock()
	defer db.pcMu.Unlock()
	if db.pc == nil {
		db.pc = exec.NewPlanCache(n)
	}
	return db.pc
}

// PlanCacheStats reports the hit/miss counters and occupancy of the
// DB's shared compiled-plan cache. It is zero until a query has been
// served with WithPlanCache.
type PlanCacheStats struct {
	// Hits counts lookups answered from the cache (no planning or
	// compilation).
	Hits int64
	// Misses counts lookups that had to plan and compile.
	Misses int64
	// TemplateHits counts the subset of Hits proving the template
	// normalisation: the incoming query text differed from the cached
	// entry's (a constant-only variation, or a renamed placeholder), so
	// byte-exact text keying would have re-planned.
	TemplateHits int64
	// Invalidations counts cached plans dropped lazily because their
	// planner read an older dataset epoch's statistics than the
	// request's — the MVCC staleness guard: a CDP, SQL or hybrid plan
	// cached before a commit is never served to a post-commit
	// execution. HSP plans read no statistics and are never
	// invalidated; they serve every epoch. Each invalidation also counts
	// as a miss.
	Invalidations int64
	// Len is the number of cached plans; Cap the cache capacity.
	Len, Cap int
}

// PlanCacheStats snapshots the DB's plan-cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	db.pcMu.Lock()
	pc := db.pc
	db.pcMu.Unlock()
	if pc == nil {
		return PlanCacheStats{}
	}
	s := pc.Stats()
	return PlanCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		TemplateHits:  s.TemplateHits,
		Invalidations: s.Invalidations,
		Len:           s.Len,
		Cap:           s.Cap,
	}
}

// compileQuery parses, plans and compiles a query against one captured
// snapshot bundle, reporting whether the plan came from the cache. With
// a plan cache enabled the cache key is the query's normalised
// parameterized template — placeholder names canonicalised, literal
// constants lifted into typed placeholders — so queries differing only
// in their literal constants share one compiled plan (the
// template-thrash fix); the lifted constants ride along as autoBinds
// and are substituted when the plan runs. Byte-identical repeats — the
// dominant serving pattern — hit an exact-text alias of the template
// entry without even parsing. An HSP plan depends on the query text
// alone, so its entry serves every epoch: each run binds it to the
// caller's own snapshot. Plans from planners that read statistics
// (CDP, SQL, hybrid) are cached under the capture's epoch and
// invalidated lazily once a commit moves past it.
func (db *DB) compileQuery(state *dbState, query string, cfg execConfig) (*preparedQuery, bool, error) {
	epoch := state.snap.Epoch()
	var c *exec.PlanCache
	var aliasKey exec.CacheKey
	if cfg.planCache > 0 {
		c = db.planCache(cfg.planCache)
		aliasKey = cfg.cacheKey(query, true)
		if v, ok := c.GetAlias(aliasKey, epoch); ok {
			return v.(*preparedQuery), true, nil
		}
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	if c == nil {
		p, err := db.planParsed(state, q, cfg.planner, cfg.rewrites)
		if err != nil {
			return nil, false, err
		}
		cq, err := compilePlan(p, cfg.engine)
		if err != nil {
			return nil, false, err
		}
		cq.raw = query
		return &preparedQuery{cq: cq, params: q.Params()}, false, nil
	}
	tpl := sparql.Parameterize(q)
	pq := &preparedQuery{params: q.Params(), rename: tpl.Rename, autoBinds: tpl.Binds}
	key := cfg.cacheKey(tpl.Text, false)
	v, ok := c.GetServe(key, aliasKey, epoch,
		func(v any) bool { return v.(*compiledQuery).raw != query },
		func(v any) any { cp := *pq; cp.cq = v.(*compiledQuery); return &cp })
	if ok {
		pq.cq = v.(*compiledQuery)
		return pq, true, nil
	}
	p, err := db.planParsed(state, tpl.Query, cfg.planner, cfg.rewrites)
	if err != nil {
		return nil, false, err
	}
	cq, err := compilePlan(p, cfg.engine)
	if err != nil {
		return nil, false, err
	}
	cq.raw = query
	pq.cq = cq
	c.Add(key, cq, epoch, cfg.planner.readsData())
	c.AddAlias(aliasKey, key, pq, epoch)
	return pq, false, nil
}

// readsData reports whether the planner consults the snapshot's data:
// the cost-based planners and the hybrid read its statistics, so their
// plans must follow commits; an HSP plan is a function of the query
// text alone.
func (p Planner) readsData() bool { return p != PlannerHSP && p != "" }

// cacheKey builds the plan-cache key for a query text (raw: the
// caller's exact text, for the alias index) under this configuration.
func (c execConfig) cacheKey(text string, raw bool) exec.CacheKey {
	return exec.CacheKey{
		Query:    text,
		Raw:      raw,
		Planner:  string(c.planner),
		Engine:   string(c.engine),
		Rewrites: c.rewrites.Key(),
	}
}

// compilePlan compiles every UNION branch of a plan against the chosen
// engine over the plan's pinned snapshot, validating that branches
// project the same variables — the shared lowering step of the
// text-based and plan-based entry points.
func compilePlan(p *Plan, engine Engine) (*compiledQuery, error) {
	eng, err := engineFor(p.state, engine)
	if err != nil {
		return nil, err
	}
	cq := &compiledQuery{head: p.head, rewrites: p.rewrites}
	var vars []sparql.Var
	for i, pl := range p.plans {
		c, err := eng.Compile(pl)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			vars = c.Vars()
		} else if !sameVars(vars, c.Vars()) {
			return nil, fmt.Errorf("hsp: union branches project different variables: %v vs %v", vars, c.Vars())
		}
		// Every facade run names its snapshot's engine, so the plan keeps
		// none of its own: a cached plan must not keep the snapshot it was
		// compiled on reachable for as long as it is cached.
		cq.compiled = append(cq.compiled, c.Unpinned())
	}
	return cq, nil
}

// sortedBranches derives the streaming form of a compiled query's
// branches: for ORDER BY queries every branch is wrapped in the sort
// operator (see exec.Compiled.Sorted) so runs emit rows already
// ordered, spilling to disk past the sort budget; queries without
// ORDER BY (and ASK queries, which ignore order) pass through
// unchanged. Deriving is O(1) per branch, so cached compiled queries
// stay shared and unmodified. The top-k short circuit engages when the
// query has a LIMIT and no DISTINCT — DISTINCT must deduplicate before
// the limit, so it takes the full (spillable) sort.
func sortedBranches(cq *compiledQuery) ([]*exec.Compiled, error) {
	head := cq.head
	if len(head.OrderBy) == 0 || head.Ask {
		return cq.compiled, nil
	}
	topK := -1
	if head.Limit >= 0 && !head.Distinct {
		topK = head.Offset + head.Limit
	}
	out := make([]*exec.Compiled, len(cq.compiled))
	for i, c := range cq.compiled {
		s, err := c.Sorted(head.OrderBy, topK)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// executeCompiled is the materialised execution core: it runs every
// UNION branch under ctx with the given executor options — bindings and
// the engine of the caller's snapshot included — applies the head's
// solution modifiers, and — when a metrics sink is configured — feeds
// each branch run's per-operator counters to the sink as the run
// closes.
func (db *DB) executeCompiled(ctx context.Context, cq *compiledQuery, cfg execConfig, eopts exec.Options) (*Result, error) {
	var acc *exec.Result
	for _, c := range cq.compiled {
		var res *exec.Result
		var err error
		if cfg.metricsSink != nil {
			var stats []exec.OpStat
			res, stats, err = c.ExecuteStatsContext(ctx, eopts)
			emitOpStats(cfg.metricsSink, stats)
		} else {
			res, err = c.ExecuteContext(ctx, eopts)
		}
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = res
			continue
		}
		if err := acc.Append(res); err != nil {
			return nil, err
		}
	}
	head := cq.head
	if head.Distinct && len(cq.compiled) > 1 {
		acc.Dedup()
	}
	if len(head.OrderBy) > 0 {
		if err := acc.SortBy(head.OrderBy); err != nil {
			return nil, err
		}
	}
	if head.Offset > 0 || head.Limit >= 0 {
		acc.Slice(head.Offset, head.Limit)
	}
	return &Result{res: acc, dict: cq.compiled[0].Dict()}, nil
}

// QueryContext prepares a query (HSP on the column substrate unless
// WithPlanner/WithEngine say otherwise) and materialises its result:
// Prepare + Stmt.Query in one call. Cancelling ctx (or its deadline
// firing) aborts the run mid-pipeline at the next operator pull point
// or morsel boundary, releases every worker goroutine, and returns the
// context's error.
func (db *DB) QueryContext(ctx context.Context, query string, opts ...ExecOption) (*Result, error) {
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Query(ctx)
}
