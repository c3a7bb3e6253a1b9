// Serving path: context-bound execution and the compiled-plan cache.
//
// All execution — legacy verbs and prepared statements alike — funnels
// through one core: compileQuery/compilePlan lower a query to immutable
// compiled branches (plan-cache aware, keyed by the normalised
// parameterized template), and executeCompiled/streamCompiled run them
// under the caller's context with the execution's parameter bindings.

package hsp

import (
	"context"
	"fmt"
	"strings"

	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// compiledQuery is the unit the plan cache stores: one query parsed,
// planned and compiled — the head carrying the solution modifiers, and
// one immutable physical plan per UNION branch. Compiled plans are safe
// for any number of concurrent runs, so one cached entry serves many
// requests at once.
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
// text (autoBinds, merged into every execution). The compiledQuery may
// be shared through the plan cache; everything else is per-caller.
type preparedQuery struct {
	cq        *compiledQuery
	params    []string
	rename    map[string]string
	autoBinds map[string]rdf.Term
	// cacheHit marks prepared queries served from the plan cache.
	cacheHit bool
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
	// Invalidations counts cached plans dropped lazily because they
	// were compiled at an older dataset epoch than the request's — the
	// MVCC staleness guard: a plan cached before a commit is never
	// served to a post-commit execution. Each invalidation also counts
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
// snapshot bundle. With a plan cache enabled the cache key is the
// query's normalised parameterized template — placeholder names
// canonicalised, literal constants lifted into typed placeholders — so
// queries differing only in their literal constants share one compiled
// plan (the template-thrash fix); the lifted constants ride along as
// autoBinds and are substituted when the plan runs. Byte-identical
// repeats — the dominant serving pattern — hit an exact-text alias of
// the template entry without even parsing. Every cache interaction
// carries the capture's epoch: entries compiled against an older
// snapshot are invalidated lazily instead of being served stale.
func (db *DB) compileQuery(state *dbState, query string, cfg execConfig) (*preparedQuery, error) {
	epoch := state.snap.Epoch()
	var c *exec.PlanCache
	var aliasKey exec.CacheKey
	if cfg.planCache > 0 {
		c = db.planCache(cfg.planCache)
		// "\x00raw\x00" keeps the alias namespace disjoint from rendered
		// template texts, which never contain NUL bytes.
		aliasKey = cfg.cacheKey("\x00raw\x00" + query)
		if v, ok := c.GetAlias(aliasKey, epoch); ok {
			pq := *(v.(*preparedQuery)) // shallow copy; all fields shared, immutable
			pq.cacheHit = true
			return &pq, nil
		}
	}
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	if c == nil {
		p, err := db.planParsed(state, q, cfg.planner, cfg.rewrites)
		if err != nil {
			return nil, err
		}
		cq, err := compilePlan(p, cfg.engine)
		if err != nil {
			return nil, err
		}
		cq.raw = query
		return &preparedQuery{cq: cq, params: q.Params()}, nil
	}
	tpl := sparql.Parameterize(q)
	pq := &preparedQuery{params: q.Params(), rename: tpl.Rename, autoBinds: tpl.Binds}
	key := cfg.cacheKey(tpl.Text)
	v, ok := c.GetServe(key, aliasKey, epoch,
		func(v any) bool { return v.(*compiledQuery).raw != query },
		func(v any) any { cp := *pq; cp.cq = v.(*compiledQuery); return &cp })
	if ok {
		pq.cq = v.(*compiledQuery)
		pq.cacheHit = true
		return pq, nil
	}
	p, err := db.planParsed(state, tpl.Query, cfg.planner, cfg.rewrites)
	if err != nil {
		return nil, err
	}
	cq, err := compilePlan(p, cfg.engine)
	if err != nil {
		return nil, err
	}
	cq.raw = query
	pq.cq = cq
	c.Add(key, cq, epoch)
	c.AddAlias(aliasKey, key, pq.shared(), epoch)
	return pq, nil
}

// cacheKey builds the plan-cache key for a query (or alias) text under
// this configuration's option fields.
func (c execConfig) cacheKey(text string) exec.CacheKey {
	return exec.CacheKey{
		Query:             text,
		Planner:           string(c.planner),
		Engine:            string(c.engine),
		Parallelism:       c.parallelism,
		ExchangeThreshold: c.exchangeThreshold,
		SortBudget:        c.sortBudget,
		TempDir:           c.tempDir,
		Rewrites:          c.rewrites.Key(),
	}
}

// shared returns the immutable form of a preparedQuery stored under
// its raw-text alias: byte-identical repeat queries parse to the same
// rename and autoBinds, so the whole view can be reused — copied per
// caller so cacheHit marking never mutates the cached value.
func (pq *preparedQuery) shared() *preparedQuery {
	cp := *pq
	cp.cacheHit = false
	return &cp
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
		cq.compiled = append(cq.compiled, c)
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
// UNION branch under ctx with the given parameter bindings, applies the
// head's solution modifiers, and — when a metrics sink is configured —
// feeds each branch run's per-operator counters to the sink as the run
// closes.
func (db *DB) executeCompiled(ctx context.Context, cq *compiledQuery, cfg execConfig, binds map[string]rdf.Term) (*Result, error) {
	eopts := cfg.execOptions()
	eopts.Binds = binds
	return db.executeCompiledOpts(ctx, cq, cfg, eopts)
}

// executeCompiledOpts is executeCompiled with the executor options
// already assembled — the entry point for batched executions carrying
// pre-resolved bindings (see Stmt.QueryMany).
func (db *DB) executeCompiledOpts(ctx context.Context, cq *compiledQuery, cfg execConfig, eopts exec.Options) (*Result, error) {
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

// QueryContext is Query bound to a caller context: cancelling ctx (or
// its deadline firing) aborts the run mid-pipeline at the next operator
// pull point or morsel boundary — sequential and morsel-parallel
// engines alike — releases every worker goroutine, and returns the
// context's error. A context already cancelled on entry returns its
// error without planning or executing anything. With WithPlanCache,
// repeated queries are served from the DB's shared compiled-plan cache
// under their normalised template key, skipping planning and
// compilation; WithPlanner and WithEngine override the defaults (HSP on
// the column substrate). It is a shim over Prepare + Stmt.Query — the
// single execution core; use Prepare directly to also skip re-parsing
// on repeated executions and to bind $name parameters.
func (db *DB) QueryContext(ctx context.Context, query string, opts ...ExecOption) (*Result, error) {
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Query(ctx)
}

// ExecuteContext is Execute bound to a caller context; see QueryContext
// for the cancellation contract. The plan cache does not apply here —
// the caller already holds the plan. It is a shim over the prepared
// statement core (the plan is wrapped, not re-planned).
func (db *DB) ExecuteContext(ctx context.Context, p *Plan, e Engine, opts ...ExecOption) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := db.prepareFromPlan(p, e, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Query(ctx)
}

// AskContext is Ask bound to a caller context; see QueryContext for the
// cancellation contract. WithPlanCache, WithPlanner and WithEngine
// apply as in QueryContext. It is a shim over Prepare + Stmt.Ask.
func (db *DB) AskContext(ctx context.Context, query string, opts ...ExecOption) (bool, error) {
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return false, err
	}
	defer st.Close()
	return st.Ask(ctx)
}

// ExplainAnalyzeContext is ExplainAnalyze bound to a caller context: a
// cancelled context aborts the instrumented run and returns its error.
// Plans with ORDER BY run through the streaming sort operator, so the
// output includes its "sort:" line with the spill counters. It is a
// shim over the prepared statement core.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, p *Plan, e Engine, opts ...ExecOption) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	st, err := db.prepareFromPlan(p, e, opts)
	if err != nil {
		return "", err
	}
	defer st.Close()
	return st.ExplainAnalyze(ctx)
}

// ExplainAnalyzeQuery runs a query text through the same serving path
// as QueryContext — plan cache included — with per-operator
// instrumentation, and renders the EXPLAIN ANALYZE tree(s). With
// WithPlanCache the output is prefixed with a plan-cache line showing
// whether this compilation was a hit and the cache's cumulative
// counters (template_hits counts hits served to query texts differing
// from the cached template's; invalidations counts stale-epoch entries
// dropped after commits; epoch is the dataset version served):
//
//	plan cache: hit hits=3 misses=1 template_hits=2 invalidations=0 epoch=2 size=1/64
func (db *DB) ExplainAnalyzeQuery(ctx context.Context, query string, opts ...ExecOption) (string, error) {
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return "", err
	}
	defer st.Close()
	var b strings.Builder
	if st.cfg.planCache > 0 {
		s := db.PlanCacheStats()
		outcome := "miss"
		if st.pq.cacheHit {
			outcome = "hit"
		}
		fmt.Fprintf(&b, "plan cache: %s hits=%d misses=%d template_hits=%d invalidations=%d epoch=%d size=%d/%d\n",
			outcome, s.Hits, s.Misses, s.TemplateHits, s.Invalidations, st.Epoch(), s.Len, s.Cap)
	}
	tree, err := st.ExplainAnalyze(ctx)
	if err != nil {
		return "", err
	}
	b.WriteString(tree)
	return b.String(), nil
}
