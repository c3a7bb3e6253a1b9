// Prepared statements: the single execution core of the facade.
//
// db.Prepare parses, plans and compiles a query once (plan-cache aware)
// and returns a *Stmt carrying every execution verb with ctx-first
// signatures. Queries may hold $name parameter placeholders, bound per
// execution with hsp.Bind; re-executing a prepared statement with new
// bindings re-parses and re-plans nothing — the bind step substitutes
// dictionary-encoded IDs into the compiled operator tree when the run
// opens. Every legacy facade verb (Query, Stream, Ask, Execute,
// ExplainAnalyze and their Context variants) is a thin shim over
// Prepare + Stmt.

package hsp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// ErrStmtClosed is returned by every method of a Stmt after Close.
var ErrStmtClosed = errors.New("hsp: statement closed")

// Binding supplies the value of one $name parameter placeholder for a
// single execution of a prepared statement. Construct bindings with
// Bind.
type Binding struct {
	// Name is the placeholder name, without the '$'.
	Name string
	// Value is the RDF term bound to the placeholder.
	Value Term
}

// Bind binds the parameter $name to an RDF term for one execution:
//
//	res, err := stmt.Query(ctx, hsp.Bind("title", hsp.Literal("Journal 1 (1940)")))
func Bind(name string, v Term) Binding { return Binding{Name: name, Value: v} }

// Stmt is a prepared statement: a query parsed, planned and compiled
// once, executable any number of times — concurrently, and with
// different parameter bindings per execution. A Stmt is pinned to the
// MVCC snapshot it was prepared against: every execution reads exactly
// that snapshot's data, however many commits land on the DB meanwhile
// (re-prepare to pick up a newer epoch). A Stmt is safe for concurrent
// use; Close marks it unusable (it frees no resources — the compiled
// plan may still back in-flight streams and the shared plan cache) and
// further calls return ErrStmtClosed.
type Stmt struct {
	db    *DB
	state *dbState // the snapshot bundle the statement is pinned to
	// eng is the state's engine for the configured substrate: every
	// execution runs the (possibly cached) plan on it.
	eng      *exec.Engine
	cfg      execConfig
	pq       *preparedQuery
	cacheHit bool // the plan came from the DB's plan cache
	query    string
	closed   atomic.Bool
}

// Prepare parses, plans and compiles a query once, returning a
// statement whose verbs execute it without re-parsing or re-planning.
// The query may contain $name parameter placeholders in any constant
// position (triple pattern subjects, predicates and objects, and FILTER
// right-hand sides); each execution supplies their values with Bind.
// Placeholders are planned as unbound-but-typed constants, so the plan
// is a template valid for every binding. The statement pins the DB's
// current snapshot. WithPlanner, WithEngine and the execution options
// apply as in QueryContext; with WithPlanCache the compiled plan is
// shared through the DB's plan cache under its normalised template key,
// so statements differing only in literal constants reuse one plan. An
// HSP plan reads no data, so its cache entry outlives commits: a
// statement prepared after a commit reuses it and runs it on the new
// snapshot. Planners that read statistics (PlannerCDP, PlannerSQL,
// PlannerHybrid) cache under the snapshot's epoch, and a commit
// invalidates their entries, so a plan built from stale statistics is
// never reused. A context already cancelled on entry returns its error
// without doing anything.
func (db *DB) Prepare(ctx context.Context, query string, opts ...ExecOption) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := configOf(opts)
	state := db.loadState()
	pq, hit, err := db.compileQuery(state, query, cfg)
	if err != nil {
		return nil, err
	}
	eng, err := engineFor(state, cfg.engine)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, state: state, eng: eng, cfg: cfg, pq: pq, cacheHit: hit, query: query}, nil
}

// prepareFromPlan wraps an already-planned query as a statement — the
// shared lowering of the plan-based legacy verbs (Execute, StreamPlan,
// ExplainAnalyze), so they run through the same core as Prepare. The
// statement inherits the plan's snapshot pin.
func (db *DB) prepareFromPlan(p *Plan, e Engine, opts []ExecOption) (*Stmt, error) {
	cq, err := compilePlan(p, e)
	if err != nil {
		return nil, err
	}
	eng, err := engineFor(p.state, e)
	if err != nil {
		return nil, err
	}
	cfg := configOf(opts)
	cfg.engine = e
	pq := &preparedQuery{cq: cq, params: p.head.Params()}
	return &Stmt{db: db, state: p.state, eng: eng, cfg: cfg, pq: pq, query: p.head.String()}, nil
}

// Epoch returns the dataset epoch the statement is pinned to: the
// version current when it was prepared.
func (s *Stmt) Epoch() uint64 { return s.state.snap.Epoch() }

// Params returns the statement's parameter placeholder names in
// declaration order; every one must be bound on each execution.
func (s *Stmt) Params() []string { return append([]string(nil), s.pq.params...) }

// IsAsk reports whether the prepared query is an ASK query — servers
// route ASK statements through Ask (a boolean result document) and
// everything else through Query/Stream (a solution sequence).
func (s *Stmt) IsAsk() bool { return s.pq.cq.head.Ask }

// Close marks the statement closed: subsequent calls return
// ErrStmtClosed. Close is idempotent and never fails. It does not
// interrupt executions already in flight, and streams obtained before
// Close remain valid — compiled plans are immutable and shared (the
// plan cache may continue serving the same plan to other statements).
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}

// options returns the executor options of one execution: the
// configured run-time options, on the statement's snapshot.
func (s *Stmt) options() exec.Options {
	o := s.cfg.execOptions()
	o.Engine = s.eng
	return o
}

// guard validates the statement and context before an execution.
func (s *Stmt) guard(ctx context.Context) error {
	if s.closed.Load() {
		return ErrStmtClosed
	}
	return ctx.Err()
}

// Query executes the statement under ctx with the given bindings and
// materialises the result, applying DISTINCT, ORDER BY, OFFSET and
// LIMIT. Cancellation follows the QueryContext contract. Every
// placeholder of the statement must be bound exactly once.
func (s *Stmt) Query(ctx context.Context, binds ...Binding) (*Result, error) {
	if err := s.guard(ctx); err != nil {
		return nil, err
	}
	cq, eb, err := s.bindFor(binds)
	if err != nil {
		return nil, err
	}
	eopts := s.options()
	eopts.Binds = eb
	return s.db.executeCompiled(ctx, cq, s.cfg, eopts)
}

// Binds is one execution's parameter bindings within a batch passed to
// QueryMany.
type Binds []Binding

// QueryMany executes the statement once per batch entry, in order, and
// returns one materialised result per entry — the batched sibling of
// Query. The bind step is amortised across the batch: validation state
// (parameter names, their positional kind constraints, the template's
// lifted constants) is derived once per call, and each distinct bound
// term is resolved against the pinned snapshot's dictionary once,
// however many executions bind it — so large batches rotating through
// a small value set pay one dictionary lookup per value instead of one
// per execution (see BenchmarkPreparedQueryMany). Results and errors
// are identical to calling Query once per entry; the first failing
// execution aborts the batch and returns its error. Cancellation
// follows the QueryContext contract, checked between and within
// executions.
func (s *Stmt) QueryMany(ctx context.Context, batches []Binds) ([]*Result, error) {
	if err := s.guard(ctx); err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(batches))
	if len(batches) == 0 {
		return results, nil
	}
	pq := s.pq
	c0 := pq.cq.compiled[0]
	subjP, predP := paramPositionSets(pq.cq.head)
	known := make(map[string]bool, len(pq.params))
	for _, p := range pq.params {
		known[p] = true
	}
	// The template's lifted constants resolve once for the whole batch.
	var auto exec.ResolvedBinds
	for name, t := range pq.autoBinds {
		if auto == nil {
			auto = make(exec.ResolvedBinds, len(pq.autoBinds))
		}
		auto[name] = c0.ResolveTerm(t)
	}
	// memo caches each distinct bound term's dictionary resolution for
	// the whole batch.
	memo := make(map[Term]exec.ResolvedBind)

	for _, batch := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, ok, err := s.queryBatchFast(ctx, batch, known, subjP, predP, auto, memo)
		if !ok && err == nil {
			// Irregular batch (validation problem, or a binding changing
			// selection applicability): the per-execution path produces
			// the canonical error or the re-planned execution.
			res, err = s.Query(ctx, batch...)
		}
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// queryBatchFast executes one batch entry on the amortised path. It
// reports ok=false (and no error) for batches needing the full
// per-execution path: wrong binding count, unknown or duplicate names,
// kind violations (for the canonical error message), or a binding that
// changes the plan's selection applicability (predicate-position
// rdf:type, which must re-plan). known holds the statement's declared
// parameter names — a binding naming anything else (even a template's
// internal canonical name) defers to Query's validation, keeping the
// two paths' error behaviour identical.
func (s *Stmt) queryBatchFast(ctx context.Context, batch Binds, known, subjP, predP map[string]bool, auto exec.ResolvedBinds, memo map[Term]exec.ResolvedBind) (*Result, bool, error) {
	pq := s.pq
	if len(batch) != len(pq.params) {
		return nil, false, nil
	}
	resolved := make(exec.ResolvedBinds, len(auto)+len(batch))
	for name, rb := range auto {
		resolved[name] = rb
	}
	for _, b := range batch {
		if !known[b.Name] {
			return nil, false, nil
		}
		canon := b.Name
		if pq.rename != nil {
			if c, ok := pq.rename[b.Name]; ok {
				canon = c
			}
		}
		if _, dup := resolved[canon]; dup {
			return nil, false, nil
		}
		switch {
		case subjP[canon] && b.Value.Kind == "literal":
			return nil, false, nil
		case predP[canon] && b.Value.Kind != "iri":
			return nil, false, nil
		case predP[canon] && b.Value.Value == sparql.RDFType:
			return nil, false, nil // re-plan fallback
		}
		rb, ok := memo[b.Value]
		if !ok {
			rb = c0ResolveTerm(pq, b.Value)
			memo[b.Value] = rb
		}
		resolved[canon] = rb
	}
	// Unknown names surface here: every statement parameter is covered
	// only if all len(batch) bindings named real parameters.
	for _, p := range pq.params {
		canon := p
		if pq.rename != nil {
			if c, ok := pq.rename[p]; ok {
				canon = c
			}
		}
		if _, ok := resolved[canon]; !ok {
			return nil, false, nil
		}
	}
	eopts := s.options()
	eopts.Resolved = resolved
	res, err := s.db.executeCompiled(ctx, pq.cq, s.cfg, eopts)
	return res, true, err
}

// c0ResolveTerm resolves one public term against the statement's
// pinned dictionary.
func c0ResolveTerm(pq *preparedQuery, t Term) exec.ResolvedBind {
	return pq.cq.compiled[0].ResolveTerm(t.internal())
}

// paramPositionSets walks the parsed query once (the shared
// sparql.ForEachPattern traversal that also backs CheckBindKinds and
// BindsChangeSelectivityClass, so the fast path cannot diverge from
// them) and returns the canonical parameter names appearing in subject
// position (must not bind literals) and predicate position (must bind
// IRIs; rdf:type triggers the re-plan fallback) — the per-batch kind
// validation then touches only the bindings, not the query.
func paramPositionSets(q *sparql.Query) (subj, pred map[string]bool) {
	subj, pred = map[string]bool{}, map[string]bool{}
	sparql.ForEachPattern(q, func(tp sparql.TriplePattern) bool {
		if tp.S.IsParam() {
			subj[tp.S.Param] = true
		}
		if tp.P.IsParam() {
			pred[tp.P.Param] = true
		}
		return true
	})
	return subj, pred
}

// Stream executes the statement under ctx with the given bindings and
// returns the result as a row stream (see Rows); ORDER BY streams
// through the bounded-memory sort. Cancellation follows the
// StreamContext contract. The returned stream stays valid after the
// statement is closed.
func (s *Stmt) Stream(ctx context.Context, binds ...Binding) (*Rows, error) {
	if err := s.guard(ctx); err != nil {
		return nil, err
	}
	cq, eb, err := s.bindFor(binds)
	if err != nil {
		return nil, err
	}
	eopts := s.options()
	eopts.Binds = eb
	return s.db.streamCompiled(ctx, cq, s.cfg, eopts)
}

// Ask executes a prepared ASK statement under ctx with the given
// bindings: whether at least one solution exists. Preparing a non-ASK
// query and calling Ask is an error.
func (s *Stmt) Ask(ctx context.Context, binds ...Binding) (bool, error) {
	if err := s.guard(ctx); err != nil {
		return false, err
	}
	if !s.pq.cq.head.Ask {
		return false, fmt.Errorf("hsp: Ask called with a non-ASK query")
	}
	cq, eb, err := s.bindFor(binds)
	if err != nil {
		return false, err
	}
	eopts := s.options()
	eopts.Binds = eb
	res, err := s.db.executeCompiled(ctx, cq, s.cfg, eopts)
	if err != nil {
		return false, err
	}
	return res.Len() > 0, nil
}

// ExplainAnalyze executes the statement under ctx with the given
// bindings and per-operator instrumentation, and renders the EXPLAIN
// ANALYZE tree(s): observed row counts, wall times, hash-join build
// sizes, and the sort operator's spill counters for ORDER BY plans.
// When the algebraic rewrite pass changed the query, one "rewrite:"
// line per applied rule precedes the trees.
func (s *Stmt) ExplainAnalyze(ctx context.Context, binds ...Binding) (string, error) {
	if err := s.guard(ctx); err != nil {
		return "", err
	}
	cq, eb, err := s.bindFor(binds)
	if err != nil {
		return "", err
	}
	compiled, err := sortedBranches(cq)
	if err != nil {
		return "", err
	}
	eopts := s.options()
	eopts.Binds = eb
	var b strings.Builder
	for _, n := range cq.rewrites {
		fmt.Fprintf(&b, "rewrite: %s\n", n)
	}
	for i, c := range compiled {
		tree, err := c.ExplainAnalyzeContext(ctx, eopts)
		if err != nil {
			return "", err
		}
		if len(compiled) > 1 {
			fmt.Fprintf(&b, "UNION branch %d:\n", i)
		}
		b.WriteString(tree)
	}
	return b.String(), nil
}

// bindFor resolves the user bindings of one execution: placeholder
// names are translated to their compiled (template-canonical) names,
// merged with the template's lifted constants, and validated — every
// placeholder bound exactly once, no unknown names, and bound terms
// satisfying the RDF data model at the positions they fill. In the rare
// case where a binding changes the applicability of the planner's
// syntactic selection heuristics (today: a predicate-position
// placeholder bound to rdf:type, which HEURISTIC 1 demotes), the
// statement falls back to a one-off re-plan with the constants
// substituted, so plan quality never silently degrades; every other
// execution reuses the compiled template untouched.
func (s *Stmt) bindFor(binds []Binding) (*compiledQuery, map[string]rdf.Term, error) {
	pq := s.pq
	if len(binds) == 0 && len(pq.params) == 0 && len(pq.autoBinds) == 0 {
		return pq.cq, nil, nil
	}
	known := make(map[string]bool, len(pq.params))
	for _, p := range pq.params {
		known[p] = true
	}
	eb := make(map[string]rdf.Term, len(binds)+len(pq.autoBinds))
	for name, t := range pq.autoBinds {
		eb[name] = t
	}
	seen := make(map[string]bool, len(binds))
	for _, b := range binds {
		if !known[b.Name] {
			return nil, nil, fmt.Errorf("hsp: unknown parameter $%s (statement parameters: %s)", b.Name, paramList(pq.params))
		}
		if seen[b.Name] {
			return nil, nil, fmt.Errorf("hsp: parameter $%s bound twice", b.Name)
		}
		seen[b.Name] = true
		canon := b.Name
		if pq.rename != nil {
			canon = pq.rename[b.Name]
		}
		eb[canon] = b.Value.internal()
	}
	var missing []string
	for _, p := range pq.params {
		if !seen[p] {
			missing = append(missing, "$"+p)
		}
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("hsp: unbound parameter %s (bind parameters with hsp.Bind; if a variable was meant, write '?' instead of '$')", strings.Join(missing, ", "))
	}
	head := pq.cq.head
	if err := sparql.CheckBindKinds(head, eb); err != nil {
		return nil, nil, fmt.Errorf("hsp: %w", err)
	}
	if sparql.BindsChangeSelectivityClass(head, eb) {
		cq, err := s.db.replanBound(s.state, head, eb, s.cfg)
		if err != nil {
			return nil, nil, err
		}
		return cq, nil, nil
	}
	return pq.cq, eb, nil
}

// replanBound substitutes the bindings into the statement's query and
// runs the full plan+compile pipeline once against the statement's
// pinned snapshot — the fallback for bindings that change selection
// applicability.
func (db *DB) replanBound(state *dbState, head *sparql.Query, eb map[string]rdf.Term, cfg execConfig) (*compiledQuery, error) {
	bound, err := sparql.BindParams(head, eb)
	if err != nil {
		return nil, err
	}
	p, err := db.planParsed(state, bound, cfg.planner, cfg.rewrites)
	if err != nil {
		return nil, err
	}
	return compilePlan(p, cfg.engine)
}

func paramList(ps []string) string {
	if len(ps) == 0 {
		return "none"
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = "$" + p
	}
	return strings.Join(out, ", ")
}
