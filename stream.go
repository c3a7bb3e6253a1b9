package hsp

import (
	"context"
	"time"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// ExecOption configures query execution (materialised or streamed).
type ExecOption func(*execConfig)

type execConfig struct {
	parallelism       int
	exchangeThreshold int
	planCache         int
	sortBudget        int64
	tempDir           string
	planner           Planner
	engine            Engine
	metricsSink       func(OpStats)
	// rewrites selects the algebraic rewrite rules planning runs;
	// rewritesSet distinguishes "option absent" (default: all rules)
	// from WithRewrites() (all rules off).
	rewrites    rewrite.Config
	rewritesSet bool
}

// OpStats carries one operator's observed execution counters — the same
// numbers EXPLAIN ANALYZE prints, delivered programmatically through
// WithMetricsSink so production callers get per-operator observability
// without parsing strings.
type OpStats struct {
	// Op is the operator's label as printed in EXPLAIN ANALYZE trees
	// (e.g. "⋈mj ?jrnl", "σ(POS) [tp0] …", "sort ?yr desc").
	Op string
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Wall is the cumulative wall time spent inside the operator.
	Wall time.Duration
	// Build and BuildWall report a hash join's build side: rows
	// materialised and build wall time. Parallel marks a morsel-parallel
	// build.
	Build     int64
	BuildWall time.Duration
	Parallel  bool
	// SpilledRuns and SpilledBytes report the external sort's disk use
	// (ORDER BY past the sort budget); zero for every other operator.
	SpilledRuns  int64
	SpilledBytes int64
	// Workers, Skew and WorkerRows report an exchange entry's
	// scatter/gather execution: worker count, load-imbalance ratio
	// (busiest worker over the mean, 1.0 = balanced) and per-worker
	// output row counts. Zero-valued for every other operator.
	Workers    int
	Skew       float64
	WorkerRows []int64
}

// WithMetricsSink registers a callback receiving per-operator execution
// statistics: after each run of the query finishes (materialised
// execution, or each branch stream of a Rows closing), sink is invoked
// once per operator, plan-tree pre-order, with the counters EXPLAIN
// ANALYZE prints. The option implies per-operator instrumentation, so
// runs pay the same overhead as EXPLAIN ANALYZE; the sink is called
// from the goroutine that closes the run and must not block. It applies
// to Stmt.Query and Stmt.Stream.
func WithMetricsSink(sink func(OpStats)) ExecOption {
	return func(c *execConfig) { c.metricsSink = sink }
}

// emitOpStats forwards a finished run's operator counters to the sink.
func emitOpStats(sink func(OpStats), stats []exec.OpStat) {
	for _, s := range stats {
		sink(OpStats{
			Op:           s.Op,
			Rows:         s.Rows,
			Wall:         s.Wall,
			Build:        s.Build,
			BuildWall:    s.BuildWall,
			Parallel:     s.Parallel,
			SpilledRuns:  s.SpilledRuns,
			SpilledBytes: s.SpilledBytes,
			Workers:      s.Workers,
			Skew:         s.Skew,
			WorkerRows:   s.WorkerRows,
		})
	}
}

// WithParallelism lets the executor run one query with up to n
// concurrently executing morsel workers, bounded across the whole query
// by a shared semaphore. Large hash-join build-side scans split into
// partitions; whole pipeline chains — a scan feeding filters and
// hash-join probes — scatter across workers through exchange operators
// and gather back in scan order (see WithExchangeThreshold for the
// cutover); independent hash-join build sides additionally overlap, one
// background goroutine each. Results are identical — row for row — to
// sequential execution at every parallelism level. Values below 2
// select the sequential path.
func WithParallelism(n int) ExecOption {
	return func(c *execConfig) { c.parallelism = n }
}

// WithExchangeThreshold sets the minimum base-scan row count (after
// constant-prefix restriction) at which a parallel run scatters a
// pipeline chain over exchange workers; chains over smaller inputs run
// sequentially, since worker startup and gather buffering would cost
// more than one extra core saves. Values <= 0 select the default
// (4096 rows). Only meaningful together with WithParallelism(n >= 2).
func WithExchangeThreshold(rows int) ExecOption {
	return func(c *execConfig) { c.exchangeThreshold = rows }
}

// WithPlanCache serves the query through the DB's shared compiled-plan
// cache, sized to hold n plans (LRU evicted). The first request for a
// query shape parses, plans and compiles it; every further request with
// the same template, planner, engine and rewrite rules reuses the
// immutable compiled plan, skipping optimisation entirely — the serving
// fast path. With the default HSP planner that holds across commits
// too: the plan reads no statistics, so the entry survives them and
// runs on each request's own snapshot; plans of planners that read
// statistics are invalidated by the next commit. Cache keys are
// normalised parameterized templates:
// placeholder names are canonicalised and literal constants lifted into
// typed placeholders, so queries differing only in a literal (or in
// placeholder spelling) share one entry — PlanCacheStats.TemplateHits
// counts the hits byte-exact text keying would have missed. The cache
// is created on first use with capacity n; later calls reuse the
// existing cache whatever their n. Only Prepare (and QueryContext and
// StreamContext over it) consults the cache; PreparePlan ignores this
// option. A statement prepared with it prints its cache outcome as the
// first line of Stmt.ExplainAnalyze. Inspect occupancy and hit rates
// with PlanCacheStats.
func WithPlanCache(n int) ExecOption {
	return func(c *execConfig) { c.planCache = n }
}

// WithSortSpill caps the memory the sort operator may buffer for
// ORDER BY at budgetBytes: streamed queries sort within the budget,
// spilling sorted runs to temp files and merging them back when the
// input is larger, so ordered results of any size stream in bounded
// memory. Queries with a LIMIT whose OFFSET+LIMIT prefix fits in the
// budget take a top-k short circuit that never touches disk. Values
// <= 0 select the default budget (64 MiB). The budget applies per
// query run; Stmt.Query is unaffected — it buffers the whole result by
// definition.
func WithSortSpill(budgetBytes int) ExecOption {
	return func(c *execConfig) { c.sortBudget = int64(budgetBytes) }
}

// WithTempDir selects the directory spilled sort runs are written to,
// creating it if needed; the default is the operating system's temp
// directory. Temp files are deleted as soon as the sort finishes, the
// stream is closed, or its context is cancelled.
func WithTempDir(dir string) ExecOption {
	return func(c *execConfig) { c.tempDir = dir }
}

// RewriteRule names one rule of the algebraic rewrite pass that runs
// between parsing and planning; pass rules to WithRewrites to restrict
// the pass.
type RewriteRule string

// The rewrite rules, each individually toggleable via WithRewrites.
const (
	// RewriteConstFold folds constant FILTER expressions: duplicate
	// filters are dropped, a variable compared with itself resolves to a
	// tautology (removed) or contradiction, a constant filter decided by
	// an equality filter on the same variable is removed, and UNION
	// branches proven unsatisfiable are pruned.
	RewriteConstFold RewriteRule = rewrite.NameConstFold
	// RewritePushdown sinks FILTERs through the planned join tree toward
	// the scans that bind their variables, so filters prune rows before
	// joins instead of after. Filters never sink into the optional side
	// of an OPTIONAL's left join (that would turn filtered-out matches
	// into padded rows).
	RewritePushdown RewriteRule = rewrite.NamePushdown
	// RewriteReorder stable-sorts each basic graph pattern by
	// HEURISTIC 1 rank before planning, feeding every planner its
	// patterns most selective first.
	RewriteReorder RewriteRule = rewrite.NameReorder
)

// WithRewrites restricts the algebraic rewrite pass to exactly the
// given rules for Prepare, Plan and the plan cache key. Without this
// option every rule runs; WithRewrites() with no arguments disables
// the whole pass — the escape hatch for comparing against un-rewritten
// plans and the oracle side of the differential equivalence tests. Rewrites never change results, only
// plans: every rule is proven against the un-rewritten engine by the
// equivalence harness. Unknown rule names are ignored. The applied
// rewrites of a plan are observable via Plan.RewriteNotes and the
// rewrite: lines of EXPLAIN ANALYZE.
func WithRewrites(rules ...RewriteRule) ExecOption {
	return func(c *execConfig) {
		c.rewritesSet = true
		c.rewrites = rewrite.Config{}
		for _, r := range rules {
			switch r {
			case RewriteConstFold:
				c.rewrites.ConstFold = true
			case RewritePushdown:
				c.rewrites.Pushdown = true
			case RewriteReorder:
				c.rewrites.Reorder = true
			}
		}
	}
}

// WithPlanner selects the query optimiser for Prepare, which defaults
// to PlannerHSP. PreparePlan ignores this option — the plan already
// fixes the planner.
func WithPlanner(p Planner) ExecOption {
	return func(c *execConfig) { c.planner = p }
}

// WithEngine selects the storage substrate for Prepare, which defaults
// to EngineMonet. PreparePlan ignores this option — the engine is an
// explicit argument there.
func WithEngine(e Engine) ExecOption {
	return func(c *execConfig) { c.engine = e }
}

// configOf folds the option list, filling in the planner and engine
// defaults (HSP on the column substrate).
func configOf(opts []ExecOption) execConfig {
	var c execConfig
	for _, o := range opts {
		o(&c)
	}
	if c.planner == "" {
		c.planner = PlannerHSP
	}
	if c.engine == "" {
		c.engine = EngineMonet
	}
	if !c.rewritesSet {
		c.rewrites = rewrite.All()
	}
	return c
}

// execOptions converts the facade configuration to executor options.
func (c execConfig) execOptions() exec.Options {
	return exec.Options{
		Parallelism:       c.parallelism,
		ExchangeThreshold: c.exchangeThreshold,
		SortBudget:        c.sortBudget,
		TempDir:           c.tempDir,
	}
}

// Rows is a streaming query result: rows are pulled one at a time from
// the running operator tree instead of being materialised, so results
// never have to fit in memory. The iteration pattern follows
// database/sql:
//
//	rows, err := stmt.Stream(ctx)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Row())
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Next only moves a cursor over dictionary IDs; the current row is
// decoded to terms when Row or Values first asks for it, into storage
// the Rows owns and reuses, so delivering a row allocates nothing.
// What Row and Values return is therefore valid only until the next
// call to Next: keep a row with maps.Clone(rows.Row()) or
// slices.Clone(rows.Values()).
//
// Queries with ORDER BY stream too: the sort operator buffers rows up
// to a memory budget (WithSortSpill) and spills sorted runs to temp
// files merged back on the fly, so ordered results of any size arrive
// in bounded memory; ORDER BY with a small LIMIT short-circuits to a
// top-k heap that never touches disk. A Rows is not safe for
// concurrent use. Close releases any worker goroutines a parallel run
// spawned and deletes any spilled temp files; abandoning an exhausted
// Rows without Close is harmless. A Rows stops when the context it was
// opened with is cancelled: Next returns false and Err returns the
// context's error.
type Rows struct {
	db   *DB
	vars []string
	dict *dict.Dict // of the snapshot the compiled branches read

	// Streaming state: compiled UNION branches, opened lazily so a
	// branch's workers only start once the previous branch is drained.
	compiled []*exec.Compiled
	ctx      context.Context // caller context each branch run is bound to
	opts     exec.Options
	branch   int
	run      *exec.Run
	seen     *exec.RowSet // cross-branch DISTINCT; nil when not needed
	skip     int          // remaining OFFSET rows
	remain   int          // remaining LIMIT rows (-1: unlimited)

	// Ordered-merge state (UNION with ORDER BY): every branch runs
	// with a sort operator and the streams merge here, smallest row
	// first.
	mergeCmp  func(a, b exec.Row) int
	merge     []*exec.Run // nil entry = branch exhausted
	heads     []exec.Row  // current head row per live branch, storage reused
	emitted   exec.Row    // the merged row last emitted, copied out of heads
	mergeDone bool

	// sink receives per-operator counters as each branch run closes
	// (WithMetricsSink); nil when no sink is configured.
	sink func(OpStats)

	// The current row: cur is its ID form, owned by the run (or emitted)
	// and overwritten by the next advance; vals and row are its decoded
	// forms, filled on demand and reused from row to row.
	cur     exec.Row
	vals    []Term
	row     map[string]Term
	valsSet bool
	rowSet  bool

	err    error
	closed bool
}

// StreamContext prepares a query (HSP on the column substrate unless
// WithPlanner/WithEngine say otherwise) and returns its result as a row
// stream: Prepare + Stmt.Stream in one call. Cancelling ctx (or its
// deadline firing) aborts the stream mid-pipeline — sequential and
// morsel-parallel runs alike — at the next operator pull point or
// morsel boundary, releases every worker goroutine, and makes Err
// return the context's error.
func (db *DB) StreamContext(ctx context.Context, query string, opts ...ExecOption) (*Rows, error) {
	st, err := db.Prepare(ctx, query, opts...)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Stream(ctx)
}

// streamCompiled builds a Rows over compiled UNION branches with the
// execution's executor options (bindings and the caller's snapshot
// included). ORDER BY streams through the sort operator (per-branch
// bounded-memory sort; a UNION's sorted branch streams are merged here,
// smallest row first), so no query shape materialises its result.
func (db *DB) streamCompiled(ctx context.Context, cq *compiledQuery, cfg execConfig, eopts exec.Options) (*Rows, error) {
	head := cq.head
	compiled, err := sortedBranches(cq)
	if err != nil {
		return nil, err
	}
	if cfg.metricsSink != nil {
		// The sink needs per-operator counters, so sink-observed streams
		// run instrumented like EXPLAIN ANALYZE.
		eopts.Analyze = true
	}
	r := &Rows{db: db, ctx: ctx, opts: eopts, sink: cfg.metricsSink, skip: head.Offset, remain: -1}
	if head.Limit >= 0 {
		r.remain = head.Limit
	}
	if head.Distinct && len(compiled) > 1 {
		r.seen = exec.NewRowSet(0)
	}
	r.compiled, r.dict = compiled, compiled[0].Dict()
	for _, v := range compiled[0].Vars() {
		r.vars = append(r.vars, string(v))
	}
	r.vals = make([]Term, len(r.vars))
	if len(head.OrderBy) > 0 && len(compiled) > 1 {
		cmp, err := compiled[0].RowComparator(head.OrderBy)
		if err != nil {
			return nil, err
		}
		r.mergeCmp = cmp
	}
	return r, nil
}

func sameVars(a, b []sparql.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Vars returns the projected variable names, without '?'.
func (r *Rows) Vars() []string { return append([]string(nil), r.vars...) }

// Next advances to the next row, returning false at the end of the
// stream, after Close, or on error (check Err).
func (r *Rows) Next() bool {
	r.cur, r.valsSet, r.rowSet = nil, false, false
	if r.closed || r.err != nil {
		return false
	}
	if r.remain == 0 {
		r.Close()
		return false
	}
	for {
		row, ok := r.advance()
		if !ok {
			return false
		}
		if r.seen != nil && !r.seen.Add(row) {
			continue
		}
		if r.skip > 0 {
			r.skip--
			continue
		}
		if r.remain > 0 {
			r.remain--
		}
		r.cur = row
		return true
	}
}

// advance pulls the next ID row ahead of the cross-branch DISTINCT,
// OFFSET and LIMIT: the branches one after the other, or their ordered
// merge. The row stays valid until the next advance.
func (r *Rows) advance() (exec.Row, bool) {
	if r.mergeCmp != nil {
		return r.advanceMerged()
	}
	for {
		if r.run == nil {
			if r.branch >= len(r.compiled) {
				return nil, false
			}
			r.run = r.compiled[r.branch].RunContext(r.ctx, r.opts)
			r.branch++
		}
		if r.run.Next() {
			return r.run.Row(), true
		}
		if err := r.run.Err(); err != nil {
			r.err = err
			r.Close()
			return nil, false
		}
		r.finishRun(r.run)
		r.run = nil
	}
}

// advanceMerged advances the ordered merge over the sorted branch
// streams of a UNION with ORDER BY: all branches run concurrently and
// the smallest head row (ties to the earliest branch, matching the
// stable materialised sort) is emitted next.
func (r *Rows) advanceMerged() (exec.Row, bool) {
	if r.mergeDone {
		return nil, false
	}
	if r.merge == nil {
		r.merge = make([]*exec.Run, len(r.compiled))
		r.heads = make([]exec.Row, len(r.compiled))
		r.emitted = make(exec.Row, 0, len(r.vars))
		for i, c := range r.compiled {
			r.merge[i] = c.RunContext(r.ctx, r.opts)
			if !r.advanceBranch(i) && r.err != nil {
				r.Close()
				return nil, false
			}
		}
	}
	best := -1
	for i, run := range r.merge {
		if run == nil {
			continue
		}
		if best < 0 || r.mergeCmp(r.heads[i], r.heads[best]) < 0 {
			best = i
		}
	}
	if best < 0 {
		r.mergeDone = true
		r.Close()
		return nil, false
	}
	// The branch's head storage is refilled by the advance below, so
	// the emitted row moves to storage of its own first.
	r.emitted = append(r.emitted[:0], r.heads[best]...)
	if !r.advanceBranch(best) && r.err != nil {
		r.Close()
		return nil, false
	}
	return r.emitted, true
}

// advanceBranch pulls branch i's next head row, copying it into the
// branch's reused head storage so it stays valid while other branches
// advance; exhausted branches close their run immediately.
func (r *Rows) advanceBranch(i int) bool {
	run := r.merge[i]
	if run == nil {
		return false
	}
	if !run.Next() {
		if err := run.Err(); err != nil && r.err == nil {
			r.err = err
		}
		r.finishRun(run)
		r.merge[i] = nil
		return false
	}
	r.heads[i] = append(r.heads[i][:0], run.Row()...)
	return true
}

// Values returns the current row positionally, aligned with Vars: one
// term per projected variable, the zero Term (empty Kind) for a
// variable the row leaves unbound. The slice is owned by the Rows and
// overwritten by the next row: it is valid until the next call to Next
// (slices.Clone keeps it). Nil when there is no current row.
func (r *Rows) Values() []Term {
	if r.cur == nil {
		return nil
	}
	if !r.valsSet {
		for i, id := range r.cur {
			r.vals[i] = decodeID(r.dict, id)
		}
		r.valsSet = true
	}
	return r.vals
}

// Row returns the current row as variable→term, without an entry for a
// variable the row leaves unbound. The map is owned by the Rows and
// refilled for the next row: it is valid until the next call to Next
// (maps.Clone keeps it). Nil when there is no current row.
func (r *Rows) Row() map[string]Term {
	if r.cur == nil {
		return nil
	}
	if !r.rowSet {
		if r.row == nil {
			r.row = make(map[string]Term, len(r.vars))
		}
		// Every variable is either set or deleted, so nothing of the
		// previous row survives and the map is never rebuilt.
		for i, t := range r.Values() {
			if t.Kind != "" {
				r.row[r.vars[i]] = t
			} else {
				delete(r.row, r.vars[i])
			}
		}
		r.rowSet = true
	}
	return r.row
}

// Err returns the first error encountered while streaming, if any.
func (r *Rows) Err() error { return r.err }

// Close stops the stream early, cancelling and waiting out any worker
// goroutines of a parallel run so none leak, and deleting any temp
// files a spilling sort left behind. Close is idempotent — closing an
// exhausted or already-closed stream is a cheap no-op — and returns
// the first error the stream encountered (the same error Err reports),
// nil on a clean stream, so errors surface even in the common
// defer-Close pattern.
func (r *Rows) Close() error {
	if !r.closed {
		r.closed = true
		if r.run != nil {
			r.finishRun(r.run)
			r.run = nil
		}
		for i, run := range r.merge {
			if run != nil {
				r.finishRun(run)
				r.merge[i] = nil
			}
		}
	}
	return r.err
}

// finishRun closes a branch run, adopts any error the run accumulated —
// including errors background workers hit that the consumer never
// pulled far enough to observe — and then, once the run's workers have
// stopped and its counters are final, forwards the per-operator
// statistics to the metrics sink, if one is configured.
func (r *Rows) finishRun(run *exec.Run) {
	run.Close()
	if err := run.Err(); err != nil && r.err == nil {
		r.err = err
	}
	if r.sink != nil {
		emitOpStats(r.sink, run.OpStats())
	}
}
