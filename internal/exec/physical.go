package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// Options configure one execution run of a compiled plan.
type Options struct {
	// Parallelism caps the number of concurrently executing morsel
	// workers across the whole run (enforced by a shared semaphore).
	// Values <= 1 select the sequential path; higher values enable
	// asynchronous hash-join builds, morsel-partitioned build-side
	// scans, and whole-pipeline exchanges: morsel-shardable chains
	// (scan→filter→probe over a positional source) scatter across
	// workers and gather back in deterministic scan order. Each hash
	// join additionally runs one lightweight coordinating goroutine for
	// its build side.
	Parallelism int
	// ExchangeThreshold is the minimum base-scan row count at which a
	// parallel run scatters a pipeline chain over exchange workers;
	// chains over smaller inputs run sequentially. Values <= 0 select
	// DefaultExchangeThreshold. Only meaningful with Parallelism > 1.
	ExchangeThreshold int
	// Analyze collects per-operator runtime metrics (EXPLAIN ANALYZE).
	Analyze bool
	// SortBudget caps the sort operator's in-memory row buffer, in
	// bytes; input beyond the budget spills to disk as sorted runs that
	// are merged back streaming. Values <= 0 select DefaultSortBudget.
	SortBudget int64
	// TempDir is where the sort operator writes spilled runs; empty
	// selects the operating system's temp directory.
	TempDir string
	// Binds supplies the values of the plan's parameter placeholders
	// ($name), keyed by placeholder name. Each run resolves the bound
	// terms against the dictionary once and substitutes the encoded IDs
	// into the scan prefixes and filter constants of the compiled
	// operator tree at open time — the compiled plan itself is never
	// modified, so one plan serves concurrent runs with different
	// bindings. A run of a plan with placeholders missing from Binds
	// fails with ErrUnboundParam.
	Binds map[string]rdf.Term
	// Resolved supplies pre-resolved parameter bindings (terms already
	// looked up in the dictionary via Compiled.ResolveBinds), skipping
	// the per-run dictionary resolution — the batched-execution fast
	// path. When non-nil it takes precedence over Binds; the run reads
	// it directly, so the caller must not mutate it while the run is
	// open.
	Resolved ResolvedBinds
	// Engine is the snapshot the run reads; nil selects the engine the
	// plan was compiled with (an Unpinned plan has none, and must be
	// given one here). It must share the plan's dictionary and
	// substrate (a plan compiled over one MVCC snapshot runs on any
	// later snapshot of the same dataset); a run on any other engine
	// fails at start.
	Engine *Engine
}

// ResolvedBind is one parameter binding resolved against the plan's
// dictionary: the bound term, its ID, and whether the term occurs in
// the data at all (scans with an absent term in their prefix match
// nothing; filters still compare the term's text).
type ResolvedBind struct {
	Term   rdf.Term
	ID     dict.ID
	InDict bool
}

// ResolvedBinds maps placeholder names to pre-resolved bindings. Build
// one with Compiled.ResolveBinds and pass it as Options.Resolved to
// amortise dictionary lookups across a batch of runs.
type ResolvedBinds map[string]ResolvedBind

// ResolveBinds looks every binding up in the plan's dictionary once,
// for batched executions: resolve a batch's terms up front (reusing
// entries across executions whose bindings repeat), then start each
// run with Options.Resolved instead of Options.Binds.
func (c *Compiled) ResolveBinds(binds map[string]rdf.Term) ResolvedBinds {
	if len(binds) == 0 {
		return nil
	}
	out := make(ResolvedBinds, len(binds))
	for name, t := range binds {
		out[name] = c.ResolveTerm(t)
	}
	return out
}

// ResolveTerm resolves one term against the plan's dictionary — the
// building block batched callers use to memoise lookups for terms that
// repeat across a batch's executions.
func (c *Compiled) ResolveTerm(t rdf.Term) ResolvedBind {
	id, inDict := c.dict.Lookup(t)
	return ResolvedBind{Term: t, ID: id, InDict: inDict}
}

// ErrUnboundParam reports a run of a parameterized plan that did not
// bind every placeholder. Use errors.Is to detect it; the error string
// names the missing placeholder.
var ErrUnboundParam = errors.New("exec: unbound parameter")

// errClosed aborts in-flight work when a run is closed early.
var errClosed = errors.New("exec: run closed")

// physOp is a physical operator: an immutable compile-time description
// that instantiates fresh operator state for every run.
type physOp interface {
	// open builds this run's operator tree and returns the consumer's
	// handle on it. It is called once per run, from a single goroutine.
	open(rt *runEnv) input
	// logical returns the algebra node the operator implements, the key
	// for explain annotations (nil for synthesized operators).
	logical() algebra.Node
	// slots lists, ascending, the slots the operator's output may bind:
	// the non-nil columns of its batches.
	slots() []int
}

// runEnv is the per-run execution context shared by all operators:
// cancellation, worker accounting, and the metrics registry.
type runEnv struct {
	opts Options
	// countsOnly collects row counts without timing (the
	// cardinality-annotation path, where clock reads would dominate).
	countsOnly bool
	metrics    Metrics
	// sem bounds the morsel workers concurrently executing across every
	// build in the run, so Parallelism caps whole-run CPU use even for
	// plans with many parallel-eligible joins.
	sem  chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	// hasCtx marks runs bound to a cancellable context, polled at every
	// batch pull.
	hasCtx bool
	// ctx is the caller context of a context-bound run, consulted at
	// pull points so cancellation is observed deterministically even
	// before the watcher goroutine is scheduled.
	ctx context.Context
	// cause is the context error that cancelled the run (stored before
	// done is closed); nil for plain Close and for exhausted runs.
	cause atomic.Value
	// cleanups run once after shutdown has stopped every worker:
	// operators holding external resources (the sort's spilled runs)
	// register here so an early Close releases them deterministically.
	cleanups    []func()
	cleanupOnce sync.Once
	// sortStats is filled by the sort operator, if the plan has one.
	sortStats *SortStats
	// sortM carries the sort operator's metrics on analyze runs (the
	// sort is synthesized above the plan root, so it has no algebra
	// node to key the metrics map with).
	sortM *OpMetrics
	// binds are the run's parameter bindings, resolved against the
	// dictionary once (Options.Resolved verbatim, or Options.Binds looked
	// up at run start), consulted by scans and filters holding
	// placeholder slots when they open.
	binds ResolvedBinds
	// src is the snapshot the run reads (Options.Engine's, or the
	// compile-time engine's), msrc the same source as a MorselSource
	// (nil when it is not one), and epoch that snapshot's dataset epoch:
	// all three are fixed for the run's whole lifetime however many
	// commits land meanwhile.
	src   Source
	msrc  MorselSource
	epoch uint64
	// exchanges collects the scatter/gather statistics of the run's
	// exchange operators, appended when they open (single-goroutine)
	// and filled by their workers.
	exchanges []*ExchangeStats
	// workerErr holds the first real error a background worker hit
	// (build goroutines, exchange workers), so it survives to Err even
	// when the consumer never pulls the row that would surface it.
	workerErr atomic.Value
	errOnce   sync.Once
	// owned is every batch the run took from the shared pool, handed
	// back at shutdown; free holds the ones recycled mid-run (consumed
	// exchange morsels) for the run's next newBatch. mu guards both —
	// exchange workers take batches too.
	mu          sync.Mutex
	owned, free []*batch
}

// noteErr records the first real error a background worker hit and
// aborts the run, so sibling workers stop instead of computing results
// nobody will consume. Cancellation noise (errClosed) is not an error.
func (rt *runEnv) noteErr(err error) {
	if err == nil || errors.Is(err, errClosed) {
		return
	}
	rt.errOnce.Do(func() { rt.workerErr.Store(err) })
	rt.cancel(err)
}

// addCleanup registers a resource-release hook run once at shutdown.
// Only call during open (single-goroutine).
func (rt *runEnv) addCleanup(f func()) { rt.cleanups = append(rt.cleanups, f) }

// cancel closes the run's done channel once, recording why. A nil err
// marks an orderly shutdown (Close or exhaustion); a context error
// makes Err report the cancellation to the consumer.
func (rt *runEnv) cancel(err error) {
	rt.once.Do(func() {
		if err != nil {
			rt.cause.Store(err)
		}
		close(rt.done)
	})
}

// acquire takes a worker slot, failing fast on cancellation.
func (rt *runEnv) acquire() bool {
	select {
	case rt.sem <- struct{}{}:
		return true
	case <-rt.done:
		return false
	}
}

// release returns a worker slot.
func (rt *runEnv) release() { <-rt.sem }

// cancelled reports whether the run has been closed or its context
// cancelled. A context cancellation observed here is promoted to the
// run's cause immediately, without waiting for the watcher goroutine.
func (rt *runEnv) cancelled() bool {
	select {
	case <-rt.done:
		return true
	default:
	}
	if rt.hasCtx {
		select {
		case <-rt.ctx.Done():
			rt.cancel(rt.ctx.Err())
			return true
		default:
		}
	}
	return false
}

// shutdown cancels outstanding workers and waits for them to exit, so
// a closed run never leaks goroutines; registered cleanups then release
// external resources (spilled sort runs) exactly once, and the run's
// batches go back to the shared pool.
func (rt *runEnv) shutdown() {
	rt.cancel(nil)
	rt.wg.Wait()
	rt.cleanupOnce.Do(func() {
		for _, f := range rt.cleanups {
			f()
		}
		rt.releaseBatches()
	})
}

// metric returns the metrics slot for a node, or nil when the run is
// not analyzing. Only call during open (single-goroutine).
func (rt *runEnv) metric(n algebra.Node) *OpMetrics {
	if rt.metrics == nil || n == nil {
		return nil
	}
	m, ok := rt.metrics[n]
	if !ok {
		m = &OpMetrics{}
		rt.metrics[n] = m
	}
	return m
}

// in returns the consumer's handle on an operator: the operator plus,
// on analyze runs, the counters of the node it implements.
func (rt *runEnv) in(n algebra.Node, op operator) input {
	m := rt.metric(n)
	return input{op: op, rt: rt, m: m, timed: m != nil && !rt.countsOnly}
}

// --- physical operators ---

// prefixHole marks one slot of a scan's constant prefix that is filled
// in when a run opens: with the binding of the named parameter, or —
// name empty — with the ID of term, a constant the dictionary did not
// hold at compile time and may have interned since.
type prefixHole struct {
	idx  int
	name string
	term rdf.Term
}

// scanOp evaluates one triple pattern over an access path. Constant
// prefix positions the dictionary knows are resolved to IDs at compile
// time; placeholder positions and unknown constants (holes) are filled
// in when the scan opens, so one compiled scan serves every binding and
// every snapshot.
type scanOp struct {
	s         *algebra.Scan
	prefix    []dict.ID
	holes     []prefixHole
	width     int
	bound     []int
	slotOf    []int
	checkSlot []int
}

// resolvePrefix returns a scan's binary-search prefix for the run: the
// compiled prefix when it has no holes, else a copy with every hole
// filled from the bindings or the dictionary. ok=false means a bound
// term or a constant does not occur in the data: the scan matches
// nothing (not an error).
func resolvePrefix(rt *runEnv, prefix []dict.ID, holes []prefixHole) ([]dict.ID, bool, error) {
	if len(holes) == 0 {
		return prefix, true, nil
	}
	out := append([]dict.ID(nil), prefix...)
	for _, h := range holes {
		var id dict.ID
		var ok bool
		if h.name == "" {
			id, ok = rt.src.Dict().Lookup(h.term)
		} else {
			b, bound := rt.binds[h.name]
			if !bound {
				return nil, false, fmt.Errorf("%w $%s", ErrUnboundParam, h.name)
			}
			id, ok = b.ID, b.InDict
		}
		if !ok {
			return nil, false, nil
		}
		out[h.idx] = id
	}
	return out, true, nil
}

func (o *scanOp) open(rt *runEnv) input {
	prefix, ok, err := resolvePrefix(rt, o.prefix, o.holes)
	if err != nil || !ok {
		return rt.in(o.s, stub{err})
	}
	// The scan's size is known up front, so its batch is no larger: a
	// point lookup takes, and touches, a few rows of columns.
	rows := rt.src.Count(o.s.Ordering, prefix)
	if rows == 0 {
		return rt.in(o.s, stub{})
	}
	return rt.in(o.s, o.newScan(rt, rt.src.Scan(o.s.Ordering, prefix), rows))
}

// newScan instantiates the scan operator over a triple stream of at
// most rows triples.
func (o *scanOp) newScan(rt *runEnv, in TripleIter, rows int) *scan {
	rows = min(rows, batchRows)
	return &scan{in: in, out: rt.newBatch(o.width, o.bound, rows), capacity: rows, slotOf: o.slotOf, checkSlot: o.checkSlot}
}

func (o *scanOp) logical() algebra.Node { return o.s }
func (o *scanOp) slots() []int          { return o.bound }

// aggScanOp evaluates a pattern over the aggregated pair index. Prefix
// holes resolve when the scan opens, like scanOp's.
type aggScanOp struct {
	s      *algebra.Scan
	prefix []dict.ID
	holes  []prefixHole
	width  int
	bound  []int
	slotOf [2]int
}

func (o *aggScanOp) open(rt *runEnv) input {
	prefix, ok, err := resolvePrefix(rt, o.prefix, o.holes)
	if err != nil || !ok {
		return rt.in(o.s, stub{err})
	}
	// The compiler accepted the plan's substrate as an AggregatedSource,
	// and a run's engine shares that substrate.
	agg := rt.src.(AggregatedSource)
	rows := min(agg.Count(o.s.Ordering, prefix), batchRows)
	if rows == 0 {
		return rt.in(o.s, stub{})
	}
	return rt.in(o.s, &aggScan{
		in:       agg.ScanPairs(o.s.Ordering, prefix),
		out:      rt.newBatch(o.width, o.bound, rows),
		capacity: rows,
		slotOf:   o.slotOf,
	})
}

func (o *aggScanOp) logical() algebra.Node { return o.s }
func (o *aggScanOp) slots() []int          { return o.bound }

// mergeJoinOp joins two inputs sorted on the same variable.
type mergeJoinOp struct {
	j     *algebra.Join
	l, r  physOp
	slot  int
	jc    *joinCols
	width int
}

func (o *mergeJoinOp) open(rt *runEnv) input {
	return rt.in(o.j, &mergeJoin{
		rt:     rt,
		l:      mergeSide{input: o.l.open(rt), desc: "merge join left input"},
		r:      mergeSide{input: o.r.open(rt), desc: "merge join right input"},
		slot:   o.slot,
		jc:     o.jc,
		width:  o.width,
		rslots: o.r.slots(),
	})
}

func (o *mergeJoinOp) logical() algebra.Node { return o.j }
func (o *mergeJoinOp) slots() []int          { return o.jc.out }

// hashJoinOp hashes its build input and streams the probe input,
// preserving probe order. It implements inner hash joins, Cartesian
// products (no keys) and left outer joins (OPTIONAL).
type hashJoinOp struct {
	n         algebra.Node
	build     physOp    // hashed side (left for joins, right for OPTIONAL)
	probe     physOp    // streamed side
	keys      []int     // nil: key-less (cross product / disconnected OPTIONAL)
	jc        *joinCols // a: build side, b: probe side
	width     int
	leftOuter bool // OPTIONAL semantics
	// morsel is the build side when it is a partitionable scan over a
	// morsel-capable source; parallel runs then build the table with
	// partitioned workers.
	morsel *scanOp
}

func (o *hashJoinOp) open(rt *runEnv) input {
	bf := o.openBuild(rt)
	if rt.opts.Parallelism > 1 {
		bf = asyncBuild(rt, bf)
	}
	return rt.in(o.n, o.newProbe(rt, bf, o.probe.open(rt)))
}

// newProbe instantiates the probe operator over a build function and a
// probe input.
func (o *hashJoinOp) newProbe(rt *runEnv, bf buildFn, probe input) *hashJoin {
	return &hashJoin{rt: rt, build: bf, probe: probe, keys: o.keys, jc: o.jc, width: o.width, leftOuter: o.leftOuter}
}

// openBuild assembles the build function: morsel-partitioned when the
// run is parallel and the build side allows it, a sequential drain of
// the build subtree otherwise. Analyze runs record build row count and
// build wall time on the join's metrics.
func (o *hashJoinOp) openBuild(rt *runEnv) buildFn {
	parallel := rt.opts.Parallelism > 1 && o.morsel != nil
	var inner buildFn
	if parallel {
		inner = o.morsel.parallelBuild(rt, o.keys, rt.metric(o.morsel.s))
	} else {
		inner = seqBuild(o.build.open(rt), o.build.slots(), o.keys)
	}
	m := rt.metric(o.n)
	if m == nil {
		return inner
	}
	return func() (*buildTable, error) {
		start := time.Now()
		t, err := inner()
		m.BuildWall = time.Since(start)
		if t != nil {
			atomic.StoreInt64(&m.Build, int64(t.n))
		}
		if parallel {
			m.Parallel = true
		}
		return t, err
	}
}

func (o *hashJoinOp) logical() algebra.Node { return o.n }
func (o *hashJoinOp) slots() []int          { return o.jc.out }

// asyncBuild starts the build in a background goroutine at open time,
// so the build sides of independent joins (and the compile of the probe
// side) overlap. The result channel is buffered: the builder can always
// deliver and exit, even when the run is closed before the first pull.
func asyncBuild(rt *runEnv, f buildFn) buildFn {
	type result struct {
		t   *buildTable
		err error
	}
	ch := make(chan result, 1)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t, err := f()
		if err != nil {
			// Record before delivering: the error must reach Err even
			// when the consumer closes the run without ever pulling.
			rt.noteErr(err)
		}
		ch <- result{t, err}
	}()
	return func() (*buildTable, error) {
		select {
		case res := <-ch:
			return res.t, res.err
		case <-rt.done:
			return nil, errClosed
		}
	}
}

// filterOp applies a comparison FILTER. A placeholder right side
// (rParam non-empty) resolves its constant from the run's bindings at
// open time, and so does a constant the dictionary did not hold at
// compile time (rInDict false), from the dictionary.
type filterOp struct {
	f       *algebra.Filter
	in      physOp
	d       *dict.Dict
	op      sparql.CompareOp
	slot    int
	rSlot   int
	rParam  string
	rTerm   rdf.Term
	rID     dict.ID
	rInDict bool
}

func (o *filterOp) open(rt *runEnv) input {
	f, err := o.newFilter(rt, o.in.open(rt))
	if err != nil {
		return rt.in(o.f, stub{err})
	}
	return rt.in(o.f, f)
}

// newFilter instantiates the filter operator over an input, resolving
// a placeholder constant from the run's bindings and a constant unknown
// at compile time from the dictionary.
func (o *filterOp) newFilter(rt *runEnv, in input) (*filter, error) {
	f := &filter{in: in, d: o.d, op: o.op, slot: o.slot, rSlot: o.rSlot, rTerm: o.rTerm, rID: o.rID, rInDict: o.rInDict}
	switch {
	case o.rParam != "":
		b, ok := rt.binds[o.rParam]
		if !ok {
			return nil, fmt.Errorf("%w $%s", ErrUnboundParam, o.rParam)
		}
		f.rTerm, f.rID, f.rInDict = b.Term, b.ID, b.InDict
	case o.rSlot < 0 && !o.rInDict:
		f.rID, f.rInDict = o.d.Lookup(o.rTerm)
	}
	return f, nil
}

func (o *filterOp) logical() algebra.Node { return o.f }
func (o *filterOp) slots() []int          { return o.in.slots() }

// projectOp narrows rows to the projection columns. n is nil for the
// implicit root projection synthesized over plans without one.
type projectOp struct {
	n    algebra.Node
	in   physOp
	cols []int
}

func (o *projectOp) open(rt *runEnv) input {
	return rt.in(o.n, o.newProject(o.in.open(rt)))
}

func (o *projectOp) newProject(in input) *project {
	return &project{in: in, slots: o.cols, out: batch{cols: make([][]dict.ID, len(o.cols))}}
}

func (o *projectOp) logical() algebra.Node { return o.n }
func (o *projectOp) slots() []int          { return identitySlots(len(o.cols)) }

// sortOp orders the plan's output rows (ORDER BY). It sits above the
// root projection, synthesized by Compiled.Sorted rather than compiled
// from an algebra node, and keys address output columns. Execution
// picks one of three strategies per run: a bounded top-k heap when the
// query has a LIMIT whose prefix fits in the sort budget (never
// spills), a plain stable in-memory sort when the whole input fits,
// and an external merge sort otherwise — sorted runs spill to temp
// files and stream back through a k-way merge, so ordered results of
// any size run in bounded memory.
type sortOp struct {
	in    physOp
	keys  []sortKey
	label string // rendered ORDER BY keys, for explain output
	// topK is OFFSET+LIMIT when the query allows the top-k short
	// circuit (a LIMIT and no DISTINCT), -1 otherwise.
	topK int
	// outWidth is the projected row width, sizing the top-k budget
	// check.
	outWidth int
	d        *dict.Dict
}

func (o *sortOp) open(rt *runEnv) input {
	budget := rt.opts.SortBudget
	if budget <= 0 {
		budget = DefaultSortBudget
	}
	stats := &SortStats{Budget: budget}
	rt.sortStats = stats
	in := input{rt: rt}
	// Division, not multiplication: a huge LIMIT must not overflow into
	// a spuriously eligible top-k that buffers without bound.
	if o.topK >= 0 && int64(o.topK) <= budget/rowFootprint(o.outWidth) {
		stats.Mode, stats.K = "top-k", o.topK
		in.op = &topK{in: o.in.open(rt), rt: rt, d: o.d, keys: o.keys, width: o.outWidth, k: o.topK, stats: stats}
	} else {
		s := &extSort{in: o.in.open(rt), rt: rt, d: o.d, keys: o.keys, width: o.outWidth, budget: budget, tempDir: rt.opts.TempDir, stats: stats}
		rt.addCleanup(s.cleanup)
		in.op = s
	}
	if rt.metrics != nil {
		in.m, in.timed = &OpMetrics{}, !rt.countsOnly
		rt.sortM = in.m
		// Spill counters accumulate in stats during the run; copy them
		// onto the metrics once the run has shut down (the only point
		// Metrics may be read).
		rt.addCleanup(func() {
			in.m.SpilledRuns = stats.SpilledRuns
			in.m.SpilledBytes = stats.SpilledBytes
		})
	}
	return in
}

func (o *sortOp) logical() algebra.Node { return nil }
func (o *sortOp) slots() []int          { return identitySlots(o.outWidth) }

// --- compilation ---

// Compiled is a physical plan: a logical plan lowered once into a tree
// of physical operators, reusable across any number of runs — on the
// engine it was compiled with (unless Unpinned), or (Options.Engine) on
// any other engine over the same dictionary and substrate.
type Compiled struct {
	// eng is the engine runs read when Options.Engine is nil; nil for an
	// Unpinned plan.
	eng *Engine
	// dict and substrate (the source's Name) are what every engine a
	// run names must share with the compile-time one.
	dict      *dict.Dict
	substrate string
	plan      *algebra.Plan
	root      physOp
	vars      []sparql.Var
	params    []string
}

// Unpinned returns the plan without an engine of its own, so that
// holding it — in a plan cache, across commits — keeps no snapshot's
// data reachable. Every run of the returned plan names its engine in
// Options.Engine; a run without one fails at start.
func (c *Compiled) Unpinned() *Compiled {
	out := *c
	out.eng = nil
	return &out
}

// Vars returns the output columns, in row order.
func (c *Compiled) Vars() []sparql.Var { return c.vars }

// Params returns the names of the plan's parameter placeholders, in
// first compilation order; every one must appear in Options.Binds for a
// run to start. Empty for plans without placeholders.
func (c *Compiled) Params() []string { return c.params }

// Plan returns the logical plan the physical plan was compiled from.
func (c *Compiled) Plan() *algebra.Plan { return c.plan }

// Dict returns the dictionary the plan's row IDs decode against.
func (c *Compiled) Dict() *dict.Dict { return c.dict }

// Sorted derives a plan whose runs emit rows ordered by the ORDER BY
// keys, via the streaming sort operator (bounded memory, spilling to
// disk past the run's SortBudget). topK, when >= 0, is the OFFSET+LIMIT
// prefix the consumer will keep — runs then take a top-k short circuit
// that never spills whenever topK rows fit in the budget; pass -1 to
// sort the full input (required under DISTINCT, which must deduplicate
// before any limit applies). The receiver is not modified; deriving is
// O(1) and the result is as reusable and concurrency-safe as the
// original. Keys naming variables absent from the projection are
// rejected.
func (c *Compiled) Sorted(keys []sparql.OrderKey, topK int) (*Compiled, error) {
	if len(keys) == 0 {
		return c, nil
	}
	sk, err := resolveSortKeys(c.vars, keys)
	if err != nil {
		return nil, err
	}
	out := *c
	out.root = &sortOp{
		in:       c.root,
		keys:     sk,
		label:    renderOrderKeys(keys),
		topK:     topK,
		outWidth: len(c.vars),
		d:        c.dict,
	}
	return &out, nil
}

// sortRoot returns the plan's sort operator, or nil when the plan was
// not derived with Sorted.
func (c *Compiled) sortRoot() *sortOp {
	s, _ := c.root.(*sortOp)
	return s
}

// RowComparator returns the ordering the sort operator applies for the
// given ORDER BY keys, over the plan's output rows — the facade merges
// per-branch sorted streams of a UNION with it. Keys naming variables
// absent from the projection are rejected.
func (c *Compiled) RowComparator(keys []sparql.OrderKey) (func(a, b Row) int, error) {
	sk, err := resolveSortKeys(c.vars, keys)
	if err != nil {
		return nil, err
	}
	return func(a, b Row) int { return compareRows(c.dict, sk, a, b) }, nil
}

// DecodeRow decodes an output row of the compiled plan to terms,
// skipping unbound columns. The row must align with Vars.
func (c *Compiled) DecodeRow(row Row) map[sparql.Var]rdf.Term {
	out := make(map[sparql.Var]rdf.Term, len(c.vars))
	for i, v := range c.vars {
		if id := row[i]; id != dict.Invalid {
			out[v] = c.dict.Term(id)
		}
	}
	return out
}

// Compile validates a logical plan and lowers it to a physical
// operator tree: access paths are bound (constant prefixes the
// dictionary knows resolved to IDs, the others left as holes each run
// resolves), variables are assigned row slots, join strategies become
// concrete operators, and a projection is synthesized at the root when
// the plan has none. Nothing else of the engine's data is read, so the
// plan is valid on every engine over the same dictionary and substrate.
func (e *Engine) Compile(p *algebra.Plan) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{engine: e, slots: map[sparql.Var]int{}, seenParams: map[string]bool{}}
	c.assignSlots(p.Root)
	root, err := c.compile(p.Root)
	if err != nil {
		return nil, err
	}
	out := &Compiled{eng: e, dict: e.src.Dict(), substrate: e.src.Name(), plan: p, root: root, params: c.params}
	if proj, ok := p.Root.(*algebra.Project); ok {
		out.vars = c.projectVars(proj)
	} else {
		for v := range c.slots {
			out.vars = append(out.vars, v)
		}
		sort.Slice(out.vars, func(i, j int) bool { return out.vars[i] < out.vars[j] })
		cols := make([]int, len(out.vars))
		for i, v := range out.vars {
			cols[i] = c.slots[v]
		}
		out.root = &projectOp{in: root, cols: cols}
	}
	// Exchange placement: over a positional source, wrap
	// morsel-shardable pipeline chains so parallel runs can scatter them
	// across workers. Sequential runs pass straight through the wrappers.
	if e.msrc != nil {
		out.root = placeExchanges(out.root)
	}
	return out, nil
}

// compiler lowers algebra nodes to physical operators.
type compiler struct {
	engine     *Engine
	slots      map[sparql.Var]int
	params     []string
	seenParams map[string]bool
}

// param records a placeholder the plan depends on.
func (c *compiler) param(name string) {
	if !c.seenParams[name] {
		c.seenParams[name] = true
		c.params = append(c.params, name)
	}
}

func (c *compiler) slot(v sparql.Var) int {
	if s, ok := c.slots[v]; ok {
		return s
	}
	s := len(c.slots)
	c.slots[v] = s
	return s
}

func (c *compiler) assignSlots(n algebra.Node) {
	if s, ok := n.(*algebra.Scan); ok {
		for _, v := range s.TP.Vars() {
			c.slot(v)
		}
	}
	for _, ch := range n.Children() {
		c.assignSlots(ch)
	}
}

func (c *compiler) width() int { return len(c.slots) }

func (c *compiler) compile(n algebra.Node) (physOp, error) {
	switch n := n.(type) {
	case *algebra.Scan:
		return c.compileScan(n)
	case *algebra.Join:
		l, r, err := c.compilePair(n.L, n.R)
		if err != nil {
			return nil, err
		}
		if n.Method == algebra.MergeJoin {
			slot := c.slots[n.On[0]]
			return &mergeJoinOp{j: n, l: l, r: r, slot: slot, jc: newJoinCols(l.slots(), r.slots(), []int{slot}), width: c.width()}, nil
		}
		var keys []int // none: Cartesian product
		for _, v := range n.On {
			if n.Method == algebra.HashJoin {
				keys = append(keys, c.slots[v])
			}
		}
		return &hashJoinOp{n: n, build: l, probe: r, keys: keys, jc: newJoinCols(l.slots(), r.slots(), keys), width: c.width(), morsel: c.morselFor(l)}, nil
	case *algebra.LeftJoin:
		l, r, err := c.compilePair(n.L, n.R)
		if err != nil {
			return nil, err
		}
		var keys []int
		for _, v := range n.On {
			keys = append(keys, c.slots[v])
		}
		return &hashJoinOp{n: n, build: r, probe: l, keys: keys, jc: newJoinCols(r.slots(), l.slots(), keys), width: c.width(), leftOuter: true, morsel: c.morselFor(r)}, nil
	case *algebra.Filter:
		in, err := c.compile(n.In)
		if err != nil {
			return nil, err
		}
		f := &filterOp{
			f:     n,
			in:    in,
			d:     c.engine.src.Dict(),
			op:    n.F.Op,
			slot:  c.slots[n.F.Left],
			rSlot: -1,
		}
		switch {
		case n.F.Right.IsVar():
			f.rSlot = c.slots[n.F.Right.Var]
		case n.F.Right.IsParam():
			f.rParam = n.F.Right.Param
			c.param(f.rParam)
		default:
			f.rTerm = n.F.Right.Term
			f.rID, f.rInDict = c.engine.src.Dict().Lookup(n.F.Right.Term)
		}
		return f, nil
	case *algebra.Project:
		in, err := c.compile(n.In)
		if err != nil {
			return nil, err
		}
		cols := make([]int, 0, len(n.Cols)+len(n.Aliases))
		for _, v := range c.projectVars(n) {
			src := v
			if a, ok := n.Aliases[v]; ok {
				src = a
			}
			s, ok := c.slots[src]
			if !ok {
				return nil, fmt.Errorf("exec: projection variable ?%s is unbound", v)
			}
			cols = append(cols, s)
		}
		return &projectOp{n: n, in: in, cols: cols}, nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// compilePair compiles the two inputs of a join.
func (c *compiler) compilePair(l, r algebra.Node) (physOp, physOp, error) {
	lo, err := c.compile(l)
	if err != nil {
		return nil, nil, err
	}
	ro, err := c.compile(r)
	return lo, ro, err
}

// morselFor returns the build side when it is a partitionable scan, or
// nil when it is anything else (filters, joins, aggregated scans, a
// scan that drops rows on a repeated variable, or a scan over a source
// without positional ranges).
func (c *compiler) morselFor(op physOp) *scanOp {
	s, ok := op.(*scanOp)
	if !ok || c.engine.msrc == nil || slices.ContainsFunc(s.checkSlot, func(c int) bool { return c >= 0 }) {
		return nil
	}
	return s
}

// projectVars returns the output columns of a projection: the declared
// columns followed by alias names, deduplicated, in stable order.
func (c *compiler) projectVars(p *algebra.Project) []sparql.Var {
	var out []sparql.Var
	seen := map[sparql.Var]bool{}
	for _, v := range p.Cols {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var aliases []sparql.Var
	for a := range p.Aliases {
		if !seen[a] {
			aliases = append(aliases, a)
		}
	}
	sort.Slice(aliases, func(i, j int) bool { return aliases[i] < aliases[j] })
	return append(out, aliases...)
}

func (c *compiler) compileScan(s *algebra.Scan) (physOp, error) {
	d := c.engine.src.Dict()
	perm := s.Ordering.Perm()

	// Resolve the constant prefix. Placeholder positions, and constants
	// the dictionary does not hold yet, are left as holes filled in when
	// the scan opens: from the run's bindings, or from the dictionary
	// as it is then (a term interned after compilation starts matching).
	var prefix []dict.ID
	var holes []prefixHole
	for _, pos := range perm {
		n := s.TP.Slot(pos)
		if n.IsVar() {
			break
		}
		if n.IsParam() {
			holes = append(holes, prefixHole{idx: len(prefix), name: n.Param})
			c.param(n.Param)
			prefix = append(prefix, dict.Invalid)
			continue
		}
		id, ok := d.Lookup(n.Term)
		if !ok {
			holes = append(holes, prefixHole{idx: len(prefix), term: n.Term})
		}
		prefix = append(prefix, id)
	}
	nConst := len(prefix)

	if s.Aggregated {
		return c.compileAggScan(s, prefix, holes, nConst)
	}

	op := &scanOp{s: s, prefix: prefix, holes: holes, width: c.width()}
	boundAt := map[sparql.Var]int{}
	for _, pos := range perm[nConst:] {
		v := s.TP.Slot(pos).Var
		if first, dup := boundAt[v]; dup {
			op.slotOf = append(op.slotOf, -1)
			op.checkSlot = append(op.checkSlot, first)
		} else {
			slot := c.slot(v)
			boundAt[v] = slot
			op.slotOf = append(op.slotOf, slot)
			op.checkSlot = append(op.checkSlot, -1)
			op.bound = append(op.bound, slot)
		}
	}
	sort.Ints(op.bound)
	return op, nil
}

// compileAggScan lowers an aggregated-index scan: only the first two
// ordering positions are materialised; the third must be a variable and
// is left unbound (its multiplicity is preserved via the pair counts).
func (c *compiler) compileAggScan(s *algebra.Scan, prefix []dict.ID, holes []prefixHole, nConst int) (physOp, error) {
	if _, ok := c.engine.src.(AggregatedSource); !ok {
		return nil, fmt.Errorf("exec: %s source has no aggregated indexes for %s", c.engine.src.Name(), s.Label())
	}
	perm := s.Ordering.Perm()
	if last := s.TP.Slot(perm[2]); !last.IsVar() {
		return nil, fmt.Errorf("exec: aggregated scan with constant third position in %s", s.Label())
	}
	op := &aggScanOp{s: s, prefix: prefix, holes: holes, width: c.width(), slotOf: [2]int{-1, -1}}
	for i := 0; i < 2; i++ {
		n := s.TP.Slot(perm[i])
		if i < nConst || !n.IsVar() {
			continue
		}
		op.slotOf[i] = c.slot(n.Var)
		op.bound = append(op.bound, op.slotOf[i])
	}
	sort.Ints(op.bound)
	return op, nil
}

// --- runs ---

// Run is one execution of a compiled plan: a row cursor over the root
// operator's batches. Runs are not safe for concurrent use; a run must
// be Closed (or drained) before its Metrics are read. Rows returned by
// Row are valid until the next call to Next.
type Run struct {
	c      *Compiled
	rt     *runEnv
	root   input
	b      *batch // current root batch; row i is the cursor
	i      int
	ask    bool
	seen   *RowSet // DISTINCT filter; nil without DISTINCT
	row    Row
	err    error
	done   bool
	closed bool
}

// Run starts a new execution. Parallel runs spawn their build-side
// workers immediately; call Close to release them when abandoning the
// run early.
func (c *Compiled) Run(opts Options) *Run {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; RunContext is the cancellable path
	return c.runCtx(context.Background(), opts, false)
}

// RunContext starts a new execution bound to ctx: when the context is
// cancelled or its deadline fires, the run aborts cooperatively — at
// batch pulls and morsel boundaries — and Err returns the context's
// error. A context that is already cancelled yields a run that emits
// nothing without opening the operator tree. Close must still be called
// (or the run drained) to release resources.
func (c *Compiled) RunContext(ctx context.Context, opts Options) *Run {
	return c.runCtx(ctx, opts, false)
}

func (c *Compiled) runCtx(ctx context.Context, opts Options, countsOnly bool) *Run {
	eng := opts.Engine
	if eng == nil {
		eng = c.eng
	}
	rt := &runEnv{opts: opts, countsOnly: countsOnly, done: make(chan struct{})}
	if eng != nil {
		rt.src, rt.msrc, rt.epoch = eng.src, eng.msrc, eng.epoch
	}
	if opts.Parallelism > 1 {
		rt.sem = make(chan struct{}, opts.Parallelism)
	}
	if opts.Analyze {
		rt.metrics = Metrics{}
	}
	r := &Run{c: c, rt: rt, root: input{op: stub{}, rt: rt}, row: make(Row, len(c.vars))}
	// The plan holds the compile-time dictionary's IDs and the
	// substrate's access paths: any other dictionary or substrate would
	// silently mis-answer.
	switch {
	case eng == nil:
		r.err = errors.New("exec: an unpinned plan runs only on the engine named in Options.Engine")
	case eng != c.eng && (eng.src.Dict() != c.dict || eng.src.Name() != c.substrate):
		r.err = fmt.Errorf("exec: a plan runs only on engines sharing its dictionary and substrate (compiled on %s, run on %s)", c.substrate, eng.src.Name())
	}
	if r.err != nil {
		rt.cancel(nil)
		r.done = true
		return r
	}
	// Bind step: resolve every placeholder binding against the
	// dictionary once per run (pre-resolved batched bindings skip the
	// lookups), then validate the plan's placeholders are all covered —
	// before any operator opens or worker starts.
	rt.binds = opts.Resolved
	if len(rt.binds) == 0 {
		rt.binds = c.ResolveBinds(opts.Binds)
	}
	for _, name := range c.params {
		if _, ok := rt.binds[name]; !ok {
			rt.cancel(nil)
			r.err = fmt.Errorf("%w $%s", ErrUnboundParam, name)
			r.done = true
			return r
		}
	}
	if q := c.plan.Query; q != nil {
		r.ask = q.Ask
		if q.Distinct {
			r.seen = NewRowSet(0)
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Already cancelled: never open the operator tree, so no scan
			// or build work starts at all.
			rt.cancel(err)
			r.done = true
			return r
		}
		if d := ctx.Done(); d != nil {
			rt.hasCtx = true
			rt.ctx = ctx
			rt.wg.Add(1)
			go func() {
				defer rt.wg.Done()
				select {
				case <-d:
					rt.cancel(ctx.Err())
				case <-rt.done:
				}
			}()
		}
	}
	r.root = c.root.open(rt)
	return r
}

// Next advances to the next row, returning false at the end of the
// stream, on error, or when the run's context is cancelled (observed
// when the cursor moves on to the next batch).
func (r *Run) Next() bool {
	if r.done || r.closed {
		return false
	}
	for {
		r.i++
		for r.b == nil || r.i >= r.b.n {
			r.b, r.err = r.root.next()
			if r.b == nil {
				r.done = true
				r.rt.shutdown()
				return false
			}
			r.i = 0
		}
		r.b.row(r.i, r.row)
		if r.seen != nil && !r.seen.Add(r.row) {
			continue
		}
		if r.ask {
			r.done = true // ASK needs only existence
		}
		return true
	}
}

// Row returns the current row (columns aligned with Vars), valid until
// the next call to Next.
func (r *Run) Row() Row { return r.row }

// Vars returns the output columns, in row order.
func (r *Run) Vars() []sparql.Var { return r.c.vars }

// Terms decodes the current row.
func (r *Run) Terms() map[sparql.Var]rdf.Term {
	return r.c.DecodeRow(r.row)
}

// Err returns the first execution error, if any. A run aborted by its
// context reports the context's error (context.Canceled or
// context.DeadlineExceeded); a run closed early by Close reports none —
// unless a background worker (a hash-join build, an exchange worker)
// had already failed, in which case that error is reported even though
// the consumer never pulled the row that would have surfaced it.
func (r *Run) Err() error {
	if r.err != nil && !errors.Is(r.err, errClosed) {
		return r.err
	}
	if e, ok := r.rt.workerErr.Load().(error); ok {
		return e
	}
	cause, _ := r.rt.cause.Load().(error) // the context error that aborted the run, if any
	return cause
}

// Close cancels the run and waits for every worker it spawned to exit;
// closing an exhausted or already-closed run is a cheap no-op. It never
// fails; the error return mirrors io.Closer.
func (r *Run) Close() error {
	if r.b != nil && !r.closed {
		// Abandoned mid-batch (LIMIT, ASK): analyze counts stay what a
		// row-at-a-time engine would have pulled.
		r.root.consumed(r.i + 1)
	}
	r.closed = true
	r.rt.shutdown()
	return nil
}

// Metrics returns the per-operator statistics of an analyze run (nil
// otherwise). Only valid after the run is exhausted or closed.
func (r *Run) Metrics() Metrics { return r.rt.metrics }

// SortStats reports how the run's ORDER BY executed — strategy, peak
// buffer size, spilled runs and bytes — or nil for plans without a
// sort operator. Counters are complete once the run is exhausted or
// closed.
func (r *Run) SortStats() *SortStats { return r.rt.sortStats }

// SortMetrics returns the sort operator's row/time metrics on analyze
// runs (nil otherwise, and nil for plans without a sort operator).
func (r *Run) SortMetrics() *OpMetrics { return r.rt.sortM }

// Epoch returns the dataset epoch the run is pinned to: the snapshot of
// the engine it runs on (Options.Engine, or the one its plan was
// compiled with). The pin holds for the run's whole lifetime — commits
// published after the run started never change what it reads.
func (r *Run) Epoch() uint64 { return r.rt.epoch }
