// Package hsp is a from-scratch Go implementation of "Heuristics-based
// Query Optimisation for SPARQL" (Tsialiamanis et al., EDBT 2012): an
// in-memory RDF store with all six sorted triple orderings, the
// Heuristic SPARQL Planner (HSP) the paper contributes, and the two
// baselines it evaluates against — RDF-3X's cost-based dynamic
// programming planner (CDP) over delta-compressed clustered indexes,
// and a left-deep MonetDB/SQL-style planner.
//
// Quick start — prepare once, execute many:
//
//	db, err := hsp.OpenNTriples(strings.NewReader(data))
//	stmt, err := db.Prepare(ctx, `SELECT ?yr WHERE { ?j <dc:title> $title . ?j <dcterms:issued> ?yr }`)
//	defer stmt.Close()
//	res, err := stmt.Query(ctx, hsp.Bind("title", hsp.Literal("Journal 1 (1940)")))
//	for i := 0; i < res.Len(); i++ { fmt.Println(res.Row(i)) }
//
// Prepare parses, plans and compiles the query once; $name placeholders
// are planned as unbound-but-typed constants and bound per execution
// with Bind, so re-executing with new values costs a bind, not a
// re-plan. Stmt carries every verb ctx-first: Query, Stream, Ask and
// ExplainAnalyze. The one-shot convenience verbs (Query, Stream, Ask,
// Execute, ExplainAnalyze and their Context twins) are thin shims over
// the same Prepare + Stmt core.
//
// Planner and engine can be chosen independently:
//
//	plan, _ := db.Plan(query, hsp.PlannerHSP)   // or PlannerCDP, PlannerSQL, PlannerHybrid
//	res, _ := db.Execute(plan, hsp.EngineRDF3X) // or EngineMonet
//
// Results can also be streamed row by row instead of materialised, with
// optional intra-query parallelism, and plans profiled per operator:
//
//	rows, _ := db.Stream(query, hsp.WithParallelism(4))
//	defer rows.Close()
//	for rows.Next() { use(rows.Row()) }
//	out, _ := db.ExplainAnalyze(plan, hsp.EngineMonet) // EXPLAIN ANALYZE
//
// For serving workloads, every execution path honours cancellation and
// deadlines, repeated queries skip planning via the shared
// compiled-plan cache (keyed by parameterized template, so queries
// differing only in literal constants share one plan), and per-operator
// counters can stream to a metrics sink:
//
//	ctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
//	defer cancel()
//	res, err := db.QueryContext(ctx, query, hsp.WithPlanCache(1024),
//		hsp.WithMetricsSink(func(s hsp.OpStats) { observe(s) }))
//
// Datasets are live: the DB serves immutable MVCC snapshots and a
// transactional writer publishes successors under increasing epochs.
// Readers pin the snapshot they started with — streams, statements and
// plans are never disturbed by commits. A cached HSP plan survives
// commits (later requests run it on their own snapshot); cached plans
// of the planners that read statistics are invalidated lazily:
//
//	txn, err := db.Update(ctx)
//	txn.Insert(hsp.Triple{S: hsp.IRI("s"), P: hsp.IRI("p"), O: hsp.Literal("o")})
//	stats, err := txn.Commit(ctx) // stats.Epoch, stats.Inserted, ...
//
// See docs/API.md for the statement lifecycle and binding semantics,
// docs/ARCHITECTURE.md for the full pipeline and docs/QUERY_GUIDE.md
// for which query shapes the heuristics reward.
package hsp

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"weak"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/cdp"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/sqlopt"
	"github.com/sparql-hsp/hsp/internal/stats"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// Planner selects the query optimizer.
type Planner string

// The three planners of the paper's evaluation, plus the hybrid
// strategy its conclusion proposes.
const (
	// PlannerHSP is the paper's contribution: the heuristic planner
	// (no statistics, maximal merge joins via the variable graph).
	PlannerHSP Planner = "hsp"
	// PlannerCDP is RDF-3X's cost-based dynamic-programming baseline.
	PlannerCDP Planner = "cdp"
	// PlannerSQL is the left-deep MonetDB/SQL-style baseline.
	PlannerSQL Planner = "sql"
	// PlannerHybrid combines HSP's structural decisions (what to
	// merge-join) with exact selection statistics for ordering, the
	// "hybrid optimization strategy" of the paper's Section 7.
	PlannerHybrid Planner = "hybrid"
)

// Engine selects the storage substrate executing a plan.
type Engine string

// The two execution substrates.
const (
	// EngineMonet executes over the six uncompressed sorted orderings
	// (binary-search selections), the MonetDB-style column substrate.
	EngineMonet Engine = "monet"
	// EngineRDF3X executes over delta-compressed clustered B+-tree
	// indexes with aggregated pair indexes, the RDF-3X substrate.
	EngineRDF3X Engine = "rdf3x"
)

// Term is an RDF term of the public API.
type Term struct {
	// Kind is "iri", "literal" or "blank".
	Kind string
	// Value is the IRI, literal text, or blank node label.
	Value string
}

// IRI constructs an IRI term.
func IRI(v string) Term { return Term{Kind: "iri", Value: v} }

// Literal constructs a literal term.
func Literal(v string) Term { return Term{Kind: "literal", Value: v} }

// Blank constructs a blank-node term.
func Blank(v string) Term { return Term{Kind: "blank", Value: v} }

// String renders the term in N-Triples syntax.
func (t Term) String() string { return t.internal().String() }

func (t Term) internal() rdf.Term {
	switch t.Kind {
	case "literal":
		return rdf.NewLiteral(t.Value)
	case "blank":
		return rdf.NewBlank(t.Value)
	default:
		return rdf.NewIRI(t.Value)
	}
}

// decodeID is the one place a dictionary ID of a result row becomes a
// public term; dict.Invalid — unbound — decodes to the zero Term.
func decodeID(d *dict.Dict, id dict.ID) Term {
	if id == dict.Invalid {
		return Term{}
	}
	return externTerm(d.Term(id))
}

func externTerm(t rdf.Term) Term {
	switch t.Kind {
	case rdf.Literal:
		return Literal(t.Value)
	case rdf.Blank:
		return Blank(t.Value)
	default:
		return IRI(t.Value)
	}
}

// Triple is an RDF statement of the public API.
type Triple struct{ S, P, O Term }

// DB is a live, queryable RDF dataset built on MVCC snapshots: the
// handle always points at an immutable snapshot of the data, and the
// transactional update path (Update → Txn → Commit) publishes
// successor snapshots atomically under monotonically increasing
// epochs. Reads pin the snapshot they were compiled against — a
// prepared statement, plan or open result stream keeps reading exactly
// the data it started with, however many commits land meanwhile — so
// readers never block on writers and writers never corrupt readers.
// All methods are safe for concurrent use.
type DB struct {
	// state is the current snapshot bundle, swapped atomically by
	// Txn.Commit; every read path captures it once and works against
	// that capture.
	state atomic.Pointer[dbState]

	// writer serialises transactions: Update acquires the slot,
	// Commit/Rollback release it.
	writer chan struct{}

	// pc is the shared compiled-plan cache, created lazily on the first
	// query served with WithPlanCache. It is shared across snapshots:
	// HSP entries serve every epoch; entries of planners that read
	// statistics are epoch-tagged and invalidated lazily after commits.
	pcMu sync.Mutex
	pc   *exec.PlanCache

	// dur is the durability subsystem attachment — WAL, base-snapshot
	// coordinates, compactor — nil for purely in-memory DBs.
	dur *durability

	// snaps weakly tracks every published snapshot for StoreStats:
	// superseded epochs stay in the list only while something still
	// pins them.
	snapMu sync.Mutex
	snaps  []weak.Pointer[store.Snapshot]
}

// dbState bundles everything derived from one snapshot: the snapshot
// itself, the execution engines over it — the column substrate's built
// with the state, the RDF-3X index set's on first use — and the
// cross-planning statistics memo feeding the cost-based planners.
// Every run of a request binds its (possibly cached, possibly older)
// compiled plan to the engine of the state the request captured.
type dbState struct {
	snap   *store.Snapshot
	col    *exec.Engine
	rxOnce sync.Once
	rx     *exec.Engine
	rxErr  error
	memo   *stats.Memo
}

// newState bundles a snapshot with its column engine and memo.
func newState(snap *store.Snapshot, memo *stats.Memo) *dbState {
	return &dbState{snap: snap, col: exec.NewAt(exec.ColumnSource{St: snap.Store()}, snap.Epoch()), memo: memo}
}

// rdf3xEngine builds the state's compressed index set, and the engine
// over it, on first use.
func (st *dbState) rdf3xEngine() (*exec.Engine, error) {
	st.rxOnce.Do(func() {
		rx, err := rdf3x.Build(st.snap.Store())
		if err != nil {
			st.rxErr = err
			return
		}
		st.rx = exec.NewAt(exec.RDF3XSource{St: rx}, st.snap.Epoch())
	})
	return st.rx, st.rxErr
}

// newDB wraps a freshly built store as a DB at epoch 0.
func newDB(col *store.Store) *DB {
	return newDBAt(store.NewSnapshot(col, 0))
}

// newDBAt wraps a snapshot (possibly reloaded mid-lineage) as a DB.
func newDBAt(snap *store.Snapshot) *DB {
	db := &DB{writer: make(chan struct{}, 1)}
	db.state.Store(newState(snap, stats.NewMemo()))
	db.trackSnapshot(snap)
	return db
}

// loadState captures the current snapshot bundle.
func (db *DB) loadState() *dbState { return db.state.Load() }

// Epoch returns the version of the dataset the DB currently serves.
// Epochs start at 0 (or at a reloaded snapshot's saved epoch) and
// increase by one with every effective commit.
func (db *DB) Epoch() uint64 { return db.loadState().snap.Epoch() }

// DatasetBuilder accumulates triples for a DB.
type DatasetBuilder struct {
	b *store.Builder
}

// NewDataset returns an empty dataset builder.
func NewDataset() *DatasetBuilder {
	return &DatasetBuilder{b: store.NewBuilder(nil)}
}

// Add appends one triple. It returns an error for triples violating the
// RDF data model (literal subjects, non-IRI predicates, zero terms).
func (d *DatasetBuilder) Add(t Triple) error {
	tr := rdf.Triple{S: t.S.internal(), P: t.P.internal(), O: t.O.internal()}
	if !tr.Valid() {
		return fmt.Errorf("hsp: invalid triple %s", tr)
	}
	d.b.Add(tr)
	return nil
}

// LoadNTriples parses and adds every statement from r.
func (d *DatasetBuilder) LoadNTriples(r io.Reader) error {
	ts, err := rdf.NewReader(r).ReadAll()
	if err != nil {
		return err
	}
	for _, t := range ts {
		d.b.Add(t)
	}
	return nil
}

// Build finalises the dataset: the six orderings are sorted and
// duplicates removed. The DB starts at epoch 0; grow or shrink it
// later with Update.
func (d *DatasetBuilder) Build() *DB {
	return newDB(d.b.Build())
}

// ReadNTriples parses every statement of an N-Triples stream into
// public Triple values — the helper CLI and server callers use to feed
// Txn.Insert or Txn.Delete from a file.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	ts, err := rdf.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]Triple, len(ts))
	for i, t := range ts {
		out[i] = Triple{S: externTerm(t.S), P: externTerm(t.P), O: externTerm(t.O)}
	}
	return out, nil
}

// OpenNTriples builds a DB from an N-Triples stream.
func OpenNTriples(r io.Reader) (*DB, error) {
	d := NewDataset()
	if err := d.LoadNTriples(r); err != nil {
		return nil, err
	}
	return d.Build(), nil
}

// OpenNTriplesFile builds a DB from an N-Triples file.
func OpenNTriplesFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenNTriples(f)
}

// Save writes a compact, checksummed binary snapshot of the dataset —
// the snapshot the DB currently serves, together with its epoch, so a
// reloaded dataset resumes its version lineage instead of silently
// resetting epoch-keyed plan-cache entries to epoch 0. Snapshots load
// much faster than re-parsing N-Triples (only the dictionary and one
// sorted relation are stored; the other orderings are rebuilt).
func (db *DB) Save(w io.Writer) error { return db.loadState().snap.Save(w) }

// SaveFile writes a snapshot to a file.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenSnapshot rebuilds a DB from a snapshot written by Save, resuming
// at the epoch the snapshot was saved at (0 for files written before
// epochs existed).
func OpenSnapshot(r io.Reader) (*DB, error) {
	snap, err := store.LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newDBAt(snap), nil
}

// OpenSnapshotFile rebuilds a DB from a snapshot file.
func OpenSnapshotFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenSnapshot(f)
}

// GenerateSP2Bench builds a DB with approximately scale triples of
// SP²Bench-shaped synthetic data (the paper's synthetic workload).
func GenerateSP2Bench(scale int, seed int64) *DB {
	return newDB(sp2bench.Generate(scale, seed))
}

// GenerateYAGO builds a DB with approximately scale triples of
// YAGO-shaped synthetic data (the paper's real-world workload shape).
func GenerateYAGO(scale int, seed int64) *DB {
	return newDB(yago.Generate(scale, seed))
}

// NumTriples returns the number of distinct triples in the snapshot
// the DB currently serves.
func (db *DB) NumTriples() int { return db.loadState().snap.NumTriples() }

// Plan parses and optimises a SPARQL join query with the chosen
// planner. UNION queries yield one sub-plan per branch. The plan is
// pinned to the snapshot current at planning time: its statistics,
// compilation and executions all read that snapshot, even after later
// commits.
// Pass WithRewrites to control the algebraic rewrite pass (all rules
// run by default); other execution options are ignored at planning
// time.
func (db *DB) Plan(query string, p Planner, opts ...ExecOption) (*Plan, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.planParsed(db.loadState(), q, p, configOf(opts).rewrites)
}

func (db *DB) planParsed(state *dbState, q *sparql.Query, p Planner, rw rewrite.Config) (*Plan, error) {
	var notes []string
	q, notes = rewrite.Apply(q, rw)
	col := state.snap.Store()
	est := func() *stats.Estimator { return stats.NewShared(col, state.memo) }
	out := &Plan{db: db, state: state, head: q, rewrites: notes}
	for _, branch := range q.Branches() {
		switch p {
		case PlannerHSP, "":
			res, err := core.NewPlanner().PlanDetailed(branch)
			if err != nil {
				return nil, err
			}
			if out.hsp == nil {
				out.hsp = res
			}
			out.plans = append(out.plans, res.Plan)
		case PlannerHybrid:
			res, err := core.NewPlannerWith(core.Options{Stats: est()}).PlanDetailed(branch)
			if err != nil {
				return nil, err
			}
			if out.hsp == nil {
				out.hsp = res
			}
			out.plans = append(out.plans, res.Plan)
		case PlannerCDP:
			pl, err := cdp.New(est(), cdp.Options{UseAggregatedIndexes: true}).Plan(branch)
			if err != nil {
				return nil, err
			}
			out.plans = append(out.plans, pl)
		case PlannerSQL:
			pl, err := sqlopt.New(est()).Plan(branch)
			if err != nil {
				return nil, err
			}
			out.plans = append(out.plans, pl)
		default:
			return nil, fmt.Errorf("hsp: unknown planner %q", p)
		}
	}
	if rw.Pushdown {
		for _, pl := range out.plans {
			root, ns := rewrite.PushFilters(pl.Root)
			pl.Root = root
			out.rewrites = append(out.rewrites, ns...)
		}
	}
	return out, nil
}

// Plan is an optimised, executable query plan: one operator tree per
// UNION branch (a single tree for queries without UNION). A plan is
// pinned to the MVCC snapshot it was planned against.
type Plan struct {
	db       *DB
	state    *dbState        // the snapshot bundle the plan is pinned to
	head     *sparql.Query   // the full parsed query, carrying the modifiers
	plans    []*algebra.Plan // one per UNION branch
	hsp      *core.Result    // first branch detail, HSP/hybrid plans only
	rewrites []string        // rewrite-pass notes, one per applied rule
}

// RewriteNotes returns one note per algebraic rewrite the pass applied
// while planning (constant folds, pattern reorders, filters pushed
// below joins), in application order — the same notes EXPLAIN ANALYZE
// prints as rewrite: lines. Empty when nothing applied or the pass was
// disabled with WithRewrites.
func (p *Plan) RewriteNotes() []string {
	return append([]string(nil), p.rewrites...)
}

// Epoch returns the dataset epoch the plan is pinned to.
func (p *Plan) Epoch() uint64 { return p.state.snap.Epoch() }

// Planner returns which planner produced the plan.
func (p *Plan) Planner() string { return p.plans[0].Planner }

// Branches returns the number of UNION branches (1 without UNION).
func (p *Plan) Branches() int { return len(p.plans) }

// MergeJoins returns the number of merge joins across branches (Table 4).
func (p *Plan) MergeJoins() int {
	n := 0
	for _, pl := range p.plans {
		m, _ := algebra.CountJoins(pl.Root)
		n += m
	}
	return n
}

// HashJoins returns the number of hash joins across branches,
// Cartesian products included (Table 4).
func (p *Plan) HashJoins() int {
	n := 0
	for _, pl := range p.plans {
		_, h := algebra.CountJoins(pl.Root)
		n += h
	}
	return n
}

// Shape returns "LD" (left-deep) or "B" (bushy), as in Table 4; a
// union is bushy if any branch is.
func (p *Plan) Shape() string {
	for _, pl := range p.plans {
		if algebra.PlanShape(pl.Root) == algebra.Bushy {
			return algebra.Bushy.String()
		}
	}
	return algebra.LeftDeep.String()
}

// HasCartesianProduct reports whether any branch contains a cross join.
func (p *Plan) HasCartesianProduct() bool {
	for _, pl := range p.plans {
		for _, j := range algebra.Joins(pl.Root) {
			if j.Method == algebra.CrossJoin {
				return true
			}
		}
	}
	return false
}

// String renders the operator tree(s).
func (p *Plan) String() string {
	if len(p.plans) == 1 {
		return algebra.Explain(p.plans[0].Root, nil)
	}
	var b strings.Builder
	for i, pl := range p.plans {
		fmt.Fprintf(&b, "UNION branch %d:\n%s", i, algebra.Explain(pl.Root, nil))
	}
	return b.String()
}

// VariableGraph returns the rendered variable graph of each Algorithm 1
// round (HSP plans only; empty otherwise) — the structure of Figure 1.
func (p *Plan) VariableGraph() []string {
	if p.hsp == nil {
		return nil
	}
	return append([]string(nil), p.hsp.Graphs...)
}

// MergeVariables returns the independent set chosen in each round of
// Algorithm 1 (HSP plans only).
func (p *Plan) MergeVariables() [][]string {
	if p.hsp == nil {
		return nil
	}
	var out [][]string
	for _, round := range p.hsp.Rounds {
		var vs []string
		for _, v := range round {
			vs = append(vs, string(v))
		}
		out = append(out, vs)
	}
	return out
}

// engineFor returns the state's engine for a substrate, pinned to that
// snapshot's data and epoch.
func engineFor(state *dbState, e Engine) (*exec.Engine, error) {
	switch e {
	case EngineMonet, "":
		return state.col, nil
	case EngineRDF3X:
		return state.rdf3xEngine()
	default:
		return nil, fmt.Errorf("hsp: unknown engine %q", e)
	}
}

// Execute runs a plan on the chosen engine and materialises the
// result: UNION branches are concatenated, then DISTINCT, ORDER BY,
// OFFSET and LIMIT are applied. Pass WithParallelism to let the
// executor use concurrent workers; Stream and StreamPlan avoid
// materialisation entirely. ExecuteContext additionally supports
// cancellation and deadlines.
func (db *DB) Execute(p *Plan, e Engine, opts ...ExecOption) (*Result, error) {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; ExecuteContext is the cancellable path
	return db.ExecuteContext(context.Background(), p, e, opts...)
}

// Explain executes the plan and renders its operator tree(s) annotated
// with observed per-operator cardinalities, the format of the paper's
// plan figures. ExplainContext additionally supports cancellation and
// deadlines.
func (db *DB) Explain(p *Plan, e Engine) (string, error) {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; ExplainContext is the cancellable path
	return db.ExplainContext(context.Background(), p, e)
}

// ExplainContext is Explain under a caller context: a cancelled context
// aborts the cardinality-gathering execution and returns its error.
func (db *DB) ExplainContext(ctx context.Context, p *Plan, e Engine) (string, error) {
	eng, err := engineFor(p.state, e)
	if err != nil {
		return "", err
	}
	if len(p.plans) == 1 {
		return eng.Explain(ctx, p.plans[0])
	}
	var b strings.Builder
	for i, pl := range p.plans {
		tree, err := eng.Explain(ctx, pl)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "UNION branch %d:\n%s", i, tree)
	}
	return b.String(), nil
}

// ExplainAnalyze executes the plan with per-operator instrumentation
// and renders the operator tree(s) annotated with observed row counts,
// wall times and hash-join build sizes — EXPLAIN ANALYZE. Each UNION
// branch gets a run summary line followed by its tree; ORDER BY plans
// additionally report the streaming sort operator's "sort:" line with
// its spilled-runs and spilled-bytes counters.
func (db *DB) ExplainAnalyze(p *Plan, e Engine, opts ...ExecOption) (string, error) {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; ExplainAnalyzeContext is the cancellable path
	return db.ExplainAnalyzeContext(context.Background(), p, e, opts...)
}

// Query is the convenience path: HSP planning on the column substrate
// (override with WithPlanner/WithEngine). QueryContext additionally
// supports cancellation, deadlines and the compiled-plan cache. Like
// every legacy verb it is a shim over Prepare + Stmt; prepare the query
// yourself to execute it repeatedly without re-parsing or re-planning.
func (db *DB) Query(query string, opts ...ExecOption) (*Result, error) {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; QueryContext is the cancellable path
	return db.QueryContext(context.Background(), query, opts...)
}

// Ask evaluates an ASK query: whether at least one solution exists. The
// executor stops at the first solution found. AskContext additionally
// supports cancellation, deadlines and the compiled-plan cache. It is a
// shim over Prepare + Stmt.Ask.
func (db *DB) Ask(query string, opts ...ExecOption) (bool, error) {
	//hsp:lint-allow ctxflow documented context-less compatibility verb; AskContext is the cancellable path
	return db.AskContext(context.Background(), query, opts...)
}

// Result is a materialised query answer (a multiset of mappings).
type Result struct {
	res  *exec.Result
	dict *dict.Dict // of the snapshot the result was computed on
}

// Vars returns the projected variable names, without '?'.
func (r *Result) Vars() []string {
	var out []string
	for _, v := range r.res.Vars {
		out = append(out, string(v))
	}
	return out
}

// Len returns the number of result mappings.
func (r *Result) Len() int { return r.res.Len() }

// Row returns result mapping i as variable→term: a fresh map the
// caller owns, without an entry for a variable the row leaves unbound.
func (r *Result) Row(i int) map[string]Term {
	out := make(map[string]Term, len(r.res.Vars))
	for c, id := range r.res.Rows[i] {
		if id != dict.Invalid {
			out[string(r.res.Vars[c])] = decodeID(r.dict, id)
		}
	}
	return out
}

// String renders the result as a sorted tab-separated table.
func (r *Result) String() string { return r.res.String() }
