package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// Engine executes logical plans against a storage substrate. An engine
// built with NewAt is pinned to one MVCC snapshot of a live dataset:
// every run on it reads exactly that snapshot's data however many
// commits land meanwhile. The plans it compiles are not tied to it: a
// compiled plan holds dictionary IDs only for terms the (shared,
// grow-only) dictionary already knew, so Options.Engine can run it on
// any engine over the same dictionary and substrate — a later snapshot
// of the same dataset included.
type Engine struct {
	src Source
	// msrc is src as a MorselSource, nil when its scans are not
	// positional ranges (decided once, at construction).
	msrc  MorselSource
	epoch uint64
}

// New returns an engine over the given source, at epoch 0.
func New(src Source) *Engine { return NewAt(src, 0) }

// NewAt returns an engine over the given source pinned to the dataset
// epoch the source was captured at. The epoch identifies the snapshot
// in EXPLAIN ANALYZE output and Run.Epoch.
func NewAt(src Source, epoch uint64) *Engine {
	e := &Engine{src: src, epoch: epoch}
	e.msrc, _ = src.(MorselSource)
	return e
}

// Source returns the engine's substrate.
func (e *Engine) Source() Source { return e.src }

// Epoch returns the dataset epoch the engine is pinned to.
func (e *Engine) Epoch() uint64 { return e.epoch }

// Result is a materialised query answer: a multiset of mappings from
// the projected variables to dictionary-encoded terms.
type Result struct {
	Vars []sparql.Var
	Rows []Row
	d    *dict.Dict
}

// Len returns the number of result mappings.
func (r *Result) Len() int { return len(r.Rows) }

// Terms decodes result row i.
func (r *Result) Terms(i int) map[sparql.Var]rdf.Term {
	out := make(map[sparql.Var]rdf.Term, len(r.Vars))
	for c, v := range r.Vars {
		if id := r.Rows[i][c]; id != dict.Invalid {
			out[v] = r.d.Term(id)
		}
	}
	return out
}

// String renders the result as a small table, rows sorted, for examples
// and golden tests.
func (r *Result) String() string {
	var b strings.Builder
	for i, v := range r.Vars {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString("?" + string(v))
	}
	b.WriteByte('\n')
	lines := make([]string, 0, len(r.Rows))
	for i := range r.Rows {
		var lb strings.Builder
		for c := range r.Vars {
			if c > 0 {
				lb.WriteByte('\t')
			}
			if id := r.Rows[i][c]; id != dict.Invalid {
				lb.WriteString(r.d.Term(id).String())
			} else {
				lb.WriteString("∅")
			}
		}
		lines = append(lines, lb.String())
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// SortBy orders the result rows by the given ORDER BY keys, comparing
// term texts lexicographically (unbound values sort first). Keys naming
// variables absent from the projection are rejected. It shares its
// comparator (compareRows) with the streaming sort operator, so the
// materialised and streamed ORDER BY paths order identically by
// construction.
func (r *Result) SortBy(keys []sparql.OrderKey) error {
	sk, err := resolveSortKeys(r.Vars, keys)
	if err != nil {
		return err
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		return compareRows(r.d, sk, r.Rows[i], r.Rows[j]) < 0
	})
	return nil
}

// Slice applies OFFSET and LIMIT (limit < 0 keeps everything).
func (r *Result) Slice(offset, limit int) {
	if offset > len(r.Rows) {
		offset = len(r.Rows)
	}
	r.Rows = r.Rows[offset:]
	if limit >= 0 && limit < len(r.Rows) {
		r.Rows = r.Rows[:limit]
	}
}

// Append concatenates another result with the same projection (UNION).
func (r *Result) Append(o *Result) error {
	if len(r.Vars) != len(o.Vars) {
		return fmt.Errorf("exec: union branches project different variables: %v vs %v", r.Vars, o.Vars)
	}
	for i := range r.Vars {
		if r.Vars[i] != o.Vars[i] {
			return fmt.Errorf("exec: union branches project different variables: %v vs %v", r.Vars, o.Vars)
		}
	}
	r.Rows = append(r.Rows, o.Rows...)
	return nil
}

// Dedup removes duplicate rows in place, preserving first occurrences
// (SELECT DISTINCT across UNION branches).
func (r *Result) Dedup() {
	seen := NewRowSet(len(r.Rows))
	w := 0
	for _, row := range r.Rows {
		if !seen.Add(row) {
			continue
		}
		r.Rows[w] = row
		w++
	}
	r.Rows = r.Rows[:w]
}

// Execute runs a plan to completion with default options under ctx.
// Streaming consumers use Compile and RunContext directly;
// ExecuteContext takes Options.
func (e *Engine) Execute(ctx context.Context, p *algebra.Plan) (*Result, error) {
	return e.ExecuteContext(ctx, p, Options{})
}

// ExecuteContext compiles a plan and runs it to completion under ctx:
// cancellation or a fired deadline aborts the run mid-pipeline and
// returns the context's error.
func (e *Engine) ExecuteContext(ctx context.Context, p *algebra.Plan, opts Options) (*Result, error) {
	c, err := e.Compile(p)
	if err != nil {
		return nil, err
	}
	return c.ExecuteContext(ctx, opts)
}

// ExecuteContext runs the compiled plan to completion under ctx and
// materialises every row. The compiled plan is immutable and safe for
// any number of concurrent ExecuteContext and RunContext calls.
func (c *Compiled) ExecuteContext(ctx context.Context, opts Options) (*Result, error) {
	res, _, err := c.runMaterialised(ctx, opts, false)
	return res, err
}

// ExecuteStatsContext is ExecuteContext with per-operator
// instrumentation: it forces Options.Analyze and additionally returns
// the run's operator statistics (see Run.OpStats), for metrics sinks on
// the materialised path.
func (c *Compiled) ExecuteStatsContext(ctx context.Context, opts Options) (*Result, []OpStat, error) {
	opts.Analyze = true
	run := c.runCtx(ctx, opts, false)
	defer run.Close()
	res, err := c.drainRun(run)
	if err != nil {
		return nil, nil, err
	}
	run.Close() // counters are final only once the run has shut down
	return res, run.OpStats(), nil
}

// drainRun materialises every row of a run, carving the rows out of
// one flat arena per batch; the caller owns Close.
func (c *Compiled) drainRun(run *Run) (*Result, error) {
	res := &Result{d: c.dict, Vars: append([]sparql.Var(nil), c.vars...)}
	arena := rowArena{width: len(c.vars)}
	for run.Next() {
		row := arena.take(run.b.n - run.i) // a chunk per batch
		copy(row, run.Row())
		res.Rows = append(res.Rows, row)
	}
	if err := run.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// runMaterialised drains one run into a Result. countsOnly collects
// row counts without timing, for the cardinality paths.
func (c *Compiled) runMaterialised(ctx context.Context, opts Options, countsOnly bool) (*Result, Metrics, error) {
	run := c.runCtx(ctx, opts, countsOnly)
	defer run.Close()
	res, err := c.drainRun(run)
	if err != nil {
		return nil, nil, err
	}
	return res, run.Metrics(), nil
}

// ExecuteWithCards runs a plan under ctx and returns per-operator
// output counts, the annotations shown in the paper's plan figures.
func (e *Engine) ExecuteWithCards(ctx context.Context, p *algebra.Plan) (*Result, algebra.Cardinalities, error) {
	c, err := e.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	res, m, err := c.runMaterialised(ctx, Options{Analyze: true}, true)
	if err != nil {
		return nil, nil, err
	}
	return res, e.figureCards(p, m), nil
}

// figureCards converts run metrics to the paper's figure annotations.
// Pipelined operators stop pulling once an input is exhausted, so the
// observed counts on scans can understate the selection size. The
// paper's figures annotate full selection cardinalities; report those
// for scans, answered directly from the indexes.
func (e *Engine) figureCards(p *algebra.Plan, m Metrics) algebra.Cardinalities {
	cards := m.Cardinalities()
	for _, s := range algebra.Scans(p.Root) {
		cards[s] = e.scanCount(s)
	}
	return cards
}

// Explain executes the plan under ctx and renders the operator tree
// annotated with the observed cardinalities.
func (e *Engine) Explain(ctx context.Context, p *algebra.Plan) (string, error) {
	_, cards, err := e.ExecuteWithCards(ctx, p)
	if err != nil {
		return "", err
	}
	return algebra.Explain(p.Root, cards), nil
}

// ExplainAnalyzeContext executes the plan under ctx with per-operator
// instrumentation and renders the operator tree annotated with
// observed row counts, wall times and build sizes, preceded by a run
// summary line. A cancelled context aborts the instrumented run and
// returns its error.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, p *algebra.Plan, opts Options) (string, error) {
	c, err := e.Compile(p)
	if err != nil {
		return "", err
	}
	return c.ExplainAnalyzeContext(ctx, opts)
}

// ExplainAnalyzeContext runs the compiled plan to completion under ctx
// with per-operator instrumentation and renders the operator tree
// annotated with observed row counts, wall times and build sizes,
// preceded by a run summary line.
func (c *Compiled) ExplainAnalyzeContext(ctx context.Context, opts Options) (string, error) {
	opts.Analyze = true
	run := c.RunContext(ctx, opts)
	start := time.Now()
	n := 0
	for run.Next() {
		n++
	}
	total := time.Since(start)
	run.Close()
	if err := run.Err(); err != nil {
		return "", err
	}
	m := run.Metrics()
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	head := fmt.Sprintf("engine=%s planner=%s rows=%d time=%s parallelism=%d epoch=%d\n",
		run.rt.src.Name(), c.plan.Planner, n, fmtDuration(total), par, run.Epoch())
	if st := run.SortStats(); st != nil {
		head += sortLine(c.sortRoot(), st, run.SortMetrics())
	}
	for _, ex := range run.ExchangeStats() {
		head += exchangeLine(ex)
	}
	tree := algebra.ExplainWith(c.plan.Root, func(nd algebra.Node) string {
		if om, ok := m[nd]; ok {
			return om.annotation()
		}
		return ""
	})
	return head + tree, nil
}

// sortLine renders the sort operator's EXPLAIN ANALYZE line. The sort
// is synthesized above the plan root (no algebra node), so it reports
// on its own line between the run summary and the operator tree:
//
//	sort: ?yr desc mode=external budget=4096 spilled runs: 3 spilled bytes: 18204 (rows=1200 time=1.8ms)
func sortLine(op *sortOp, st *SortStats, m *OpMetrics) string {
	label := ""
	if op != nil {
		label = op.label + " "
	}
	s := fmt.Sprintf("sort: %smode=%s budget=%d", label, st.Mode, st.Budget)
	if st.Mode == "top-k" {
		s += fmt.Sprintf(" k=%d", st.K)
	}
	s += fmt.Sprintf(" spilled runs: %d spilled bytes: %d", st.SpilledRuns, st.SpilledBytes)
	if m != nil {
		// Rows is updated with atomic adds while workers run; load it
		// the same way (caught by hsp-lint's atomicfield analyzer).
		s += fmt.Sprintf(" (rows=%d time=%s)", atomic.LoadInt64(&m.Rows), fmtDuration(m.Wall))
	}
	return s + "\n"
}

// exchangeLine renders one exchange's EXPLAIN ANALYZE line. Like the
// sort, exchanges are synthesized (no algebra node), so each reports on
// its own line between the run summary and the operator tree:
//
//	exchange: σ(POS) [tp1] workers=4 morsels=12 rows=4231 per-worker=[1058 1061 1055 1057] skew=1.01
func exchangeLine(ex *ExchangeStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "exchange: %s workers=%d morsels=%d rows=%d per-worker=[",
		ex.Label, ex.Workers, ex.Morsels, ex.Rows())
	for i, n := range ex.WorkerRows {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", n)
	}
	fmt.Fprintf(&b, "] skew=%.2f\n", ex.Skew())
	return b.String()
}

// scanCount returns the full match count of a scan's access path. For
// placeholder positions (whose value is unknown here) the count covers
// the resolvable prefix only — an upper bound for the annotation.
func (e *Engine) scanCount(s *algebra.Scan) int {
	d := e.src.Dict()
	var prefix []dict.ID
	for _, pos := range s.Ordering.Perm() {
		n := s.TP.Slot(pos)
		if n.IsVar() || n.IsParam() {
			break
		}
		id, ok := d.Lookup(n.Term)
		if !ok {
			return 0
		}
		prefix = append(prefix, id)
	}
	return e.src.Count(s.Ordering, prefix)
}

func identitySlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
