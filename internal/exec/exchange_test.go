package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
)

// probeHeavyFixture builds a store and a hand-constructed hash-join
// plan whose PROBE side is large — the shape the exchange operators
// parallelise (hashJoinFixture's big side is the build).
func probeHeavyFixture(t testing.TB, n int) (*store.Store, *algebra.Plan) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<http://s/%d> <http://p> <http://o/%d> .\n", i, i%97)
	}
	for j := 0; j < 97; j++ {
		fmt.Fprintf(&b, "<http://o/%d> <http://q> \"v%d\" .\n", j, j%7)
	}
	st := buildStore(t, b.String())

	q, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <http://p> ?o . ?o <http://q> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := algebra.NewScan(q.Patterns[0], store.PSO) // n rows
	if err != nil {
		t.Fatal(err)
	}
	build, err := algebra.NewScan(q.Patterns[1], store.PSO) // 97 rows
	if err != nil {
		t.Fatal(err)
	}
	j, err := algebra.NewJoin(algebra.HashJoin, build, probe, []sparql.Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	root := &algebra.Project{In: j, Cols: []sparql.Var{"s", "v"}}
	return st, &algebra.Plan{Root: root, Query: q, Planner: "test"}
}

// exchangeStats drains a run and returns its rows plus exchange stats.
func exchangeStats(t *testing.T, c *Compiled, opts Options) (*Result, []*ExchangeStats) {
	t.Helper()
	run := c.Run(opts)
	defer run.Close()
	res := &Result{d: c.dict, Vars: c.Vars()}
	for run.Next() {
		res.Rows = append(res.Rows, append(Row(nil), run.Row()...))
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	return res, run.ExchangeStats()
}

// TestExchangePlacement verifies the placement pass wraps a
// probe-heavy chain in a gather operator at compile time.
func TestExchangePlacement(t *testing.T) {
	st, plan := probeHeavyFixture(t, morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.root.(*gatherOp)
	if !ok {
		t.Fatalf("root is %T, want *gatherOp", c.root)
	}
	if len(g.scatter.stages) != 2 {
		t.Fatalf("chain has %d stages, want 2 (join, project)", len(g.scatter.stages))
	}
	// The sequential substrate has no positional ranges: no exchange.
	rx, err := rdf3x.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	cseq, err := New(RDF3XSource{St: rx}).Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cseq.root.(*gatherOp); ok {
		t.Fatal("exchange placed over a non-morsel source")
	}
}

// TestExchangeDeterministicOrder is the tentpole acceptance check: a
// scattered pipeline emits byte-identical rows in the same order as
// the sequential run, at every parallelism level, every time.
func TestExchangeDeterministicOrder(t *testing.T) {
	st, plan := probeHeavyFixture(t, 3*morselRows+123)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRun(t, c, Options{})
	if want.Len() == 0 {
		t.Fatal("fixture produced no rows")
	}
	for _, par := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			got, exs := exchangeStats(t, c, Options{Parallelism: par, ExchangeThreshold: 1})
			if len(exs) == 0 {
				t.Fatalf("parallelism=%d: no exchange ran", par)
			}
			if exs[0].Workers < 2 {
				t.Fatalf("parallelism=%d: exchange ran %d workers", par, exs[0].Workers)
			}
			if got.Len() != want.Len() {
				t.Fatalf("parallelism=%d rep=%d: %d rows, want %d", par, rep, got.Len(), want.Len())
			}
			for r := range want.Rows {
				for col := range want.Rows[r] {
					if got.Rows[r][col] != want.Rows[r][col] {
						t.Fatalf("parallelism=%d rep=%d: row %d differs: %v vs %v",
							par, rep, r, got.Rows[r], want.Rows[r])
					}
				}
			}
		}
	}
}

// TestExchangeThresholdGate checks the run-time cutover: inputs below
// the threshold run the chain sequentially, inputs above scatter.
func TestExchangeThresholdGate(t *testing.T) {
	st, plan := probeHeavyFixture(t, 2*morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, exs := exchangeStats(t, c, Options{Parallelism: 4, ExchangeThreshold: 10 * morselRows}); len(exs) != 0 {
		t.Fatalf("exchange ran below threshold: %+v", exs[0])
	}
	if _, exs := exchangeStats(t, c, Options{Parallelism: 4, ExchangeThreshold: 1}); len(exs) == 0 {
		t.Fatal("exchange did not run above threshold")
	}
	if _, exs := exchangeStats(t, c, Options{}); len(exs) != 0 {
		t.Fatal("exchange ran on a sequential run")
	}
}

// errBuildOp stands in for a build side that fails immediately.
type errBuildOp struct{ err error }

func (o *errBuildOp) open(rt *runEnv) input { return input{op: stub{o.err}, rt: rt} }
func (o *errBuildOp) logical() algebra.Node { return nil }
func (o *errBuildOp) slots() []int          { return nil }

// TestCloseReportsWorkerErrorUnpulled is the regression test for the
// pre-pull error path: on a parallel run the hash-join build fails in a
// background goroutine before the consumer ever calls Next; Close must
// still surface the error through Err.
func TestCloseReportsWorkerErrorUnpulled(t *testing.T) {
	st, plan := probeHeavyFixture(t, morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.root.(*gatherOp)
	if !ok {
		t.Fatalf("root is %T, want *gatherOp", c.root)
	}
	boom := errors.New("boom")
	hj := g.scatter.stages[0].(*hashJoinOp)
	hj.build, hj.morsel = &errBuildOp{err: boom}, nil

	run := c.Run(Options{Parallelism: 4})
	run.Close() // never pulled a row
	if err := run.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err after unpulled Close = %v, want %v", err, boom)
	}

	// The same error must also surface when the consumer does pull.
	run = c.Run(Options{Parallelism: 4})
	if run.Next() {
		t.Fatal("run with failed build produced a row")
	}
	if err := run.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err after pull = %v, want %v", err, boom)
	}
	run.Close()
}

// TestExchangeCloseMidStreamNoLeak abandons scattered runs mid-stream
// and checks every worker goroutine exits.
func TestExchangeCloseMidStreamNoLeak(t *testing.T) {
	st, plan := probeHeavyFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		run := c.Run(Options{Parallelism: 4, ExchangeThreshold: 1})
		for j := 0; j < 5; j++ {
			run.Next()
		}
		run.Close()
		if err := run.Err(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	waitGoroutines(t, before)
}

// TestExchangeContextCancelMidStream cancels between pulls on a
// scattered pipeline and checks the run stops with the context's error
// at the next pull point, leak-free.
func TestExchangeContextCancelMidStream(t *testing.T) {
	st, plan := probeHeavyFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	run := c.RunContext(ctx, Options{Parallelism: 4, ExchangeThreshold: 1})
	if !run.Next() {
		t.Fatalf("no first row: %v", run.Err())
	}
	cancel()
	for run.Next() {
	}
	if err := run.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	run.Close()
	waitGoroutines(t, before)
}

// TestExplainAnalyzeExchangeLine checks the analyze output grows an
// exchange: line with workers, morsels and skew when a chain scatters.
func TestExplainAnalyzeExchangeLine(t *testing.T) {
	st, plan := probeHeavyFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	out, err := eng.ExplainAnalyzeContext(context.Background(), plan, Options{Parallelism: 4, ExchangeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exchange:", "workers=", "morsels=", "per-worker=[", "skew="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	// Sequential analyze of the same plan must not claim an exchange.
	out, err = eng.ExplainAnalyzeContext(context.Background(), plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "exchange:") {
		t.Errorf("sequential EXPLAIN ANALYZE reports an exchange:\n%s", out)
	}
}

// TestOpStatsExchangeEntry checks the programmatic metrics stream gains
// the exchange entry with worker counts and skew.
func TestOpStatsExchangeEntry(t *testing.T) {
	st, plan := probeHeavyFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	run := c.Run(Options{Parallelism: 4, ExchangeThreshold: 1, Analyze: true})
	for run.Next() {
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	run.Close()
	var found bool
	for _, s := range run.OpStats() {
		if strings.HasPrefix(s.Op, "exchange ") {
			found = true
			if s.Workers < 2 || s.Rows == 0 || s.Skew < 1 || len(s.WorkerRows) != s.Workers {
				t.Errorf("implausible exchange stat: %+v", s)
			}
		}
	}
	if !found {
		t.Fatal("OpStats has no exchange entry")
	}
}
