package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/cdp"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/sqlopt"
	"github.com/sparql-hsp/hsp/internal/stats"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// drainRun collects a run's rows into a Result for comparison.
func drainRun(t *testing.T, c *Compiled, opts Options) *Result {
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
	return res
}

// planners builds one plan per planner for a query over a store.
func planners(t *testing.T, st *store.Store, text string) map[string]*algebra.Plan {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*algebra.Plan{}
	if p, err := core.NewPlanner().Plan(q); err == nil {
		out["hsp"] = p
	} else {
		t.Fatalf("hsp: %v", err)
	}
	if p, err := cdp.New(stats.New(st), cdp.Options{UseAggregatedIndexes: true}).Plan(q); err == nil {
		out["cdp"] = p
	} else if err == cdp.ErrCrossProduct {
		if rw, _ := sparql.RewriteFilters(q); rw != nil {
			if p, err := cdp.New(stats.New(st), cdp.Options{UseAggregatedIndexes: true}).Plan(rw); err == nil {
				out["cdp"] = p
			}
		}
	} else {
		t.Fatalf("cdp: %v", err)
	}
	if p, err := sqlopt.New(stats.New(st)).Plan(q); err == nil {
		out["sql"] = p
	} else {
		t.Fatalf("sql: %v", err)
	}
	return out
}

// TestStreamedEqualsMaterialised is the acceptance check: pull-based
// runs yield exactly the multiset the materialised path yields, for
// every query of both workload suites, all three planners, both
// substrates, sequential and parallel.
func TestStreamedEqualsMaterialised(t *testing.T) {
	type workload struct {
		name    string
		st      *store.Store
		queries []struct{ Name, Text string }
	}
	wls := []workload{
		{"sp2bench", sp2bench.Generate(30000, 1), sp2bench.Queries()},
		{"yago", yago.Generate(20000, 1), yago.Queries()},
	}
	for _, wl := range wls {
		rx, err := rdf3x.Build(wl.st)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]*Engine{
			"monet": New(ColumnSource{St: wl.st}),
			"rdf3x": New(RDF3XSource{St: rx}),
		}
		for _, q := range wl.queries {
			for pname, plan := range planners(t, wl.st, q.Text) {
				for ename, eng := range engines {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", wl.name, q.Name, pname, ename), func(t *testing.T) {
						want, err := eng.Execute(context.Background(), plan)
						if err != nil {
							t.Fatal(err)
						}
						c, err := eng.Compile(plan)
						if err != nil {
							t.Fatal(err)
						}
						seq := drainRun(t, c, Options{})
						if seq.String() != want.String() {
							t.Errorf("sequential stream differs from materialised:\n--- stream\n%s--- materialised\n%s", seq, want)
						}
						par := drainRun(t, c, Options{Parallelism: 4})
						if par.String() != want.String() {
							t.Errorf("parallel stream differs from materialised:\n--- stream\n%s--- materialised\n%s", par, want)
						}
					})
				}
			}
		}
	}
}

// hashJoinFixture builds a store and hand-constructed hash-join plan
// whose build side is large enough to cross the morsel threshold.
func hashJoinFixture(t *testing.T, n int) (*store.Store, *algebra.Plan) {
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
	// Left scan sorted on ?s, right on ?o: only a hash join is legal.
	l, err := algebra.NewScan(q.Patterns[0], store.PSO)
	if err != nil {
		t.Fatal(err)
	}
	r, err := algebra.NewScan(q.Patterns[1], store.PSO)
	if err != nil {
		t.Fatal(err)
	}
	j, err := algebra.NewJoin(algebra.HashJoin, l, r, []sparql.Var{"o"})
	if err != nil {
		t.Fatal(err)
	}
	root := &algebra.Project{In: j, Cols: []sparql.Var{"s", "v"}}
	return st, &algebra.Plan{Root: root, Query: q, Planner: "test"}
}

// TestParallelBuildDeterministic checks the morsel-partitioned build:
// output must be byte-identical to the sequential run, every time.
func TestParallelBuildDeterministic(t *testing.T) {
	st, plan := hashJoinFixture(t, 3*morselRows+123)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRun(t, c, Options{})
	if want.Len() == 0 {
		t.Fatal("fixture produced no rows")
	}
	for i := 0; i < 3; i++ {
		got := drainRun(t, c, Options{Parallelism: 4})
		if got.Len() != want.Len() {
			t.Fatalf("run %d: %d rows, want %d", i, got.Len(), want.Len())
		}
		for r := range want.Rows {
			for cidx := range want.Rows[r] {
				if got.Rows[r][cidx] != want.Rows[r][cidx] {
					t.Fatalf("run %d: row %d differs: %v vs %v", i, r, got.Rows[r], want.Rows[r])
				}
			}
		}
	}
}

// TestParallelBuildUsed verifies the morsel path actually runs (and is
// reported) for a big enough build side.
func TestParallelBuildUsed(t *testing.T) {
	st, plan := hashJoinFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	out, err := eng.ExplainAnalyzeContext(context.Background(), plan, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallel") {
		t.Errorf("EXPLAIN ANALYZE does not report a parallel build:\n%s", out)
	}
	if !strings.Contains(out, "rows=") || !strings.Contains(out, "build=") {
		t.Errorf("EXPLAIN ANALYZE missing metrics:\n%s", out)
	}
}

// TestRunCloseLeaksNoGoroutines abandons parallel runs mid-stream and
// checks every worker goroutine exits.
func TestRunCloseLeaksNoGoroutines(t *testing.T) {
	st, plan := hashJoinFixture(t, 3*morselRows)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		run := c.Run(Options{Parallelism: 4})
		run.Next() // pull one row, then walk away
		run.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompiledReusable runs one compiled plan many times, interleaving
// options, verifying runs are independent.
func TestCompiledReusable(t *testing.T) {
	st, plan := hashJoinFixture(t, 5000)
	eng := New(ColumnSource{St: st})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRun(t, c, Options{}).String()
	for i, o := range []Options{{}, {Parallelism: 2}, {Analyze: true}, {Parallelism: 8, Analyze: true}, {}} {
		if got := drainRun(t, c, o).String(); got != want {
			t.Errorf("run %d (%+v) differs", i, o)
		}
	}
}

// TestBuildTable exercises the ID-keyed hash table directly: every row
// is found under its key, chains list rows in arena order, and a
// key-less table chains the whole arena.
func TestBuildTable(t *testing.T) {
	rt := &runEnv{done: make(chan struct{})}
	tbl := &buildTable{keys: []int{0}}
	b := &batch{cols: [][]dict.ID{make([]dict.ID, 1000), make([]dict.ID, 1000)}, n: 1000}
	for i := 0; i < 1000; i++ {
		b.cols[0][i], b.cols[1][i] = dict.ID(i%37+1), dict.ID(i+1)
	}
	for i := 0; i < 20; i++ { // 20 000 rows: the arena spans three chunks
		tbl.add(rt, b, []int{0, 1})
	}
	if err := tbl.index(); err != nil {
		t.Fatal(err)
	}
	if tbl.n != 20000 || len(tbl.chunks) != 3 {
		t.Fatalf("n = %d in %d chunks", tbl.n, len(tbl.chunks))
	}
	probe := [][]dict.ID{{0}, nil}
	for k := dict.ID(1); k <= 38; k++ {
		probe[0][0] = k
		var got []dict.ID
		for c := tbl.head[hashRow(probe, tbl.keys, 0)&tbl.mask]; c != 0; c = tbl.next[c-1] {
			if cols, i := tbl.at(int(c - 1)); keysEqual(cols, i, probe, 0, tbl.keys) {
				got = append(got, cols[1][i])
			}
		}
		want := 0
		for r := 0; r < 20000; r++ {
			if i := r % 1000; dict.ID(i%37+1) == k {
				if want >= len(got) || got[want] != dict.ID(i+1) {
					t.Fatalf("key %d: match %d = %v, want row %d in arena order", k, want, got, i+1)
				}
				want++
			}
		}
		if want != len(got) {
			t.Fatalf("key %d: %d matches, want %d", k, len(got), want)
		}
	}
	cross := &buildTable{chunks: tbl.chunks, n: tbl.n}
	if err := cross.index(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for c := cross.head[0]; c != 0; c = cross.next[c-1] {
		if int(c-1) != n {
			t.Fatalf("key-less chain visits row %d at position %d", c-1, n)
		}
		n++
	}
	if n != 20000 {
		t.Fatalf("key-less chain has %d rows", n)
	}
}

// TestExplainAnalyzeAllPlanners checks per-operator rows and timings
// appear for every planner's plan shape.
func TestExplainAnalyzeAllPlanners(t *testing.T) {
	st := sp2bench.Generate(20000, 1)
	eng := New(ColumnSource{St: st})
	text := sp2bench.Queries()[1].Text
	for name, plan := range planners(t, st, text) {
		out, err := eng.ExplainAnalyzeContext(context.Background(), plan, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "rows=") || !strings.Contains(out, "time=") {
			t.Errorf("%s: missing per-operator metrics:\n%s", name, out)
		}
		if !strings.Contains(out, "planner="+plan.Planner) {
			t.Errorf("%s: missing summary line:\n%s", name, out)
		}
	}
}
