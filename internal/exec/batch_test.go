package exec

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// boundaryCaps are the batch capacities the boundary tests sweep: tiny
// ones that put a batch boundary at every operator state, and the
// default (0 leaves batchRows alone).
var boundaryCaps = []int{1, 2, 3, 7, 0}

// withBatchRows runs f with the batch capacity set to n (0: default).
func withBatchRows(n int, f func()) {
	if n > 0 {
		defer func(old int) { batchRows = old }(batchRows)
		batchRows = n
	}
	f()
}

// heldBatches counts the batches a run currently holds.
func heldBatches(rt *runEnv) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.owned) + len(rt.free)
}

// dumpOrdered drains one run of every compiled branch and renders the
// rows as IDs in emission order, so comparisons are byte-for-byte on
// content and order.
func dumpOrdered(t *testing.T, branches []*Compiled, opts Options) string {
	t.Helper()
	var b strings.Builder
	for _, c := range branches {
		run := c.RunContext(context.Background(), opts)
		for run.Next() {
			fmt.Fprintln(&b, run.Row())
		}
		run.Close()
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		if n := heldBatches(run.rt); n != 0 {
			t.Fatalf("finished run still holds %d batches", n)
		}
	}
	return b.String()
}

// compileQuery compiles every UNION branch of a query under HSP, with
// the sort operator on top when the query orders its result.
func compileQuery(t *testing.T, eng *Engine, text string) []*Compiled {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Compiled
	for _, br := range q.Branches() {
		p, err := core.NewPlanner().Plan(br)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, compilePlan(t, eng, p, q))
	}
	return out
}

func compilePlan(t *testing.T, eng *Engine, p *algebra.Plan, q *sparql.Query) *Compiled {
	t.Helper()
	c, err := eng.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if q != nil && len(q.OrderBy) > 0 {
		topK := -1
		if q.Limit >= 0 && !q.Distinct {
			topK = q.Offset + q.Limit
		}
		if c, err = c.Sorted(q.OrderBy, topK); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// analyzeRows runs every branch sequentially with instrumentation and
// renders each operator's row count.
func analyzeRows(t *testing.T, branches []*Compiled, opts Options) string {
	t.Helper()
	opts.Analyze = true
	var b strings.Builder
	for _, c := range branches {
		run := c.RunContext(context.Background(), opts)
		for run.Next() {
		}
		run.Close()
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		for _, s := range run.OpStats() {
			fmt.Fprintf(&b, "%s rows=%d build=%d\n", s.Op, s.Rows, s.Build)
		}
	}
	return b.String()
}

// sweepBoundaries requires a query's ordered output to be identical at
// every capacity in boundaryCaps, sequential and parallel (exchanges
// forced on), to the default-capacity sequential run, which it returns.
// The analyze counters of sequential runs must not move either: at
// capacity 1 the engine pulls row by row, so this pins every operator's
// Rows to what a row-at-a-time engine would have pulled.
func sweepBoundaries(t *testing.T, branches []*Compiled, opts Options) string {
	t.Helper()
	want, wantRows := dumpOrdered(t, branches, opts), analyzeRows(t, branches, opts)
	for _, capacity := range boundaryCaps {
		for _, par := range []int{1, 4} {
			o := opts
			o.Parallelism, o.ExchangeThreshold = par, 1
			withBatchRows(capacity, func() {
				if got := dumpOrdered(t, branches, o); got != want {
					t.Errorf("capacity=%d parallelism=%d: output differs from the default sequential run (%d vs %d bytes)",
						capacity, par, len(got), len(want))
				}
				if par != 1 {
					return
				}
				if got := analyzeRows(t, branches, opts); got != wantRows {
					t.Errorf("capacity=%d: analyze row counts differ from the default capacity's:\n%s\nvs\n%s", capacity, got, wantRows)
				}
			})
		}
	}
	return want
}

// extrasCorpus is the OPTIONAL / UNION / ORDER BY corpus over the
// SP²Bench vocabulary: left-outer joins keyed and key-less, UNION
// branches, and all three sort strategies.
var extrasCorpus = []struct{ name, text string }{
	{"optional", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bench: <http://localhost/vocabulary/bench/>
		SELECT ?a ?ab WHERE { ?a rdf:type bench:Article . OPTIONAL { ?a bench:abstract ?ab } }`},
	{"optional-two-groups", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bench: <http://localhost/vocabulary/bench/> PREFIX swrc: <http://swrc.ontoware.org/ontology#>
		SELECT ?a ?ab ?m WHERE { ?a rdf:type bench:Article . OPTIONAL { ?a bench:abstract ?ab } OPTIONAL { ?a swrc:month ?m } }`},
	{"optional-disconnected", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bench: <http://localhost/vocabulary/bench/> PREFIX dc: <http://purl.org/dc/elements/1.1/>
		SELECT ?j ?p WHERE { ?j rdf:type bench:Journal . OPTIONAL { ?p rdf:type bench:Proceedings } }`},
	{"union", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bench: <http://localhost/vocabulary/bench/> PREFIX dc: <http://purl.org/dc/elements/1.1/>
		SELECT ?d ?t WHERE { { ?d rdf:type bench:Journal . ?d dc:title ?t } UNION { ?d rdf:type bench:Proceedings . ?d dc:title ?t } }`},
	{"order-by", `PREFIX dc: <http://purl.org/dc/elements/1.1/> PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?doc ?yr WHERE { ?doc dcterms:issued ?yr . ?doc dc:title ?title } ORDER BY DESC(?yr) ?doc`},
	{"order-by-limit", `PREFIX dc: <http://purl.org/dc/elements/1.1/> PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?doc ?yr WHERE { ?doc dcterms:issued ?yr . ?doc dc:title ?title } ORDER BY ?yr LIMIT 25`},
	{"filter-range", `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bench: <http://localhost/vocabulary/bench/> PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?a ?yr WHERE { ?a rdf:type bench:Article . ?a dcterms:issued ?yr . FILTER (?yr > "1955") }`},
}

// TestBatchBoundaries is the batch-boundary acceptance check: every
// query of both suites under all three planners on both substrates,
// plus the OPTIONAL/UNION/ORDER BY corpus and the two hand-built
// hash-join fixtures (morsel-parallel build, scattered probe), emits
// byte-identical ordered output whatever the batch capacity and
// parallelism.
func TestBatchBoundaries(t *testing.T) {
	type workload struct {
		name    string
		st      *store.Store
		queries []struct{ Name, Text string }
	}
	sp := sp2bench.Generate(4000, 1)
	for _, wl := range []workload{{"sp2bench", sp, sp2bench.Queries()}, {"yago", yago.Generate(3000, 1), yago.Queries()}} {
		rx, err := rdf3x.Build(wl.st)
		if err != nil {
			t.Fatal(err)
		}
		engines := map[string]*Engine{"monet": New(ColumnSource{St: wl.st}), "rdf3x": New(RDF3XSource{St: rx})}
		for _, q := range wl.queries {
			for pname, plan := range planners(t, wl.st, q.Text) {
				for ename, eng := range engines {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", wl.name, q.Name, pname, ename), func(t *testing.T) {
						sweepBoundaries(t, []*Compiled{compilePlan(t, eng, plan, nil)}, Options{})
					})
				}
			}
		}
	}
	eng := New(ColumnSource{St: sp})
	for _, q := range extrasCorpus {
		t.Run("extras/"+q.name, func(t *testing.T) {
			if out := sweepBoundaries(t, compileQuery(t, eng, q.text), Options{}); out == "" {
				t.Fatal("corpus query returned nothing: it exercises no boundary")
			}
		})
	}
	t.Run("extras/order-by-spilled", func(t *testing.T) {
		sweepBoundaries(t, compileQuery(t, eng, extrasCorpus[4].text), Options{SortBudget: 4096, TempDir: t.TempDir()})
	})
	for name, fixture := range map[string]func() (*store.Store, *algebra.Plan){
		"parallel-build":  func() (*store.Store, *algebra.Plan) { return hashJoinFixture(t, 2*morselRows+123) },
		"scattered-probe": func() (*store.Store, *algebra.Plan) { return probeHeavyFixture(t, 2*morselRows+123) },
	} {
		t.Run("fixture/"+name, func(t *testing.T) {
			st, plan := fixture()
			sweepBoundaries(t, []*Compiled{compilePlan(t, New(ColumnSource{St: st}), plan, nil)}, Options{})
		})
	}
}

// checkAgainstOracle sweeps a query over a hand-written document and
// additionally requires the multiset to equal the brute-force oracle's.
func checkAgainstOracle(t *testing.T, doc, text string) {
	t.Helper()
	st := buildStore(t, doc)
	q, p := hspPlan(t, text)
	c := compilePlan(t, New(ColumnSource{St: st}), p, nil)
	sweepBoundaries(t, []*Compiled{c}, Options{})
	ts, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range boundaryCaps {
		withBatchRows(capacity, func() {
			if got, want := multiset(drainRun(t, c, Options{})), bruteForceOptional(ts, q); got != want {
				t.Errorf("capacity=%d: result differs from the oracle:\n%s\nvs\n%s", capacity, got, want)
			}
		})
	}
}

// TestMergeGroupSpansThreeBatches: the right input's equal-key group
// (seven rows of <j1>) straddles three batches at capacities 2 and 3,
// three left rows re-join it, and keys on either side without a partner
// are skipped across batch boundaries.
func TestMergeGroupSpansThreeBatches(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&doc, "<http://j1> <http://p> \"p%d\" .\n", i)
	}
	for i := 0; i < 7; i++ {
		fmt.Fprintf(&doc, "<http://j1> <http://q> \"q%d\" .\n", i)
	}
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&doc, "<http://a%d> <http://p> \"only-left\" .\n<http://z%d> <http://q> \"only-right\" .\n", i, i)
	}
	doc.WriteString("<http://j2> <http://p> \"x\" .\n<http://j2> <http://q> \"y\" .\n")
	checkAgainstOracle(t, doc.String(), `SELECT ?j ?x ?y { ?j <http://p> ?x . ?j <http://q> ?y }`)
}

// TestLeftOuterPadOnFullBatch: at capacity 2 the two matches of <a1>
// fill the output batch exactly, so the padded "no match" row of <a2>
// must wait for the next batch — and so must <a4>'s, after <a3>'s one
// match and <a4>... at every small capacity some pad lands on a full
// batch.
func TestLeftOuterPadOnFullBatch(t *testing.T) {
	doc := `<http://a1> <http://p> "1" .
<http://a2> <http://p> "2" .
<http://a3> <http://p> "3" .
<http://a4> <http://p> "4" .
<http://a5> <http://p> "5" .
<http://a1> <http://q> "x" .
<http://a1> <http://q> "y" .
<http://a3> <http://q> "z" .
`
	checkAgainstOracle(t, doc, `SELECT ?a ?v ?o { ?a <http://p> ?v OPTIONAL { ?a <http://q> ?o } }`)
}

// TestRepeatedVariableScanBoundaries: ?x p ?x drops rows inside the
// scan, so scan batches fill from a sparse triple stream.
func TestRepeatedVariableScanBoundaries(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&doc, "<http://n%d> <http://p> <http://n%d> .\n", i, i+1)
		if i%3 == 0 {
			fmt.Fprintf(&doc, "<http://n%d> <http://p> <http://n%d> .\n<http://n%d> <http://q> \"v%d\" .\n", i, i, i, i)
		}
	}
	checkAgainstOracle(t, doc.String(), `SELECT ?x { ?x <http://p> ?x }`)
	checkAgainstOracle(t, doc.String(), `SELECT ?x ?v { ?x <http://p> ?x . ?x <http://q> ?v }`)
}

// TestSelectiveFilterEmptyBatchMidStream: only the first and the last
// rows pass the filter, so at small capacities whole batches in between
// compact to nothing and the consumers above must keep pulling.
func TestSelectiveFilterEmptyBatchMidStream(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 30; i++ {
		v := "m"
		if i == 0 || i == 29 {
			v = "z"
		}
		fmt.Fprintf(&doc, "<http://s%02d> <http://p> \"%s\" .\n<http://s%02d> <http://q> \"w%d\" .\n", i, v, i, i)
	}
	checkAgainstOracle(t, doc.String(), `SELECT ?s ?w { ?s <http://p> ?v . ?s <http://q> ?w . FILTER (?v > "n") }`)
}

// earlyStopPlan hand-builds a plan over the patterns and filters of a
// query: build receives constructors for PSO scans of the patterns and
// for joins.
func earlyStopPlan(t *testing.T, text string, build func(q *sparql.Query, scan func(i int) algebra.Node, join func(m algebra.JoinMethod, l, r algebra.Node, on sparql.Var) algebra.Node) algebra.Node) *algebra.Plan {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	scan := func(i int) algebra.Node {
		n, err := algebra.NewScan(q.Patterns[i], store.PSO)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	join := func(m algebra.JoinMethod, l, r algebra.Node, on sparql.Var) algebra.Node {
		j, err := algebra.NewJoin(m, l, r, []sparql.Var{on})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	return &algebra.Plan{Root: &algebra.Project{In: build(q, scan, join), Cols: q.Projection}, Query: q, Planner: "test"}
}

// TestRowCountsExactBelowEarlyStop: a merge join stops as soon as one
// input runs out, part way through the batches the other has already
// produced. The analyze row count of every operator below must be what
// a row-at-a-time engine would have pulled (the capacity-1 run), at any
// capacity: the early stop is passed down through the filter's
// selection vector and the joins' provenance.
func TestRowCountsExactBelowEarlyStop(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&doc, "<http://s%03d> <http://p> <http://x%d> .\n", i, i%7)
		fmt.Fprintf(&doc, "<http://s%03d> <http://q> \"q%d\" .\n<http://s%03d> <http://q> \"q%d\" .\n", i, i%3, i, 5+i%2)
		if i%5 == 4 { // irregular group sizes: the filter's survivors are not evenly spaced
			fmt.Fprintf(&doc, "<http://s%03d> <http://q> \"q7\" .\n<http://s%03d> <http://q> \"q8\" .\n<http://s%03d> <http://q> \"q9\" .\n", i, i, i)
		}
		if i < 40 {
			fmt.Fprintf(&doc, "<http://s%03d> <http://r> \"r\" .\n", i)
		}
		if i < 20 {
			fmt.Fprintf(&doc, "<http://s%03d> <http://r2> \"r2\" .\n", i)
		}
		if i < 19 {
			fmt.Fprintf(&doc, "<http://s%03d> <http://r3> \"r3\" .\n", i)
		}
	}
	for j := 0; j < 7; j++ {
		fmt.Fprintf(&doc, "<http://x%d> <http://t> \"t%d\" .\n", j, j)
	}
	eng := New(ColumnSource{St: buildStore(t, doc.String())})
	for _, tc := range []struct {
		name, text, want string
		build            func(q *sparql.Query, scan func(i int) algebra.Node, join func(m algebra.JoinMethod, l, r algebra.Node, on sparql.Var) algebra.Node) algebra.Node
	}{
		// The top join's right input (<r>, the first 40 subjects) runs out
		// under a filter over a merge join over a hash-join probe.
		{"filter-over-joins", `SELECT ?s ?w ?y ?z { ?x <http://t> ?w . ?s <http://p> ?x . ?s <http://q> ?y . ?s <http://r> ?z . FILTER (?y > "q0") }`,
			"[tp1] ?s <http://p> ?x rows=41",
			func(q *sparql.Query, scan func(i int) algebra.Node, join func(m algebra.JoinMethod, l, r algebra.Node, on sparql.Var) algebra.Node) algebra.Node {
				probe := join(algebra.HashJoin, scan(0), scan(1), "x") // streams ?s p ?x: sorted on ?s
				inner := &algebra.Filter{In: join(algebra.MergeJoin, probe, scan(2), "s"), F: q.Filters[0]}
				return join(algebra.MergeJoin, inner, scan(3), "s")
			}},
		// The inner join ends first (<r2> runs out at subject 20) and hands
		// the filter's unread tail back; the outer join then stops earlier
		// still (<r3>, subject 19) and the filter hears of it a second time.
		{"filter-below-inner-join", `SELECT ?s ?y ?z ?z2 { ?s <http://q> ?y . ?s <http://r2> ?z2 . ?s <http://r3> ?z . FILTER (?y > "q0") }`,
			"[tp0] ?s <http://q> ?y rows=48",
			func(q *sparql.Query, scan func(i int) algebra.Node, join func(m algebra.JoinMethod, l, r algebra.Node, on sparql.Var) algebra.Node) algebra.Node {
				inner := join(algebra.MergeJoin, &algebra.Filter{In: scan(0), F: q.Filters[0]}, scan(1), "s")
				return join(algebra.MergeJoin, inner, scan(2), "s")
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compilePlan(t, eng, earlyStopPlan(t, tc.text, tc.build), nil)
			if out := sweepBoundaries(t, []*Compiled{c}, Options{}); strings.Count(out, "\n") < 25 {
				t.Fatalf("fixture returned too few rows:\n%s", out)
			}
			var rowAtATime string
			withBatchRows(1, func() { rowAtATime = analyzeRows(t, []*Compiled{c}, Options{}) })
			if !strings.Contains(rowAtATime, tc.want) {
				t.Fatalf("the long scan should stop right after the short one ran out (%s):\n%s", tc.want, rowAtATime)
			}
			// The consumer itself stopping early (LIMIT: Close after five
			// rows) is passed down the same way.
			closedEarly := func() string {
				run := c.RunContext(context.Background(), Options{Analyze: true})
				for i := 0; i < 5; i++ {
					run.Next()
				}
				run.Close()
				var b strings.Builder
				for _, s := range run.OpStats() {
					fmt.Fprintf(&b, "%s rows=%d\n", s.Op, s.Rows)
				}
				return b.String()
			}
			withBatchRows(1, func() { rowAtATime = closedEarly() })
			for _, capacity := range boundaryCaps {
				withBatchRows(capacity, func() {
					if got := closedEarly(); got != rowAtATime {
						t.Errorf("capacity=%d: row counts after an early Close differ from row-at-a-time's:\n%s\nvs\n%s", capacity, got, rowAtATime)
					}
				})
			}
		})
	}
}

// TestOrderCheckAtEveryCapacity: an unsorted merge-join input fails the
// query with the order-check error wherever the batch boundaries fall.
func TestOrderCheckAtEveryCapacity(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?j { ?j rdf:type <http://bench/Journal> . ?j <http://dc/title> ?title . ?j <http://dcterms/issued> ?yr . }`)
	for _, capacity := range boundaryCaps {
		withBatchRows(capacity, func() {
			_, err := New(unsortedSource{ColumnSource{st}}).Execute(context.Background(), p)
			if err == nil || !strings.Contains(err.Error(), "not sorted") {
				t.Errorf("capacity=%d: expected sortedness error, got %v", capacity, err)
			}
		})
	}
}

// TestCloseMidStreamReturnsBatches is the leak check (CI runs it under
// -race -cpu=1,2,4): a run abandoned mid-stream — sequential, with a
// morsel-parallel build, with a scattered probe — hands every batch it
// took back to the pool and stops every worker, and the pooled batches
// it leaves behind serve the next run correctly.
func TestCloseMidStreamReturnsBatches(t *testing.T) {
	for name, fixture := range map[string]func() (*store.Store, *algebra.Plan){
		"build": func() (*store.Store, *algebra.Plan) { return hashJoinFixture(t, 3*morselRows) },
		"probe": func() (*store.Store, *algebra.Plan) { return probeHeavyFixture(t, 3*morselRows) },
	} {
		st, plan := fixture()
		c := compilePlan(t, New(ColumnSource{St: st}), plan, nil)
		want := dumpOrdered(t, []*Compiled{c}, Options{})
		before := runtime.NumGoroutine()
		for _, par := range []int{1, 4} {
			for i := 0; i < 10; i++ {
				run := c.RunContext(context.Background(), Options{Parallelism: par, ExchangeThreshold: 1})
				for j := 0; j < 5+i*1000; j++ {
					if !run.Next() {
						t.Fatalf("%s parallelism=%d: run ended after %d rows: %v", name, par, j, run.Err())
					}
				}
				if heldBatches(run.rt) == 0 {
					t.Fatalf("%s parallelism=%d: a live run holds no batches", name, par)
				}
				run.Close()
				if err := run.Err(); err != nil {
					t.Fatalf("%s parallelism=%d: %v", name, par, err)
				}
				if n := heldBatches(run.rt); n != 0 {
					t.Fatalf("%s parallelism=%d: closed run still holds %d batches", name, par, n)
				}
			}
			if got := dumpOrdered(t, []*Compiled{c}, Options{Parallelism: par, ExchangeThreshold: 1}); got != want {
				t.Errorf("%s parallelism=%d: run over recycled batches differs", name, par)
			}
		}
		waitGoroutines(t, before)
	}
}
