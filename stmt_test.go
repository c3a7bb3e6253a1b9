package hsp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
)

const preparedQueryText = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr ?jrnl
WHERE { ?jrnl rdf:type <http://bench/Journal> .
        ?jrnl dc:title $title .
        ?jrnl dcterms:issued ?yr . }`

func TestPreparedBinding(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	st, err := db.Prepare(ctx, preparedQueryText)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ps := st.Params(); len(ps) != 1 || ps[0] != "title" {
		t.Fatalf("Params = %v", ps)
	}
	for title, want := range map[string]string{
		"Journal 1 (1940)": "1940",
		"Journal 1 (1941)": "1941",
	} {
		res, err := st.Query(ctx, Bind("title", Literal(title)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Row(0)["yr"] != Literal(want) {
			t.Errorf("%s: got %s", title, res)
		}
	}
	// A bound value absent from the data matches nothing — not an error.
	res, err := st.Query(ctx, Bind("title", Literal("No Such Journal")))
	if err != nil || res.Len() != 0 {
		t.Errorf("absent value: res=%v err=%v", res, err)
	}

	// Binding errors.
	if _, err := st.Query(ctx); err == nil || !strings.Contains(err.Error(), "unbound parameter $title") {
		t.Errorf("missing binding: %v", err)
	}
	if _, err := st.Query(ctx, Bind("nope", Literal("x"))); err == nil || !strings.Contains(err.Error(), "unknown parameter $nope") {
		t.Errorf("unknown binding: %v", err)
	}
	if _, err := st.Query(ctx, Bind("title", Literal("a")), Bind("title", Literal("b"))); err == nil || !strings.Contains(err.Error(), "bound twice") {
		t.Errorf("duplicate binding: %v", err)
	}

	// Streaming with bindings.
	rows, err := st.Stream(ctx, Bind("title", Literal("Journal 1 (1941)")))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if rows.Row()["yr"] != Literal("1941") {
			t.Errorf("streamed row = %v", rows.Row())
		}
		n++
	}
	if err := rows.Close(); err != nil || n != 1 {
		t.Errorf("stream: n=%d err=%v", n, err)
	}

	// EXPLAIN ANALYZE with bindings.
	out, err := st.ExplainAnalyze(ctx, Bind("title", Literal("Journal 1 (1940)")))
	if err != nil || !strings.Contains(out, "rows=") {
		t.Errorf("ExplainAnalyze: %v\n%s", err, out)
	}
}

// TestPreparedBindKinds: terms bound into positions the RDF data model
// restricts are rejected; the rdf:type predicate fallback re-plans and
// still answers correctly.
func TestPreparedBindKinds(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	st, err := db.Prepare(ctx, `SELECT ?o { $s <http://purl.org/dc/terms/issued> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(ctx, Bind("s", Literal("nope"))); err == nil || !strings.Contains(err.Error(), "subject position") {
		t.Errorf("literal subject: %v", err)
	}
	if res, err := st.Query(ctx, Bind("s", IRI("http://ex/j1"))); err != nil || res.Len() != 1 {
		t.Errorf("IRI subject: res=%v err=%v", res, err)
	}

	st2, err := db.Prepare(ctx, `SELECT ?x { ?x $p <http://bench/Journal> }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Query(ctx, Bind("p", Literal("bad"))); err == nil || !strings.Contains(err.Error(), "predicate position") {
		t.Errorf("literal predicate: %v", err)
	}
	// rdf:type bound to a predicate placeholder triggers the re-plan
	// fallback (HEURISTIC 1's rdf:type exception changes selection
	// applicability); results must still be correct.
	res, err := st2.Query(ctx, Bind("p", IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rdf:type fallback: rows = %d, want 2\n%s", res.Len(), res)
	}
}

// TestStmtConformance: the two front doors agree. A query prepared
// from its text and the same query planned with Plan and prepared with
// PreparePlan produce identical results, streams and errors, across the
// SP²Bench workload × every planner × both engines × sequential and
// parallel execution.
func TestStmtConformance(t *testing.T) {
	db := GenerateSP2Bench(10000, 1)
	ctx := context.Background()
	for _, planner := range []Planner{PlannerHSP, PlannerCDP, PlannerSQL} {
		for _, engine := range []Engine{EngineMonet, EngineRDF3X} {
			for _, par := range []int{1, 4} {
				for _, q := range sp2bench.Queries() {
					name := fmt.Sprintf("%s/%s/%s/p%d", q.Name, planner, engine, par)
					text, prepErr := db.Prepare(ctx, q.Text, WithPlanner(planner), WithEngine(engine), WithParallelism(par))
					plan, planErr := db.Plan(q.Text, planner)
					if prepErr != nil || planErr != nil {
						// A refusal (CDP on SP4a's cross product) must be the same refusal.
						if fmt.Sprint(prepErr) != fmt.Sprint(planErr) {
							t.Errorf("%s: error mismatch: Prepare %v vs Plan %v", name, prepErr, planErr)
						}
						continue
					}
					planned, err := db.PreparePlan(ctx, plan, engine, WithParallelism(par))
					if err != nil {
						t.Fatalf("%s: PreparePlan: %v", name, err)
					}
					want, err := text.Query(ctx)
					if err != nil {
						t.Fatalf("%s: Prepare.Query: %v", name, err)
					}
					if got, err := planned.Query(ctx); err != nil || got.String() != want.String() {
						t.Errorf("%s: PreparePlan.Query differs (err=%v)", name, err)
					}
					wantStream := drainAll(t, func() (*Rows, error) { return text.Stream(ctx) })
					if got := drainAll(t, func() (*Rows, error) { return planned.Stream(ctx) }); got != wantStream {
						t.Errorf("%s: PreparePlan.Stream differs from Prepare.Stream", name)
					}
					if out, err := planned.ExplainAnalyze(ctx); err != nil || !strings.Contains(out, "rows=") {
						t.Errorf("%s: ExplainAnalyze: %v", name, err)
					}
					text.Close()
					planned.Close()
				}
			}
		}
	}

	// Errors surface identically through both doors: planning errors at
	// Plan and Prepare, engine errors at PreparePlan and Prepare.
	for _, bad := range []string{"not a query", "SELECT ?x { }"} {
		_, planErr := db.Plan(bad, PlannerHSP)
		_, prepErr := db.Prepare(ctx, bad)
		if planErr == nil || prepErr == nil || planErr.Error() != prepErr.Error() {
			t.Errorf("%q: error mismatch: Plan %v vs Prepare %v", bad, planErr, prepErr)
		}
	}
	plan, err := db.Plan(sp2bench.SP1, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	_, planErr := db.PreparePlan(ctx, plan, "nope")
	_, prepErr := db.Prepare(ctx, sp2bench.SP1, WithEngine("nope"))
	if planErr == nil || fmt.Sprint(planErr) != fmt.Sprint(prepErr) {
		t.Errorf("unknown engine: PreparePlan %v vs Prepare %v", planErr, prepErr)
	}
}

// drainAll streams a query to completion and renders sorted lines, for
// order-insensitive comparison.
func drainAll(t *testing.T, open func() (*Rows, error)) string {
	t.Helper()
	rows, err := open()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var lines []string
	for rows.Next() {
		var sb strings.Builder
		for _, v := range rows.Vars() {
			sb.WriteString(rows.Row()[v].String())
			sb.WriteByte('\t')
		}
		lines = append(lines, sb.String())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	// Stable multiset comparison: ORDER BY queries keep their order; the
	// rest sort identically on both sides anyway.
	return strings.Join(lines, "\n")
}

func TestStmtAsk(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	ask := `ASK { ?j <http://purl.org/dc/elements/1.1/title> $t }`
	st, err := db.Prepare(ctx, ask)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if ok, err := st.Ask(ctx, Bind("t", Literal("Journal 1 (1940)"))); err != nil || !ok {
		t.Errorf("Ask true case: ok=%v err=%v", ok, err)
	}
	if ok, err := st.Ask(ctx, Bind("t", Literal("missing"))); err != nil || ok {
		t.Errorf("Ask false case: ok=%v err=%v", ok, err)
	}
	// Ask on a SELECT statement errors.
	sel, err := db.Prepare(ctx, sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if _, err := sel.Ask(ctx); err == nil {
		t.Error("Stmt.Ask accepted a SELECT")
	}
}

func TestStmtUseAfterClose(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	st, err := db.Prepare(ctx, sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	// A stream obtained before Close stays valid.
	rows, err := st.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("Close is not idempotent:", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil || n != 1 {
		t.Errorf("pre-Close stream: n=%d err=%v", n, err)
	}
	if _, err := st.Query(ctx); !errors.Is(err, ErrStmtClosed) {
		t.Errorf("Query after Close: %v", err)
	}
	if _, err := st.Stream(ctx); !errors.Is(err, ErrStmtClosed) {
		t.Errorf("Stream after Close: %v", err)
	}
	if _, err := st.Ask(ctx); !errors.Is(err, ErrStmtClosed) {
		t.Errorf("Ask after Close: %v", err)
	}
	if _, err := st.ExplainAnalyze(ctx); !errors.Is(err, ErrStmtClosed) {
		t.Errorf("ExplainAnalyze after Close: %v", err)
	}
}

// TestStmtConcurrent exercises one prepared statement from many
// goroutines with different bindings (the -race acceptance check).
func TestStmtConcurrent(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	st, err := db.Prepare(ctx, preparedQueryText, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			title, want := "Journal 1 (1940)", "1940"
			if w%2 == 1 {
				title, want = "Journal 1 (1941)", "1941"
			}
			for i := 0; i < 25; i++ {
				res, err := st.Query(ctx, Bind("title", Literal(title)))
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 || res.Row(0)["yr"] != Literal(want) {
					errs <- errors.New("wrong concurrent result: " + res.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTemplateCacheHits: constant-only query variations share one
// cached plan under the normalised template key, proven by the
// TemplateHits counter — the plan-cache-thrash fix.
func TestTemplateCacheHits(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	variants := []string{
		`SELECT ?yr { ?j <http://purl.org/dc/elements/1.1/title> "Journal 1 (1940)" . ?j <http://purl.org/dc/terms/issued> ?yr }`,
		`SELECT ?yr { ?j <http://purl.org/dc/elements/1.1/title> "Journal 1 (1941)" . ?j <http://purl.org/dc/terms/issued> ?yr }`,
		`SELECT ?yr { ?j <http://purl.org/dc/elements/1.1/title> "Journal 1 (1999)" . ?j <http://purl.org/dc/terms/issued> ?yr }`,
	}
	for i, q := range variants {
		res, err := db.QueryContext(ctx, q, WithPlanCache(16))
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		want := 0
		if i < 2 {
			want = 1
		}
		if res.Len() != want {
			t.Errorf("variant %d: rows = %d, want %d", i, res.Len(), want)
		}
	}
	s := db.PlanCacheStats()
	if s.Misses != 1 || s.Hits != 2 || s.TemplateHits != 2 {
		t.Errorf("stats = %+v, want misses=1 hits=2 template_hits=2", s)
	}
	// A statement over the same shape also reuses the cached template.
	st, err := db.Prepare(ctx, variants[0], WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s2 := db.PlanCacheStats()
	if s2.Hits != 3 {
		t.Errorf("Prepare did not hit the template cache: %+v", s2)
	}
	// Bound re-executions of the statement touch the cache no further:
	// no re-parse, no re-plan, no lookups.
	for i := 0; i < 5; i++ {
		if _, err := st.Query(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s3 := db.PlanCacheStats()
	if s3.Hits != s2.Hits || s3.Misses != s2.Misses {
		t.Errorf("bound re-execution consulted the planner: %+v vs %+v", s3, s2)
	}
	// The explain line reports the counters.
	out, err := prepare(t, db, variants[1], WithPlanCache(16)).ExplainAnalyze(ctx)
	if err != nil || !strings.Contains(out, "template_hits=") {
		t.Errorf("ExplainAnalyze: %v\n%s", err, out)
	}
}

func TestMetricsSink(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	var mu sync.Mutex
	var got []OpStats
	sink := func(s OpStats) {
		mu.Lock()
		got = append(got, s)
		mu.Unlock()
	}
	res, err := db.QueryContext(ctx, sampleQuery, WithMetricsSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sink received nothing from the materialised path")
	}
	if got[0].Rows != int64(res.Len()) {
		t.Errorf("root operator rows = %d, result rows = %d", got[0].Rows, res.Len())
	}
	for _, s := range got {
		if s.Op == "" {
			t.Errorf("empty operator label: %+v", s)
		}
	}

	got = nil
	rows, err := db.StreamContext(ctx, sampleQuery, WithMetricsSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	mu.Lock()
	streamed := len(got)
	mu.Unlock()
	if streamed == 0 {
		t.Fatal("sink received nothing from the streamed path")
	}

	// Without the option, nothing is emitted and runs stay uninstrumented.
	got = nil
	if _, err := db.QueryContext(ctx, sampleQuery); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("sink invoked without WithMetricsSink")
	}
}
