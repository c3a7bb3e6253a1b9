package hsp

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 6), plus the ablation studies DESIGN.md calls
// out. One benchmark family per table/figure:
//
//	BenchmarkTable2Characteristics  — query characteristics (Table 2)
//	BenchmarkTable3PlanCost         — plan costs under the CDP model (Table 3)
//	BenchmarkTable4PlanCharacteristics — join counts and shapes (Table 4)
//	BenchmarkTable6PlanningTime/*   — HSP planning time per query (Table 6)
//	BenchmarkTable7SP2Bench/*       — SP²Bench execution times (Table 7)
//	BenchmarkTable8YAGO/*           — YAGO execution times (Table 8)
//	BenchmarkFigure1/2/3            — the figures
//	BenchmarkMWISScalability/*      — §6.2.2's "50 nodes in < 6ms" claim
//	BenchmarkScanDecompression/*    — column-store vs compressed-index scans
//	BenchmarkAblation*              — design-choice ablations
//
// Dataset scale defaults to 60k/40k triples so `go test -bench=.`
// finishes quickly; set HSP_BENCH_SP2SCALE / HSP_BENCH_YAGOSCALE to
// grow them.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/cdp"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/cost"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/experiments"
	"github.com/sparql-hsp/hsp/internal/heuristics"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/sqlopt"
	"github.com/sparql-hsp/hsp/internal/stats"
	"github.com/sparql-hsp/hsp/internal/vargraph"
	"github.com/sparql-hsp/hsp/internal/yago"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func envScale(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func getEnv(b *testing.B) *experiments.Env {
	b.ReportAllocs()
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.Config{
			SP2BenchScale: envScale("HSP_BENCH_SP2SCALE", 60000),
			YAGOScale:     envScale("HSP_BENCH_YAGOSCALE", 40000),
			Seed:          1,
			Runs:          1,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// --- Table 2 ---

func BenchmarkTable2Characteristics(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table2(e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3 ---

func BenchmarkTable3PlanCost(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Table3(context.Background(), e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4 ---

func BenchmarkTable4PlanCharacteristics(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4Data(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: HSP planning time per query ---

func BenchmarkTable6PlanningTime(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	pl := core.NewPlanner()
	for _, w := range e.Workloads() {
		for _, q := range w.Queries {
			parsed, err := sparql.Parse(q.Text)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(q.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pl.Plan(parsed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Tables 7 and 8: execution time per query and engine ---

func benchExec(b *testing.B, w *experiments.Workload) {
	e := getEnv(b)
	_ = e
	monet := exec.New(exec.ColumnSource{St: w.Col})
	rx := exec.New(exec.RDF3XSource{St: w.RX})
	for _, q := range w.Queries {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		// MonetDB/HSP.
		hplan, err := core.NewPlanner().Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name+"/MonetDB-HSP", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := monet.Execute(context.Background(), hplan); err != nil {
					b.Fatal(err)
				}
			}
		})
		// RDF-3X/CDP (SP4a needs the manual rewrite, as in the paper).
		cq := parsed
		cplanner := cdp.New(stats.New(w.Col), cdp.Options{UseAggregatedIndexes: true})
		cplan, err := cplanner.Plan(cq)
		if err == cdp.ErrCrossProduct {
			cq, _ = sparql.RewriteFilters(parsed)
			cplan, err = cplanner.Plan(cq)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.Name+"/RDF3X-CDP", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rx.Execute(context.Background(), cplan); err != nil {
					b.Fatal(err)
				}
			}
		})
		// MonetDB/SQL; the Cartesian-product case is the paper's XXX.
		splan, err := sqlopt.New(stats.New(w.Col)).Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		cross := false
		for _, j := range algebra.Joins(splan.Root) {
			if j.Method == algebra.CrossJoin {
				cross = true
			}
		}
		b.Run(q.Name+"/MonetDB-SQL", func(b *testing.B) {
			b.ReportAllocs()
			if cross {
				b.Skip("XXX: Cartesian product (the paper reports MonetDB/SQL fails to terminate)")
			}
			for i := 0; i < b.N; i++ {
				if _, err := monet.Execute(context.Background(), splan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable7SP2Bench(b *testing.B) { benchExec(b, getEnv(b).SP2Bench) }

func BenchmarkTable8YAGO(b *testing.B) { benchExec(b, getEnv(b).YAGO) }

// --- Figures ---

func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure2(context.Background(), e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.Figure3(context.Background(), e, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6.2.2: variable graphs of up to 50 nodes solve in < 6 ms ---

// chainPatterns builds a pattern set whose variable graph is a random
// sparse graph with n join variables.
func chainPatterns(n int, seed int64) []sparql.TriplePattern {
	rng := rand.New(rand.NewSource(seed))
	var ps []sparql.TriplePattern
	id := 0
	mk := func(a, c sparql.Var) {
		ps = append(ps, sparql.TriplePattern{
			S:  sparql.NewVarNode(a),
			P:  sparql.NewTermNode(rdf.NewIRI(fmt.Sprintf("http://p/%d", id%5))),
			O:  sparql.NewVarNode(c),
			ID: id,
		})
		id++
	}
	v := func(i int) sparql.Var { return sparql.Var(fmt.Sprintf("v%02d", i)) }
	for i := 0; i+1 < n; i++ {
		mk(v(i), v(i+1))
	}
	for k := 0; k < n/2; k++ {
		mk(v(rng.Intn(n)), v(rng.Intn(n)))
	}
	return ps
}

func BenchmarkMWISScalability(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{10, 20, 30, 40, 50} {
		ps := chainPatterns(n, int64(n))
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := vargraph.New(ps)
				if err != nil {
					b.Fatal(err)
				}
				if sets := g.MaxWeightIndependentSets(); len(sets) == 0 {
					b.Fatal("no MWIS")
				}
			}
		})
	}
}

// --- Scan decompression: the SP6/Y3 effect in isolation ---

func BenchmarkScanDecompression(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	w := e.SP2Bench
	monet := exec.ColumnSource{St: w.Col}
	rx := exec.RDF3XSource{St: w.RX}
	run := func(b *testing.B, src exec.Source) {
		for i := 0; i < b.N; i++ {
			it := src.Scan(0, nil) // full spo scan
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if n != w.Col.NumTriples() {
				b.Fatalf("scanned %d of %d", n, w.Col.NumTriples())
			}
		}
	}
	b.Run("monet", func(b *testing.B) { run(b, monet) })
	b.Run("rdf3x", func(b *testing.B) { run(b, rx) })
}

// --- Ablations ---

// ablationCost plans Y2 with the given planner options and reports the
// plan's cost under the CDP model with observed cardinalities.
func ablationCost(b *testing.B, opts core.Options, query string) float64 {
	b.Helper()
	e := getEnv(b)
	parsed, err := sparql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.NewPlannerWith(opts).PlanDetailed(parsed)
	if err != nil {
		b.Fatal(err)
	}
	eng := exec.New(exec.ColumnSource{St: e.YAGO.Col})
	_, cards, err := eng.ExecuteWithCards(context.Background(), res.Plan)
	if err != nil {
		b.Fatal(err)
	}
	m := cost.MapCarder{}
	for n, c := range cards {
		m[n] = c
	}
	return cost.Plan(res.Plan.Root, m).Total()
}

// BenchmarkAblationTieBreakDirection compares the two readings of
// set-level HEURISTIC 3 (prefer fewest vs most covered constants) on
// Y2, where the {a} vs {m1,m2} tie makes the difference (Figure 3).
func BenchmarkAblationTieBreakDirection(b *testing.B) {
	b.ReportAllocs()
	variants := map[string][]core.TieBreaker{
		"fewest-constants(paper)": nil, // default cascade
		"most-constants":          {core.H3SetsMost, core.H4Sets, core.H2Sets, core.H5Sets},
	}
	for name, tbs := range variants {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var c float64
			for i := 0; i < b.N; i++ {
				c = ablationCost(b, core.Options{TieBreakers: tbs}, yago.Y2)
			}
			b.ReportMetric(c, "plan-cost")
		})
	}
}

// BenchmarkAblationTypeException toggles HEURISTIC 1's rdf:type
// demotion on SP1-shaped planning.
func BenchmarkAblationTypeException(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	_ = e
	const sp1 = `
		PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		PREFIX bench:   <http://localhost/vocabulary/bench/>
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?yr ?jrnl
		WHERE { ?jrnl rdf:type bench:Journal .
		        ?jrnl dc:title "Journal 1 (1940)" .
		        ?jrnl dcterms:issued ?yr . }`
	for name, h := range map[string]heuristics.Options{
		"with-type-exception(paper)": {TypeException: true},
		"without-type-exception":     {TypeException: false},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var c float64
			for i := 0; i < b.N; i++ {
				c = ablationCostSP2(b, core.Options{Heuristics: h}, sp1)
			}
			b.ReportMetric(c, "plan-cost")
		})
	}
}

func ablationCostSP2(b *testing.B, opts core.Options, query string) float64 {
	b.Helper()
	e := getEnv(b)
	parsed, err := sparql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.NewPlannerWith(opts).PlanDetailed(parsed)
	if err != nil {
		b.Fatal(err)
	}
	eng := exec.New(exec.ColumnSource{St: e.SP2Bench.Col})
	_, cards, err := eng.ExecuteWithCards(context.Background(), res.Plan)
	if err != nil {
		b.Fatal(err)
	}
	m := cost.MapCarder{}
	for n, c := range cards {
		m[n] = c
	}
	return cost.Plan(res.Plan.Root, m).Total()
}

// BenchmarkAblationBushy compares the paper's bushy plans against
// forced left-deep plans on Y3 (execution time).
func BenchmarkAblationBushy(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	eng := exec.New(exec.ColumnSource{St: e.YAGO.Col})
	for name, opts := range map[string]core.Options{
		"bushy(paper)": {},
		"left-deep":    {ForceLeftDeep: true},
	} {
		parsed := sparql.MustParse(yago.Y3)
		plan, err := core.NewPlannerWith(opts).Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHybrid compares pure-heuristic HSP against the
// hybrid strategy of the paper's Section 7 (heuristics decide the merge
// structure, exact statistics order scans and hash joins) on the heavy
// star SP2a — the query class the paper says HSP handles worst.
func BenchmarkAblationHybrid(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	w := e.SP2Bench
	eng := exec.New(exec.ColumnSource{St: w.Col})
	var sp2a string
	for _, q := range w.Queries {
		if q.Name == "SP2a" {
			sp2a = q.Text
		}
	}
	parsed := sparql.MustParse(sp2a)
	for name, opts := range map[string]core.Options{
		"heuristics-only(paper)": {},
		"hybrid":                 {Stats: stats.New(w.Col)},
	} {
		plan, err := core.NewPlannerWith(opts).Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCharacteristicSets measures building and probing the
// characteristic-set statistic (the related-work estimator of Neumann &
// Moerkotte the paper contrasts heuristics against) on the SP²Bench
// store, and reports its estimation error on the SP2a star against the
// independence assumption's.
func BenchmarkCharacteristicSets(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	w := e.SP2Bench
	var sp2a *sparql.Query
	for _, q := range w.Queries {
		if q.Name == "SP2a" {
			sp2a = sparql.MustParse(q.Text)
		}
	}
	// The unbounded-object star of SP2a: everything except the rdf:type
	// selection (characteristic sets estimate stars with variable
	// objects; the type pattern's bound object is out of their domain).
	star := &sparql.Query{Star: true, Patterns: sp2a.Patterns[1:], Limit: -1}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cs := stats.NewCharacteristicSets(w.Col); cs.NumSets() == 0 {
				b.Fatal("no characteristic sets")
			}
		}
	})
	cs := stats.NewCharacteristicSets(w.Col)
	truth := 0
	if res, err := exec.New(exec.ColumnSource{St: w.Col}).Execute(context.Background(), mustHSP(b, star)); err == nil {
		truth = res.Len()
	}
	b.Run("estimate-star", func(b *testing.B) {
		b.ReportAllocs()
		var est float64
		for i := 0; i < b.N; i++ {
			var ok bool
			est, ok = cs.StarCard(w.Col.Dict(), star.Patterns)
			if !ok {
				b.Fatal("SP2a star rejected")
			}
		}
		if truth > 0 {
			b.ReportMetric(est/float64(truth), "est/truth")
		}
	})
	// Independence-assumption baseline error on the same star.
	b.Run("independence", func(b *testing.B) {
		b.ReportAllocs()
		est := stats.New(w.Col)
		var card int
		for i := 0; i < b.N; i++ {
			rel := est.PatternRel(star.Patterns[0])
			for _, tp := range star.Patterns[1:] {
				rel = stats.JoinRel(rel, est.PatternRel(tp), []sparql.Var{"inproc"})
			}
			card = rel.Card
		}
		if truth > 0 {
			b.ReportMetric(float64(card)/float64(truth), "est/truth")
		}
	})
}

func mustHSP(b *testing.B, q *sparql.Query) *algebra.Plan {
	b.Helper()
	p, err := core.NewPlanner().Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblationBlockOrder compares H1-ordered merge blocks against
// pattern-order blocks on Y3 (execution time; H1 puts the selective
// type patterns first).
func BenchmarkAblationBlockOrder(b *testing.B) {
	b.ReportAllocs()
	e := getEnv(b)
	eng := exec.New(exec.ColumnSource{St: e.YAGO.Col})
	for name, opts := range map[string]core.Options{
		"h1-order(paper)": {},
		"pattern-order":   {NaiveBlockOrder: true},
	} {
		parsed := sparql.MustParse(yago.Y3)
		plan, err := core.NewPlannerWith(opts).Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- streamed vs materialised execution ---

// benchStream measures the two result-delivery paths of the physical
// layer over the whole SP2Bench suite: Execute (materialise every row)
// versus Compile+Run (pull rows one at a time), so the perf trajectory
// tracks both. The parallel variant adds concurrent hash-join builds.
func benchStream(b *testing.B, parallelism int, materialise bool) {
	e := getEnv(b)
	w := e.SP2Bench
	eng := exec.New(exec.ColumnSource{St: w.Col})
	for _, q := range w.Queries {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := core.NewPlanner().Plan(parsed)
		if err != nil {
			b.Fatal(err)
		}
		compiled, err := eng.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		opts := exec.Options{Parallelism: parallelism}
		b.Run(q.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if materialise {
					if _, err := eng.ExecuteContext(context.Background(), plan, opts); err != nil {
						b.Fatal(err)
					}
					continue
				}
				run := compiled.Run(opts)
				for run.Next() {
				}
				if err := run.Err(); err != nil {
					b.Fatal(err)
				}
				run.Close()
			}
		})
	}
}

func BenchmarkExecMaterialised(b *testing.B) { benchStream(b, 1, true) }

func BenchmarkExecStreamed(b *testing.B) { benchStream(b, 1, false) }

func BenchmarkExecStreamedParallel(b *testing.B) { benchStream(b, 4, false) }

// BenchmarkStreamedParallelPipeline measures whole-pipeline morsel
// parallelism on SP4b, the suite's probe-heavy hash-join shape: the
// probe chain scatters across exchange workers and gathers back in
// scan order. On multicore hardware parallelism 4 should run the query
// at least 2× faster than parallelism 1; before each timed loop the
// parallel output is checked byte-identical to the sequential stream.
func BenchmarkStreamedParallelPipeline(b *testing.B) {
	e := getEnv(b)
	eng := exec.New(exec.ColumnSource{St: e.SP2Bench.Col})
	var text string
	for _, q := range e.SP2Bench.Queries {
		if q.Name == "SP4b" {
			text = q.Text
		}
	}
	if text == "" {
		b.Fatal("suite has no SP4b query")
	}
	plan, err := core.NewPlanner().Plan(sparql.MustParse(text))
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := eng.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	drain := func(par int) []exec.Row {
		run := compiled.Run(exec.Options{Parallelism: par, ExchangeThreshold: 1})
		defer run.Close()
		var rows []exec.Row
		for run.Next() {
			rows = append(rows, append(exec.Row(nil), run.Row()...))
		}
		if err := run.Err(); err != nil {
			b.Fatal(err)
		}
		return rows
	}
	want := drain(1)
	if len(want) == 0 {
		b.Fatal("SP4b produced no rows")
	}
	for _, par := range []int{1, 2, 4, 8} {
		got := drain(par)
		if len(got) != len(want) {
			b.Fatalf("parallelism=%d: %d rows, want %d", par, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					b.Fatalf("parallelism=%d: row %d differs from sequential", par, i)
				}
			}
		}
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := compiled.Run(exec.Options{Parallelism: par, ExchangeThreshold: 1})
				for run.Next() {
				}
				if err := run.Err(); err != nil {
					b.Fatal(err)
				}
				run.Close()
			}
		})
	}
}

// --- serving path: compiled-plan cache ---

// benchServe measures db.QueryContext over the SP2Bench suite with and
// without the compiled-plan cache; the delta is the parse + plan +
// compile work the cache skips on every repeated request.
func benchServe(b *testing.B, cached bool) {
	e := getEnv(b)
	db := newDB(e.SP2Bench.Col)
	ctx := context.Background()
	var opts []ExecOption
	if cached {
		opts = append(opts, WithPlanCache(64))
	}
	queries := e.SP2Bench.Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := db.QueryContext(ctx, q.Text, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeUncached(b *testing.B) { benchServe(b, false) }

func BenchmarkServeCachedPlan(b *testing.B) { benchServe(b, true) }

// benchCompileQuery isolates the planning pipeline itself: a repeated
// byte-identical query must hit the exact-text alias (a map lookup, no
// parse); only constant-varying texts pay a parse to compute their
// normalised template key, and only genuinely new templates re-plan.
// Prepare+Stmt skips the lookup too (see BenchmarkPreparedBind).
func benchCompileQuery(b *testing.B, cached bool) {
	e := getEnv(b)
	db := newDB(e.SP2Bench.Col)
	text := e.SP2Bench.Queries[0].Text
	cfg := configOf(nil)
	if cached {
		cfg.planCache = 16
		if _, _, err := db.compileQuery(db.loadState(), text, cfg); err != nil { // warm the cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.compileQuery(db.loadState(), text, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCompileUncached(b *testing.B) { benchCompileQuery(b, false) }

func BenchmarkPlanCompileCached(b *testing.B) { benchCompileQuery(b, true) }

// --- ORDER BY: spill vs materialise ---

// orderByBenchQuery orders every issued document by year — the widest
// sorted result the SP2Bench fixture produces, so the spill variant
// genuinely writes and merges runs.
const orderByBenchQuery = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?doc ?yr
WHERE { ?doc dcterms:issued ?yr .
        ?doc dc:title ?title }
ORDER BY ?yr`

// benchOrderBy is the spill-vs-materialise pair: the same ORDER BY
// query materialised (Query buffers the whole result), streamed with
// the default budget (in-memory sort), and streamed with a small
// budget forcing the external merge-sort path.
func benchOrderBy(b *testing.B, stream bool, budget int) {
	e := getEnv(b)
	db := newDB(e.SP2Bench.Col)
	var opts []ExecOption
	if budget > 0 {
		opts = append(opts, WithSortSpill(budget), WithTempDir(b.TempDir()))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !stream {
			if _, err := db.Query(orderByBenchQuery, opts...); err != nil {
				b.Fatal(err)
			}
			continue
		}
		rows, err := db.Stream(orderByBenchQuery, opts...)
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderByMaterialised(b *testing.B) { benchOrderBy(b, false, 0) }

func BenchmarkOrderByStreamedInMemory(b *testing.B) { benchOrderBy(b, true, 0) }

func BenchmarkOrderByStreamedSpill(b *testing.B) { benchOrderBy(b, true, 32<<10) }

// --- prepared statements: bind-and-run vs plan-cache hit vs re-plan ---

// preparedBenchTemplate is the prepared form of the constant-rotating
// lookup below: one selective pattern parameterized on the title, so
// per-request execution is cheap and the planning-pipeline overhead
// dominates the comparison.
const preparedBenchTemplate = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?j ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`

// preparedBenchValues collects distinct title literals to rotate
// through, so every iteration issues a different concrete query.
func preparedBenchValues(b *testing.B, db *DB) []string {
	b.Helper()
	res, err := db.Query(`
		PREFIX dc: <http://purl.org/dc/elements/1.1/>
		SELECT DISTINCT ?t { ?j dc:title ?t } LIMIT 64`)
	if err != nil {
		b.Fatal(err)
	}
	if res.Len() == 0 {
		b.Fatal("no titles in the benchmark dataset")
	}
	out := make([]string, res.Len())
	for i := range out {
		out[i] = res.Row(i)["t"].Value
	}
	return out
}

// BenchmarkPreparedBind is the prepared-statement acceptance benchmark:
// re-executing a prepared statement with a new binding (Bind) must land
// within ~2x of a plan-cache hit (PlanCacheHit: same work served from
// the template-keyed cache, re-parsed but not re-planned) and well
// ahead of the uncached pipeline (Replan: parse+plan+compile per
// request).
func BenchmarkPreparedBind(b *testing.B) {
	e := getEnv(b)
	ctx := context.Background()
	concrete := func(title string) string {
		return fmt.Sprintf(`
			PREFIX dc:      <http://purl.org/dc/elements/1.1/>
			PREFIX dcterms: <http://purl.org/dc/terms/>
			SELECT ?j ?yr WHERE { ?j dc:title "%s" . ?j dcterms:issued ?yr }`, title)
	}

	b.Run("Bind", func(b *testing.B) {
		db := newDB(e.SP2Bench.Col)
		titles := preparedBenchValues(b, db)
		st, err := db.Prepare(ctx, preparedBenchTemplate)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.Query(ctx, Bind("title", Literal(titles[i%len(titles)]))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PlanCacheHit", func(b *testing.B) {
		db := newDB(e.SP2Bench.Col)
		titles := preparedBenchValues(b, db)
		if _, err := db.QueryContext(ctx, concrete(titles[0]), WithPlanCache(256)); err != nil {
			b.Fatal(err) // warm the template entry
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryContext(ctx, concrete(titles[i%len(titles)]), WithPlanCache(256)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Replan", func(b *testing.B) {
		db := newDB(e.SP2Bench.Col)
		titles := preparedBenchValues(b, db)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryContext(ctx, concrete(titles[i%len(titles)])); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedQueryMany measures the batched-execution
// amortisation: QueryMany resolves each distinct bound term against
// the pinned snapshot's dictionary once per batch, so rotating through
// a small value set pays one lookup per value instead of one per
// execution. LoopQuery is the unbatched reference issuing the same
// executions through Stmt.Query.
func BenchmarkPreparedQueryMany(b *testing.B) {
	e := getEnv(b)
	ctx := context.Background()
	const batchSize = 64
	db := newDB(e.SP2Bench.Col)
	titles := preparedBenchValues(b, db)
	st, err := db.Prepare(ctx, preparedBenchTemplate)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batches := make([]Binds, batchSize)
	for i := range batches {
		batches[i] = Binds{Bind("title", Literal(titles[i%len(titles)]))}
	}

	b.Run("QueryMany", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.QueryMany(ctx, batches); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LoopQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				if _, err := st.Query(ctx, batch...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
