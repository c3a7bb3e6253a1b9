// Command hsp-bench regenerates the tables and figures of the paper's
// evaluation (Section 6) over freshly generated SP²Bench- and
// YAGO-shaped datasets.
//
// Usage:
//
//	hsp-bench [-table 2|3|4|6|7|8] [-figure 1|2|3] [-study] [-all]
//	          [-analyze] [-parallel N] [-rewrite]
//	          [-sp2scale N] [-yagoscale N] [-seed N] [-runs N]
//
// -analyze prints EXPLAIN ANALYZE trees (per-operator row counts, wall
// times and hash-join build sizes) for every workload query under all
// three planners; -parallel N runs those executions with N workers.
//
// -serving benchmarks the serving path instead: the SP²Bench workload
// queries are issued -requests times round-robin through the public
// facade with a compiled-plan cache (-plancache) and a per-request
// deadline (-timeout), reporting throughput and cache hit rates.
//
// -spill benchmarks the spill-vs-materialise ORDER BY pair: one large
// ordered query materialised, streamed with the in-memory sort, and
// streamed with a small sort budget (-sortspill, bytes) forcing the
// external merge path, with its EXPLAIN ANALYZE spill counters.
//
// -prepared benchmarks the prepared-statement serving modes: the same
// constant-rotating lookup issued -requests times as (1) a prepared
// statement re-executed with new bindings (plan once, bind many), (2)
// concrete query texts through the template-keyed plan cache, and (3)
// concrete texts fully re-planned per request — with the plan cache's
// hit/miss/template-hit counters.
//
// -mutate benchmarks the live-dataset path: read throughput through
// the plan cache against a quiescent dataset versus under a background
// writer committing insert/delete transactions of -batch triples,
// reporting commits, the final epoch and the cache's epoch
// invalidations (zero under the default HSP planner, whose plans
// survive commits).
//
// -scaling benchmarks pipeline parallelism: every query of both
// workload suites is streamed at parallelism 1, 2, 4 and 8, and the
// best-of--runs wall time, speedup over sequential and per-worker
// efficiency are written as a JSON trajectory to -benchout
// (BENCH_parallel.json) so parallel performance is tracked across
// revisions.
//
// -rewrite benchmarks the algebraic rewrite pass: the FILTER-heavy
// queries of the workload (SP3a/b/c, SP4a and derived variants) run
// under the HSP and CDP planners with the pass enabled and disabled,
// reporting result rows, the rows flowing through the join operators
// (FILTER pushdown cuts them), hash build sizes and wall-time quantiles
// as JSON to -benchout (BENCH_rewrite.json).
//
// -durability benchmarks the WAL-backed store: -requests commits of
// -batch triples each are applied through a durable directory under
// every sync policy (always, a 5ms group-fsync interval, none), with
// background compaction off and on, reporting commits/s with p50/p95
// commit latency and verifying each run's reopened epoch, as JSON to
// -benchout (BENCH_durability.json).
//
// -serve-load benchmarks the hspserve HTTP protocol server: -clients
// closed-loop workers issue -requests requests twice, first as full
// query text on /sparql (parsed server-side per request) and then
// through the statement registry by digest (registered once, bound per
// request), reporting client-observed throughput and p50/p95/p99
// latency for both modes as JSON to -benchout (BENCH_serve.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/experiments"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce one table (2, 3, 4, 6, 7 or 8)")
		figure    = flag.Int("figure", 0, "reproduce one figure (1, 2 or 3)")
		study     = flag.Bool("study", false, "run the Section 6.2 join-pattern dataset study")
		analyze   = flag.Bool("analyze", false, "print EXPLAIN ANALYZE for every query under all three planners")
		parallel  = flag.Int("parallel", 1, "executor workers for -analyze and -serving runs")
		all       = flag.Bool("all", false, "reproduce everything in paper order")
		sp2scale  = flag.Int("sp2scale", 200000, "approximate SP2Bench triple count")
		yagoscale = flag.Int("yagoscale", 100000, "approximate YAGO triple count")
		seed      = flag.Int64("seed", 1, "generator seed")
		runs      = flag.Int("runs", 5, "warm timing runs per query (Tables 7/8)")
		serving   = flag.Bool("serving", false, "benchmark the serving path (plan cache + context deadlines)")
		requests  = flag.Int("requests", 1000, "requests to issue in -serving mode")
		planCache = flag.Int("plancache", 256, "compiled-plan cache capacity in -serving mode (0 = off)")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline in -serving mode (0 = none)")
		sortSpill = flag.Int("sortspill", 0, "ORDER BY sort memory budget in bytes for -serving/-spill runs (0 = default 64 MiB)")
		spill     = flag.Bool("spill", false, "benchmark spill-vs-materialise ORDER BY pairs over SP²Bench")
		prepared  = flag.Bool("prepared", false, "benchmark prepared-statement bind-and-run vs plan-cache hit vs full re-plan")
		mutate    = flag.Bool("mutate", false, "benchmark read throughput while a background writer commits transactions")
		batch     = flag.Int("batch", 256, "triples per background commit in -mutate mode")
		scaling   = flag.Bool("scaling", false, "benchmark parallel scaling: both suites at parallelism 1/2/4/8")
		rewriteB  = flag.Bool("rewrite", false, "benchmark the algebraic rewrite pass: FILTER pushdown on vs off")
		serveLoad = flag.Bool("serve-load", false, "benchmark the HTTP protocol server: cold query text vs execute-by-digest")
		clients   = flag.Int("clients", 8, "closed-loop client workers in -serve-load mode")
		durB      = flag.Bool("durability", false, "benchmark WAL commit throughput and latency across sync policies, with and without compaction")
		benchout  = flag.String("benchout", "", "output file for -scaling, -serve-load, -rewrite and -durability results (BENCH_*.json)")
	)
	flag.Parse()
	if *durB {
		if err := durabilityBench(os.Stdout, *benchout, *requests, *batch); err != nil {
			fail(err)
		}
		return
	}
	if *rewriteB {
		out := *benchout
		if out == "" {
			out = "BENCH_rewrite.json"
		}
		if err := rewriteBench(os.Stdout, out, *sp2scale, *seed, *runs); err != nil {
			fail(err)
		}
		return
	}
	if *scaling {
		out := *benchout
		if out == "" {
			out = "BENCH_parallel.json"
		}
		if err := scalingBench(os.Stdout, out, *sp2scale, *yagoscale, *seed, *runs); err != nil {
			fail(err)
		}
		return
	}
	if *serveLoad {
		if err := serveLoadBench(os.Stdout, *benchout, *sp2scale, *seed, *requests, *clients, *planCache); err != nil {
			fail(err)
		}
		return
	}
	if *mutate {
		if err := mutateBench(os.Stdout, *sp2scale, *seed, *requests, *planCache, *parallel, *batch); err != nil {
			fail(err)
		}
		return
	}
	if *prepared {
		if err := preparedBench(os.Stdout, *sp2scale, *seed, *requests, *planCache); err != nil {
			fail(err)
		}
		return
	}
	if *spill {
		if err := spillBench(os.Stdout, *sp2scale, *seed, *parallel, *sortSpill); err != nil {
			fail(err)
		}
		return
	}
	if *serving {
		if err := servingBench(os.Stdout, *sp2scale, *seed, *requests, *planCache, *parallel, *timeout, *sortSpill); err != nil {
			fail(err)
		}
		return
	}
	if *table == 0 && *figure == 0 && !*study && !*analyze && !*all {
		*all = true
	}

	cfg := experiments.Config{
		SP2BenchScale: *sp2scale,
		YAGOScale:     *yagoscale,
		Seed:          *seed,
		Runs:          *runs,
	}
	// Figure 1 is purely syntactic; skip dataset generation for it.
	if *figure == 1 && *table == 0 && !*study && !*all {
		if err := experiments.Figure1(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "generating datasets (sp2bench=%d, yago=%d, seed=%d)...\n",
		cfg.SP2BenchScale, cfg.YAGOScale, cfg.Seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "loaded %d SP2Bench and %d YAGO triples\n\n",
		env.SP2Bench.Col.NumTriples(), env.YAGO.Col.NumTriples())

	if *all {
		if err := experiments.All(context.Background(), env, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	switch *table {
	case 0:
	case 2:
		err = experiments.Table2(env, os.Stdout)
	case 3:
		err = experiments.Table3(context.Background(), env, os.Stdout)
	case 4:
		err = experiments.Table4(env, os.Stdout)
	case 6:
		err = experiments.Table6(env, os.Stdout)
	case 7:
		err = experiments.Table7(context.Background(), env, os.Stdout)
	case 8:
		err = experiments.Table8(context.Background(), env, os.Stdout)
	default:
		err = fmt.Errorf("unknown table %d (the paper's result tables are 2, 3, 4, 6, 7, 8)", *table)
	}
	if err != nil {
		fail(err)
	}
	switch *figure {
	case 0:
	case 1:
		err = experiments.Figure1(os.Stdout)
	case 2:
		err = experiments.Figure2(context.Background(), env, os.Stdout)
	case 3:
		err = experiments.Figure3(context.Background(), env, os.Stdout)
	default:
		err = fmt.Errorf("unknown figure %d", *figure)
	}
	if err != nil {
		fail(err)
	}
	if *study {
		if err := experiments.JoinPatternStudy(env, os.Stdout); err != nil {
			fail(err)
		}
	}
	if *analyze {
		if err := experiments.ExplainAnalyzeAll(context.Background(), env, os.Stdout, *parallel); err != nil {
			fail(err)
		}
	}
}

// spillQuery is the ORDER BY workload of -spill: every issued document
// with its year, ordered by year — large enough at the default scale
// that a small sort budget spills several runs.
const spillQuery = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?doc ?yr
WHERE { ?doc dcterms:issued ?yr .
        ?doc dc:title ?title }
ORDER BY ?yr`

// spillBench times the spill-vs-materialise ORDER BY pair: the same
// query materialised (Query buffers everything), streamed with the
// default in-memory sort budget, and streamed with a deliberately
// small budget that forces the external merge path — then prints the
// small-budget EXPLAIN ANALYZE so the spill counters are visible.
func spillBench(out *os.File, scale int, seed int64, parallel, sortSpill int) error {
	fmt.Fprintf(os.Stderr, "generating sp2bench scale=%d seed=%d...\n", scale, seed)
	db := hsp.GenerateSP2Bench(scale, seed)
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", db.NumTriples())
	if sortSpill <= 0 {
		sortSpill = 64 << 10 // small enough to spill at any realistic scale
	}
	ctx := context.Background()

	start := time.Now()
	res, err := db.Query(spillQuery, hsp.WithParallelism(parallel))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "materialised:        %8s  %d rows\n", time.Since(start).Round(time.Millisecond), res.Len())

	for _, v := range []struct {
		name string
		opts []hsp.ExecOption
	}{
		{"streamed in-memory", []hsp.ExecOption{hsp.WithParallelism(parallel)}},
		{"streamed spilling", []hsp.ExecOption{hsp.WithParallelism(parallel), hsp.WithSortSpill(sortSpill)}},
	} {
		start = time.Now()
		rows, err := db.StreamContext(ctx, spillQuery, v.opts...)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-20s %8s  %d rows\n", v.name+":", time.Since(start).Round(time.Millisecond), n)
	}

	tree, err := db.ExplainAnalyzeQuery(ctx, spillQuery,
		hsp.WithParallelism(parallel), hsp.WithSortSpill(sortSpill))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nEXPLAIN ANALYZE (sortspill=%d):\n%s", sortSpill, tree)
	return nil
}

// preparedBench compares the three ways of serving a repeated query
// shape whose constants vary per request — the workload prepared
// statements exist for:
//
//	prepared bind:  db.Prepare once, Stmt.Query per request with a new
//	                binding (no re-parse, no re-plan)
//	plan cache:     a distinct concrete text per request through
//	                QueryContext + WithPlanCache; the normalised
//	                template key makes every variation after the first
//	                a cache hit (TemplateHits counts them)
//	re-plan:        the same concrete texts with no cache: the full
//	                parse+plan+compile pipeline per request
func preparedBench(out *os.File, scale int, seed int64, requests, planCache int) error {
	fmt.Fprintf(os.Stderr, "generating sp2bench scale=%d seed=%d...\n", scale, seed)
	db := hsp.GenerateSP2Bench(scale, seed)
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", db.NumTriples())
	ctx := context.Background()

	titles, err := db.Query(`
		PREFIX dc: <http://purl.org/dc/elements/1.1/>
		SELECT DISTINCT ?t { ?j dc:title ?t } LIMIT 256`)
	if err != nil {
		return err
	}
	if titles.Len() == 0 {
		return fmt.Errorf("dataset has no titles to look up")
	}
	value := func(i int) string { return titles.Row(i % titles.Len())["t"].Value }
	concrete := func(i int) string {
		return fmt.Sprintf(`
			PREFIX dc:      <http://purl.org/dc/elements/1.1/>
			PREFIX dcterms: <http://purl.org/dc/terms/>
			SELECT ?j ?yr WHERE { ?j dc:title "%s" . ?j dcterms:issued ?yr }`, value(i))
	}

	st, err := db.Prepare(ctx, `
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?j ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`)
	if err != nil {
		return err
	}
	defer st.Close()
	start := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := st.Query(ctx, hsp.Bind("title", hsp.Literal(value(i)))); err != nil {
			return err
		}
	}
	report(out, "prepared bind", requests, time.Since(start))

	if planCache <= 0 {
		planCache = 256
	}
	start = time.Now()
	for i := 0; i < requests; i++ {
		if _, err := db.QueryContext(ctx, concrete(i), hsp.WithPlanCache(planCache)); err != nil {
			return err
		}
	}
	report(out, "plan cache", requests, time.Since(start))
	s := db.PlanCacheStats()
	fmt.Fprintf(out, "plan cache: hits=%d misses=%d template_hits=%d size=%d/%d\n",
		s.Hits, s.Misses, s.TemplateHits, s.Len, s.Cap)

	start = time.Now()
	for i := 0; i < requests; i++ {
		if _, err := db.QueryContext(ctx, concrete(i)); err != nil {
			return err
		}
	}
	report(out, "re-plan", requests, time.Since(start))
	return nil
}

// report prints one mode's wall time and request throughput.
func report(out *os.File, name string, requests int, total time.Duration) {
	fmt.Fprintf(out, "%-14s %8s  %9.0f req/s\n", name+":", total.Round(time.Millisecond), float64(requests)/total.Seconds())
}

// mutateBench measures the read path under live writes: the SP²Bench
// workload queries are issued round-robin through the serving path
// (plan cache on) twice — once against a quiescent dataset, once while
// a background writer continuously commits transactions that insert a
// batch of fresh triples and then delete it again. Readers never block
// on the writer (they pin MVCC snapshots), so the two throughputs
// should stay in the same ballpark; the report includes the number of
// commits, the final epoch and the plan cache's invalidation count —
// zero for HSP plans, which read no statistics and so survive every
// commit; only plans of the statistics-reading planners are
// invalidated, lazily, after each commit.
func mutateBench(out *os.File, scale int, seed int64, requests, planCache, parallel, batch int) error {
	fmt.Fprintf(os.Stderr, "generating sp2bench scale=%d seed=%d...\n", scale, seed)
	db := hsp.GenerateSP2Bench(scale, seed)
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", db.NumTriples())
	if planCache <= 0 {
		planCache = 256
	}
	opts := []hsp.ExecOption{hsp.WithParallelism(parallel), hsp.WithPlanCache(planCache)}
	queries := sp2bench.Queries()
	ctx := context.Background()

	readAll := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < requests; i++ {
			if _, err := db.QueryContext(ctx, queries[i%len(queries)].Text, opts...); err != nil {
				return 0, fmt.Errorf("request %d (%s): %w", i, queries[i%len(queries)].Name, err)
			}
		}
		return time.Since(start), nil
	}

	quiet, err := readAll()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "quiescent: %d requests in %s (%.0f req/s)\n",
		requests, quiet.Round(time.Millisecond), float64(requests)/quiet.Seconds())

	// Background writer: insert one fixed batch, commit, delete it,
	// commit, forever — the dataset oscillates around its base size and
	// the shared dictionary stops growing after the first cycle (fresh
	// IRIs per cycle would leak terms into the append-only dictionary
	// for the whole measurement and skew the comparison).
	stop := make(chan struct{})
	writerDone := make(chan int)
	go func() {
		commits := 0
		defer func() { writerDone <- commits }()
		for {
			for _, insert := range []bool{true, false} {
				select {
				case <-stop:
					return
				default:
				}
				txn, err := db.Update(ctx)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mutate writer: Update: %v\n", err)
					return
				}
				for i := 0; i < batch; i++ {
					tr := hsp.Triple{
						S: hsp.IRI(fmt.Sprintf("http://mutate/s%d", i)),
						P: hsp.IRI("http://mutate/p"),
						O: hsp.Literal(fmt.Sprintf("v%d", i)),
					}
					if insert {
						err = txn.Insert(tr)
					} else {
						err = txn.Delete(tr)
					}
					if err != nil {
						fmt.Fprintf(os.Stderr, "mutate writer: buffering: %v\n", err)
						txn.Rollback()
						return
					}
				}
				if _, err := txn.Commit(ctx); err != nil {
					fmt.Fprintf(os.Stderr, "mutate writer: Commit: %v\n", err)
					txn.Rollback()
					return
				}
				commits++
			}
		}
	}()

	mutating, err := readAll()
	close(stop)
	commits := <-writerDone
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mutating:  %d requests in %s (%.0f req/s) under %d commits (%.0f commits/s)\n",
		requests, mutating.Round(time.Millisecond), float64(requests)/mutating.Seconds(),
		commits, float64(commits)/mutating.Seconds())
	s := db.PlanCacheStats()
	fmt.Fprintf(out, "final epoch=%d triples=%d\n", db.Epoch(), db.NumTriples())
	fmt.Fprintf(out, "plan cache: hits=%d misses=%d template_hits=%d invalidations=%d size=%d/%d\n",
		s.Hits, s.Misses, s.TemplateHits, s.Invalidations, s.Len, s.Cap)
	return nil
}

// servingBench issues the SP²Bench workload queries round-robin
// through the public serving path — QueryContext with a per-request
// deadline and the shared compiled-plan cache — and reports wall time,
// request throughput and the cache's hit/miss counters. With the cache
// disabled (-plancache 0) every request re-plans, which isolates the
// cache's contribution when comparing the two runs.
func servingBench(out *os.File, scale int, seed int64, requests, planCache, parallel int, timeout time.Duration, sortSpill int) error {
	fmt.Fprintf(os.Stderr, "generating sp2bench scale=%d seed=%d...\n", scale, seed)
	db := hsp.GenerateSP2Bench(scale, seed)
	fmt.Fprintf(os.Stderr, "loaded %d triples\n", db.NumTriples())

	opts := []hsp.ExecOption{hsp.WithParallelism(parallel)}
	if planCache > 0 {
		opts = append(opts, hsp.WithPlanCache(planCache))
	}
	if sortSpill > 0 {
		opts = append(opts, hsp.WithSortSpill(sortSpill))
	}
	queries := sp2bench.Queries()
	start := time.Now()
	rows := 0
	for i := 0; i < requests; i++ {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, err := db.QueryContext(ctx, queries[i%len(queries)].Text, opts...)
		cancel()
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, queries[i%len(queries)].Name, err)
		}
		rows += res.Len()
	}
	total := time.Since(start)
	fmt.Fprintf(out, "serving: %d requests over %d queries in %s (%.0f req/s, %d rows)\n",
		requests, len(queries), total.Round(time.Millisecond), float64(requests)/total.Seconds(), rows)
	if planCache > 0 {
		s := db.PlanCacheStats()
		fmt.Fprintf(out, "plan cache: hits=%d misses=%d size=%d/%d hit-rate=%.1f%%\n",
			s.Hits, s.Misses, s.Len, s.Cap, 100*float64(s.Hits)/float64(s.Hits+s.Misses))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hsp-bench:", err)
	os.Exit(1)
}
