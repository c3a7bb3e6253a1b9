// Command hsp-bench regenerates the tables and figures of the paper's
// evaluation (Section 6) over freshly generated SP²Bench- and
// YAGO-shaped datasets.
//
// Usage:
//
//	hsp-bench [-table 2|3|4|6|7|8] [-figure 1|2|3] [-study] [-all]
//	          [-analyze] [-parallel N]
//	          [-sp2scale N] [-yagoscale N] [-seed N] [-runs N]
//
// -analyze prints EXPLAIN ANALYZE trees (per-operator row counts, wall
// times and hash-join build sizes) for every workload query under all
// three planners; -parallel N runs those executions with N workers.
//
// The serving, streaming, prepared-statement, live-update, parallel,
// rewrite and durability layers are measured by the benchmark in
// benchmark/ (bash benchmark/run.sh --workload …), not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/sparql-hsp/hsp/internal/experiments"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce one table (2, 3, 4, 6, 7 or 8)")
		figure    = flag.Int("figure", 0, "reproduce one figure (1, 2 or 3)")
		study     = flag.Bool("study", false, "run the Section 6.2 join-pattern dataset study")
		analyze   = flag.Bool("analyze", false, "print EXPLAIN ANALYZE for every query under all three planners")
		parallel  = flag.Int("parallel", 1, "executor workers for -analyze runs")
		all       = flag.Bool("all", false, "reproduce everything in paper order")
		sp2scale  = flag.Int("sp2scale", 200000, "approximate SP2Bench triple count")
		yagoscale = flag.Int("yagoscale", 100000, "approximate YAGO triple count")
		seed      = flag.Int64("seed", 1, "generator seed")
		runs      = flag.Int("runs", 5, "warm timing runs per query (Tables 7/8)")
	)
	flag.Parse()
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hsp-bench:", err)
	os.Exit(1)
}
