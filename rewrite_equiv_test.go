package hsp

// Differential equivalence harness for the algebraic rewrite pass: every
// query of both workload suites, plus hand-built FILTER/OPTIONAL/UNION
// compositions exercising each rewrite rule, must return the identical
// row multiset with rewrites enabled (the default) and disabled
// (WithRewrites() with no rules), across both engines, sequentially and
// in parallel, for every planner. A query that fails to plan must fail
// in both modes. This is the soundness proof the rewrite rules ride on:
// any rule firing where its side condition does not hold shows up here
// as a row diff.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

const equivPrefixes = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs:    <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf:    <http://xmlns.com/foaf/0.1/>
PREFIX swrc:    <http://swrc.ontoware.org/ontology#>
`

// rewriteCompositions are generated FILTER/OPTIONAL/UNION queries over
// the SP²Bench vocabulary, each chosen to fire a specific rewrite rule
// (or to sit exactly on a rule's side condition so a careless rule
// would fire unsoundly).
var rewriteCompositions = []struct{ Name, Text string }{
	{"filter-eq-literal", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr = "1945") }`},
	{"filter-pushdown-below-join", equivPrefixes + `
		SELECT ?a ?p ?n
		WHERE { ?a rdf:type bench:Article .
		        ?a dc:creator ?p .
		        ?p foaf:name ?n .
		        FILTER (?n = "Person 3") }`},
	{"filter-range", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr > "1944")
		        FILTER (?yr <= "1950") }`},
	{"filter-tautology", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr = ?yr) }`},
	{"filter-contradiction", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr != ?yr) }`},
	{"filter-dup-and-pin", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr = "1945")
		        FILTER (?yr = "1945")
		        FILTER (?yr != "1950") }`},
	{"filter-pin-contradiction", equivPrefixes + `
		SELECT ?j ?yr
		WHERE { ?j rdf:type bench:Journal .
		        ?j dcterms:issued ?yr .
		        FILTER (?yr = "1945")
		        FILTER (?yr = "1946") }`},
	{"optional-inner-filter", equivPrefixes + `
		SELECT ?a ?m
		WHERE { ?a rdf:type bench:Article .
		        ?a dcterms:issued ?yr .
		        OPTIONAL { ?a swrc:month ?m FILTER (?m = "3") } }`},
	{"optional-bound-tautology", equivPrefixes + `
		SELECT ?a ?m
		WHERE { ?a rdf:type bench:Article .
		        OPTIONAL { ?a swrc:month ?m }
		        FILTER (?m = ?m) }`},
	{"optional-inner-contradiction", equivPrefixes + `
		SELECT ?a ?m
		WHERE { ?a rdf:type bench:Article .
		        OPTIONAL { ?a swrc:month ?m FILTER (?m != ?m) } }`},
	{"optional-required-side-filter", equivPrefixes + `
		SELECT ?a ?yr ?m
		WHERE { ?a rdf:type bench:Article .
		        ?a dcterms:issued ?yr .
		        OPTIONAL { ?a swrc:month ?m }
		        FILTER (?yr = "1950") }`},
	{"union-branch-filters", equivPrefixes + `
		SELECT ?x ?yr
		WHERE { { ?x rdf:type bench:Article .
		          ?x dcterms:issued ?yr .
		          FILTER (?yr = "1950") }
		        UNION
		        { ?x rdf:type bench:Journal .
		          ?x dcterms:issued ?yr } }`},
	{"union-unsat-branch", equivPrefixes + `
		SELECT ?x ?yr
		WHERE { { ?x rdf:type bench:Journal .
		          ?x dcterms:issued ?yr }
		        UNION
		        { ?x rdf:type bench:Article .
		          ?x dcterms:issued ?yr .
		          FILTER (?yr != ?yr) } }`},
	{"union-unsat-head-branch", equivPrefixes + `
		SELECT ?x ?yr
		WHERE { { ?x rdf:type bench:Journal .
		          ?x dcterms:issued ?yr .
		          FILTER (?yr != ?yr) }
		        UNION
		        { ?x rdf:type bench:Article .
		          ?x dcterms:issued ?yr .
		          FILTER (?yr = "1950") } }`},
	{"cross-var-filter", equivPrefixes + `
		SELECT ?j1 ?j2 ?yr
		WHERE { ?j1 rdf:type bench:Journal .
		        ?j1 dcterms:issued ?yr .
		        ?j2 dcterms:revised ?yr2 .
		        FILTER (?yr = ?yr2) }`},
}

// runEquiv executes one query in both rewrite modes under one
// planner/engine/parallelism cell and compares sorted row multisets.
func runEquiv(t *testing.T, db *DB, text string, pl Planner, e Engine, par int) {
	t.Helper()
	opts := []ExecOption{WithPlanner(pl), WithEngine(e), WithParallelism(par)}
	if par > 1 {
		opts = append(opts, WithExchangeThreshold(1))
	}
	off, errOff := db.QueryContext(context.Background(), text, append([]ExecOption{WithRewrites()}, opts...)...)
	on, errOn := db.QueryContext(context.Background(), text, opts...)
	if (errOff == nil) != (errOn == nil) {
		t.Fatalf("mode disagreement: rewrites-off err = %v, rewrites-on err = %v", errOff, errOn)
	}
	if errOff != nil {
		return // both refuse (e.g. CDP on SP4a's cross product) — equivalent
	}
	want := materialisedLines(t, off)
	got := materialisedLines(t, on)
	if !equalLines(got, want) {
		t.Errorf("row multiset differs: %d rows with rewrites vs %d without", len(got), len(want))
	}
}

// TestRewriteEquivalenceSuites is the differential harness over the
// full SP²Bench and YAGO workloads plus the rule-targeted compositions.
func TestRewriteEquivalenceSuites(t *testing.T) {
	type suite struct {
		name    string
		db      *DB
		queries []struct{ Name, Text string }
	}
	suites := []suite{
		{"sp2bench", GenerateSP2Bench(12000, 1), append(sp2bench.Queries(), rewriteCompositions...)},
		{"yago", GenerateYAGO(8000, 1), yago.Queries()},
	}
	before := runtime.NumGoroutine()
	for _, s := range suites {
		for _, q := range s.queries {
			for _, pl := range []Planner{PlannerHSP, PlannerCDP, PlannerSQL} {
				for _, e := range []Engine{EngineMonet, EngineRDF3X} {
					for _, par := range []int{1, 4} {
						t.Run(fmt.Sprintf("%s/%s/%s/%s/par%d", s.name, q.Name, pl, e, par), func(t *testing.T) {
							runEquiv(t, s.db, q.Text, pl, e, par)
						})
					}
				}
			}
		}
	}
	awaitGoroutines(t, before)
}

// TestRewriteNotesSurfaced checks the observability contract: a query a
// rewrite rule fires on reports it through Plan.RewriteNotes, and a
// WithRewrites()-disabled run of the same query plans without notes.
func TestRewriteNotesSurfaced(t *testing.T) {
	db := GenerateSP2Bench(2000, 1)
	p, err := db.Plan(rewriteCompositions[0].Text, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.RewriteNotes()) == 0 {
		t.Fatal("expected rewrite notes on a FILTER pushdown query, got none")
	}
}
