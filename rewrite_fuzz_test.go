package hsp

// Native fuzz target for the algebraic rewrite pass: for any input text
// that parses, parse → rewrite → plan must never panic, the rewritten
// query must re-render to parseable SPARQL, and executing with and
// without rewrites must agree — same refusal, or the same row multiset.
// Seeded with both workload suites and the rule-targeted compositions
// so mutation starts from queries every rule fires on.

import (
	"context"
	"sync"
	"testing"

	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/yago"
)

var (
	rewriteFuzzOnce sync.Once
	rewriteFuzzDB   *DB
)

// rewriteFuzzDatabase is one tiny dataset shared by the fuzz process,
// so hostile queries (cross products included) bound their cost.
func rewriteFuzzDatabase() *DB {
	rewriteFuzzOnce.Do(func() {
		rewriteFuzzDB = GenerateSP2Bench(300, 1)
	})
	return rewriteFuzzDB
}

// FuzzRewrite checks the rewrite pass on arbitrary parseable input.
func FuzzRewrite(f *testing.F) {
	for _, q := range sp2bench.Queries() {
		f.Add(q.Text)
	}
	for _, q := range yago.Queries() {
		f.Add(q.Text)
	}
	for _, q := range rewriteCompositions {
		f.Add(q.Text)
	}
	f.Add("SELECT ?s WHERE { ?s ?p ?o . FILTER (?o = ?o) }")
	f.Add("SELECT ?s WHERE { ?s ?p ?o . FILTER (?o != ?o) }")
	f.Fuzz(func(t *testing.T, query string) {
		q, err := sparql.Parse(query)
		if err != nil {
			return // unparseable input never reaches the rewriter
		}
		// The rewritten query must round-trip through the parser: a rule
		// producing unrenderable structure is a bug even if plans work.
		q2, _ := rewrite.Apply(q, rewrite.All())
		if _, err := sparql.Parse(q2.String()); err != nil {
			t.Fatalf("rewritten query does not re-parse (%v):\noriginal: %q\nrewritten: %q", err, query, q2.String())
		}

		db := rewriteFuzzDatabase()
		off, errOff := db.QueryContext(context.Background(), query, WithRewrites())
		on, errOn := db.QueryContext(context.Background(), query)
		if (errOff == nil) != (errOn == nil) {
			t.Fatalf("mode disagreement for %q: rewrites-off err = %v, rewrites-on err = %v", query, errOff, errOn)
		}
		if errOff != nil {
			return // both modes refuse — equivalent
		}
		// LIMIT/OFFSET without a total order may legally pick different
		// rows per plan; only unsliced results are comparable multisets.
		if q.Limit >= 0 || q.Offset > 0 {
			return
		}
		want := materialisedLines(t, off)
		got := materialisedLines(t, on)
		if !equalLines(got, want) {
			t.Fatalf("row multiset differs for %q: %d rows with rewrites vs %d without", query, len(got), len(want))
		}
	})
}
