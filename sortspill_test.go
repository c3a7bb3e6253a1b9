package hsp

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// testSortBudget is the sort budget the spill tests run under: small
// enough that every suite query's ORDER BY spills. CI overrides it via
// HSP_TEST_SORT_BUDGET (the workflow pins 4096) so the spill path is
// exercised on every push regardless of the default here.
func testSortBudget() int {
	if s := os.Getenv("HSP_TEST_SORT_BUDGET"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4096
}

// orderedResultLines renders a materialised result in order (unlike
// materialisedLines, which sorts for multiset comparison — ordered
// queries must compare sequences).
func orderedResultLines(res *Result) []string {
	var out []string
	for i := 0; i < res.Len(); i++ {
		out = append(out, rowLine(res.Row(i)))
	}
	return out
}

// orderedStreamLines drains a stream in order.
func orderedStreamLines(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, rowLine(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamOrderBySpillSuites is the spill property test: for every
// query of the SP2Bench and YAGO suites, an ORDER BY variant streamed
// under a tiny sort budget (the external merge path) must equal the
// independently sorted materialised result row for row — across both
// engines, sequentially and in parallel — while leaving no temp files
// behind.
func TestStreamOrderBySpillSuites(t *testing.T) {
	type suite struct {
		name    string
		db      *DB
		queries []struct{ Name, Text string }
	}
	suites := []suite{
		{"sp2bench", GenerateSP2Bench(25000, 1), sp2bench.Queries()},
		{"yago", GenerateYAGO(15000, 1), yago.Queries()},
	}
	budget := testSortBudget()
	ctx := context.Background()
	for _, s := range suites {
		for _, q := range s.queries {
			for _, e := range []Engine{EngineMonet, EngineRDF3X} {
				t.Run(fmt.Sprintf("%s/%s/%s", s.name, q.Name, e), func(t *testing.T) {
					base, err := s.db.QueryContext(context.Background(), q.Text, WithEngine(e))
					if err != nil {
						t.Fatal(err)
					}
					vars := base.Vars()
					if len(vars) == 0 {
						t.Skip("no projected variables to order by")
					}
					ordered := q.Text + "\nORDER BY ?" + vars[0]
					// Reference: the materialised path (engine run +
					// stable in-memory SortBy), untouched by the spill
					// machinery.
					ref, err := s.db.QueryContext(context.Background(), ordered, WithEngine(e))
					if err != nil {
						t.Fatal(err)
					}
					want := orderedResultLines(ref)
					for _, par := range []int{1, 4} {
						dir := t.TempDir()
						rows, err := s.db.StreamContext(ctx, ordered,
							WithEngine(e), WithParallelism(par),
							WithSortSpill(budget), WithTempDir(dir))
						if err != nil {
							t.Fatal(err)
						}
						got := orderedStreamLines(t, rows)
						if !equalLines(got, want) {
							t.Errorf("parallelism=%d: spilled ORDER BY stream differs from materialised sort (%d vs %d rows)",
								par, len(got), len(want))
						}
						if ents, _ := os.ReadDir(dir); len(ents) != 0 {
							t.Errorf("parallelism=%d: temp files left behind: %v", par, ents)
						}
					}
				})
			}
		}
	}
}

// TestStreamOrderByUnionMerge checks the ordered-merge path: UNION
// with ORDER BY streams through per-branch sorts merged on the fly,
// with DISTINCT, OFFSET and LIMIT applied to the merged stream.
func TestStreamOrderByUnionMerge(t *testing.T) {
	db := openSample(t)
	queries := []string{
		`SELECT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> "1940" } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } } ORDER BY ?j`,
		`SELECT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> "1940" } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } } ORDER BY DESC(?j)`,
		`SELECT DISTINCT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> ?yr } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } } ORDER BY ?j`,
		`SELECT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> "1940" } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } } ORDER BY ?j LIMIT 1`,
		`SELECT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> "1940" } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } } ORDER BY ?j OFFSET 1`,
	}
	for _, text := range queries {
		res, err := db.QueryContext(context.Background(), text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		rows, err := db.StreamContext(context.Background(), text, WithSortSpill(testSortBudget()))
		if err != nil {
			t.Fatal(err)
		}
		got := orderedStreamLines(t, rows)
		want := orderedResultLines(res)
		if !equalLines(got, want) {
			t.Errorf("%s:\nstream: %v\nmaterialised: %v", text, got, want)
		}
	}
}

// TestExplainAnalyzeSpillCounters checks EXPLAIN ANALYZE surfaces the
// sort operator's spill counters through the serving path, and that
// the top-k short circuit reports mode=top-k with nothing spilled.
func TestExplainAnalyzeSpillCounters(t *testing.T) {
	db := GenerateSP2Bench(25000, 1)
	const ordered = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?doc ?yr
WHERE { ?doc dcterms:issued ?yr .
        ?doc dc:title ?title }
ORDER BY ?yr`
	ctx := context.Background()
	out, err := prepare(t, db, ordered, WithSortSpill(4096), WithTempDir(t.TempDir())).ExplainAnalyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`spilled runs: (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("EXPLAIN ANALYZE missing spill counters:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Fatalf("expected >=2 spilled runs under a 4 KiB budget, got %s:\n%s", m[1], out)
	}
	if !strings.Contains(out, "mode=external") || !strings.Contains(out, "spilled bytes: ") {
		t.Fatalf("EXPLAIN ANALYZE sort line incomplete:\n%s", out)
	}

	out, err = prepare(t, db, ordered+"\nLIMIT 5", WithSortSpill(4096)).ExplainAnalyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mode=top-k") || !strings.Contains(out, "spilled runs: 0") {
		t.Fatalf("LIMIT did not take the top-k short circuit:\n%s", out)
	}
}

// TestStreamOrderByCancelCleansUp cancels an ORDER BY stream
// mid-merge and verifies the context error surfaces, spilled temp
// files are deleted, and no goroutines outlive Close.
func TestStreamOrderByCancelCleansUp(t *testing.T) {
	db := GenerateSP2Bench(25000, 1)
	const ordered = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?doc ?yr
WHERE { ?doc dcterms:issued ?yr .
        ?doc dc:title ?title }
ORDER BY ?yr`
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.StreamContext(ctx, ordered,
		WithParallelism(4), WithSortSpill(4096), WithTempDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if err := rows.Close(); err != context.Canceled {
		t.Fatalf("Close = %v, want the stream's first error", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("temp files left after cancellation: %v", ents)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRowsCloseIdempotentFirstError is the Close-contract regression
// test: Close after exhaustion is a no-op returning nil on a clean
// stream, and every Close — first or repeated, before or after
// exhaustion — returns the stream's first deferred error once one
// occurred.
func TestRowsCloseIdempotentFirstError(t *testing.T) {
	db := openSample(t)

	// Clean stream: exhaust, then Close twice.
	rows, err := db.StreamContext(context.Background(), sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after clean exhaustion = %v, want nil", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}

	// Errored stream: the deferred error survives exhaustion and
	// repeated Close calls.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre, err := db.StreamContext(ctx, sampleQuery)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled StreamContext = (%v, %v), want context.Canceled", pre, err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	rows, err = db.StreamContext(context.Background(), sampleQuery) // fresh stream to cancel mid-flight
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	rows, err = db.StreamContext(ctx2, `SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr } ORDER BY ?yr`)
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	for rows.Next() {
	}
	if err := rows.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if got := rows.Close(); got != context.Canceled {
		t.Fatalf("Close = %v, want the first deferred error", got)
	}
	if got := rows.Close(); got != context.Canceled {
		t.Fatalf("repeated Close = %v, want the same first error", got)
	}
}
