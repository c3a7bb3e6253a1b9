package hsp

import (
	"context"
	"maps"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// rowsMultiset renders a result/stream row as a canonical line so the
// two paths compare order-insensitively.
func rowLine(row map[string]Term) string {
	var parts []string
	for v, t := range row {
		parts = append(parts, v+"="+t.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, "\t")
}

func materialisedLines(t *testing.T, res *Result) []string {
	t.Helper()
	var out []string
	for i := 0; i < res.Len(); i++ {
		out = append(out, rowLine(res.Row(i)))
	}
	sort.Strings(out)
	return out
}

func streamedLines(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, rowLine(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestStreamMatchesQuerySuites is the public acceptance check:
// StreamContext returns the same row multiset as QueryContext for every query
// of the SP2Bench and YAGO suites, sequentially and in parallel.
func TestStreamMatchesQuerySuites(t *testing.T) {
	type suite struct {
		name    string
		db      *DB
		queries []struct{ Name, Text string }
	}
	suites := []suite{
		{"sp2bench", GenerateSP2Bench(25000, 1), sp2bench.Queries()},
		{"yago", GenerateYAGO(15000, 1), yago.Queries()},
	}
	for _, s := range suites {
		for _, q := range s.queries {
			t.Run(s.name+"/"+q.Name, func(t *testing.T) {
				res, err := s.db.QueryContext(context.Background(), q.Text)
				if err != nil {
					t.Fatal(err)
				}
				want := materialisedLines(t, res)

				rows, err := s.db.StreamContext(context.Background(), q.Text)
				if err != nil {
					t.Fatal(err)
				}
				if got := streamedLines(t, rows); !equalLines(got, want) {
					t.Errorf("streamed rows differ from materialised (%d vs %d rows)", len(got), len(want))
				}

				rows, err = s.db.StreamContext(context.Background(), q.Text, WithParallelism(4))
				if err != nil {
					t.Fatal(err)
				}
				if got := streamedLines(t, rows); !equalLines(got, want) {
					t.Errorf("parallel streamed rows differ from materialised (%d vs %d rows)", len(got), len(want))
				}
			})
		}
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStreamPlanAllPlannersEngines streams one query through every
// planner/engine pair.
func TestStreamPlanAllPlannersEngines(t *testing.T) {
	db := GenerateSP2Bench(20000, 1)
	text := sp2bench.Queries()[1].Text
	var want []string
	for _, pl := range []Planner{PlannerHSP, PlannerCDP, PlannerSQL, PlannerHybrid} {
		p, err := db.Plan(text, pl)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []Engine{EngineMonet, EngineRDF3X} {
			rows, err := preparePlan(t, db, p, e, WithParallelism(3)).Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := streamedLines(t, rows)
			if want == nil {
				want = got
				if len(want) == 0 {
					t.Fatal("query returned no rows; fixture too small")
				}
			} else if !equalLines(got, want) {
				t.Errorf("%s/%s: rows differ", pl, e)
			}
		}
	}
}

// TestStreamModifiers checks DISTINCT, UNION, ORDER BY, OFFSET and
// LIMIT behave identically on both paths.
func TestStreamModifiers(t *testing.T) {
	db := openSample(t)
	queries := []string{
		`SELECT DISTINCT ?t WHERE { ?j <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t }`,
		`SELECT ?j WHERE { { ?j <http://purl.org/dc/terms/issued> "1940" } UNION { ?j <http://purl.org/dc/terms/issued> "1941" } }`,
		`SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr } ORDER BY DESC(?yr)`,
		`SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr } ORDER BY ?yr LIMIT 1`,
		`SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr } LIMIT 1`,
		`SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr } OFFSET 1`,
	}
	for _, text := range queries {
		p, err := db.Plan(text, PlannerHSP)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		res, err := preparePlan(t, db, p, EngineMonet).Query(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := preparePlan(t, db, p, EngineMonet).Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := streamedLines(t, rows)
		want := materialisedLines(t, res)
		if !equalLines(got, want) {
			t.Errorf("%s:\nstream: %v\nmaterialised: %v", text, got, want)
		}
	}
}

// TestStreamEarlyCloseNoLeak abandons parallel streams after one row
// and verifies no goroutine outlives Close.
func TestStreamEarlyCloseNoLeak(t *testing.T) {
	db := GenerateSP2Bench(60000, 1)
	text := sp2bench.Queries()[1].Text
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		rows, err := db.StreamContext(context.Background(), text, WithParallelism(4))
		if err != nil {
			t.Fatal(err)
		}
		rows.Next()
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if rows.Next() {
			t.Fatal("Next returned true after Close")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExplainAnalyzeFacade checks EXPLAIN ANALYZE renders per-operator
// row counts and timings for all three planners.
func TestExplainAnalyzeFacade(t *testing.T) {
	db := GenerateSP2Bench(20000, 1)
	text := sp2bench.Queries()[1].Text
	for _, pl := range []Planner{PlannerHSP, PlannerCDP, PlannerSQL} {
		p, err := db.Plan(text, pl)
		if err != nil {
			t.Fatal(err)
		}
		out, err := preparePlan(t, db, p, EngineMonet, WithParallelism(2)).ExplainAnalyze(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		for _, frag := range []string{"rows=", "time=", "planner=", "parallelism=2"} {
			if !strings.Contains(out, frag) {
				t.Errorf("%s: EXPLAIN ANALYZE missing %q:\n%s", pl, frag, out)
			}
		}
	}
}

// TestStreamVarsAndReuse covers Vars and iterating a fresh stream after
// one is exhausted.
func TestStreamVarsAndReuse(t *testing.T) {
	db := openSample(t)
	rows, err := db.StreamContext(context.Background(), sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if vars := rows.Vars(); len(vars) != 2 || vars[0] != "yr" || vars[1] != "jrnl" {
		t.Errorf("Vars = %v", vars)
	}
	n := 0
	for rows.Next() {
		if rows.Row()["yr"] != Literal("1940") {
			t.Errorf("row = %v", rows.Row())
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
	res, err := db.QueryContext(context.Background(), sampleQuery, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("materialised rows = %d, want 1", res.Len())
	}
}

// TestRowReusedAcrossOptionalRows: Row and Values hand out storage the
// Rows reuses from row to row, so a variable an OPTIONAL leaves unbound
// in row n+1 must be absent from the map (and zero in Values) even
// though row n bound it — and a row kept with maps.Clone must survive
// the rows after it.
func TestRowReusedAcrossOptionalRows(t *testing.T) {
	db := GenerateSP2Bench(3000, 1)
	const q = `
PREFIX rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX swrc:  <http://swrc.ontoware.org/ontology#>
SELECT ?a ?m
WHERE { ?a rdf:type bench:Article . OPTIONAL { ?a swrc:month ?m } }`
	res, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.StreamContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if rows.Row() != nil || rows.Values() != nil {
		t.Errorf("a row before the first Next: %v / %v", rows.Row(), rows.Values())
	}
	var kept []map[string]Term
	var reused map[string]Term
	wasBound, dropped := false, 0
	for rows.Next() {
		vals, row := rows.Values(), rows.Row()
		if reused != nil && reflect.ValueOf(row).Pointer() != reflect.ValueOf(reused).Pointer() {
			t.Fatal("Row returned a fresh map instead of the reused one")
		}
		reused = row
		m, bound := row["m"]
		if bound != (vals[1] != Term{}) || m != vals[1] || row["a"] != vals[0] {
			t.Fatalf("row %d: Row() = %v disagrees with Values() = %v", len(kept), row, vals)
		}
		if !bound && len(row) != 1 {
			t.Fatalf("row %d: unbound ?m left a stale entry: %v", len(kept), row)
		}
		if wasBound && !bound {
			dropped++
		}
		wasBound = bound
		kept = append(kept, maps.Clone(row))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("fixture never follows a row binding ?m with one that does not")
	}
	if rows.Row() != nil || rows.Values() != nil {
		t.Errorf("a row after the stream ended: %v / %v", rows.Row(), rows.Values())
	}
	var got []string
	for _, row := range kept {
		got = append(got, rowLine(row))
	}
	sort.Strings(got)
	if want := materialisedLines(t, res); !reflect.DeepEqual(got, want) {
		t.Errorf("cloned rows differ from the materialised result:\ngot  %v\nwant %v", got, want)
	}
}
