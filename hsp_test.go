package hsp

import (
	"context"
	"strings"
	"testing"
)

const sampleNT = `
<http://ex/j1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/j1> <http://purl.org/dc/elements/1.1/title> "Journal 1 (1940)" .
<http://ex/j1> <http://purl.org/dc/terms/issued> "1940" .
<http://ex/j2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/j2> <http://purl.org/dc/elements/1.1/title> "Journal 1 (1941)" .
<http://ex/j2> <http://purl.org/dc/terms/issued> "1941" .
`

const sampleQuery = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr ?jrnl
WHERE { ?jrnl rdf:type <http://bench/Journal> .
        ?jrnl dc:title "Journal 1 (1940)" .
        ?jrnl dcterms:issued ?yr . }`

func openSample(t *testing.T) *DB {
	t.Helper()
	db, err := OpenNTriples(strings.NewReader(sampleNT))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// prepare prepares a query text, failing the test on error.
func prepare(t testing.TB, db *DB, q string, opts ...ExecOption) *Stmt {
	t.Helper()
	st, err := db.Prepare(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// preparePlan wraps a plan as a statement, failing the test on error.
func preparePlan(t testing.TB, db *DB, p *Plan, e Engine, opts ...ExecOption) *Stmt {
	t.Helper()
	st, err := db.PreparePlan(context.Background(), p, e, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestQueryEndToEnd(t *testing.T) {
	db := openSample(t)
	if db.NumTriples() != 6 {
		t.Fatalf("NumTriples = %d", db.NumTriples())
	}
	res, err := db.QueryContext(context.Background(), sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s", res.Len(), res)
	}
	row := res.Row(0)
	if row["yr"] != Literal("1940") || row["jrnl"] != IRI("http://ex/j1") {
		t.Errorf("row = %v", row)
	}
	if vars := res.Vars(); len(vars) != 2 || vars[0] != "yr" {
		t.Errorf("vars = %v", vars)
	}
}

func TestAllPlannersAllEngines(t *testing.T) {
	db := openSample(t)
	want := ""
	for _, p := range []Planner{PlannerHSP, PlannerCDP, PlannerSQL} {
		plan, err := db.Plan(sampleQuery, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if plan.Planner() == "" || plan.String() == "" {
			t.Errorf("%s: empty plan metadata", p)
		}
		for _, e := range []Engine{EngineMonet, EngineRDF3X} {
			res, err := preparePlan(t, db, plan, e).Query(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", p, e, err)
			}
			if want == "" {
				want = res.String()
			} else if res.String() != want {
				t.Errorf("%s/%s result differs:\n%s\nvs\n%s", p, e, res.String(), want)
			}
		}
	}
}

func TestPlanIntrospection(t *testing.T) {
	db := openSample(t)
	plan, err := db.Plan(sampleQuery, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MergeJoins() != 2 || plan.HashJoins() != 0 {
		t.Errorf("joins = %d/%d, want 2/0", plan.MergeJoins(), plan.HashJoins())
	}
	if plan.Shape() != "LD" {
		t.Errorf("shape = %q", plan.Shape())
	}
	if plan.HasCartesianProduct() {
		t.Error("unexpected Cartesian product")
	}
	mv := plan.MergeVariables()
	if len(mv) != 1 || len(mv[0]) != 1 || mv[0][0] != "jrnl" {
		t.Errorf("merge variables = %v", mv)
	}
	if vg := plan.VariableGraph(); len(vg) != 1 || !strings.Contains(vg[0], "?jrnl(3)") {
		t.Errorf("variable graph = %v", vg)
	}
}

func TestExplain(t *testing.T) {
	db := openSample(t)
	plan, err := db.Plan(sampleQuery, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainContext(context.Background(), plan, EngineMonet)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "⋈mj ?jrnl") || !strings.Contains(out, "(1)") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestDatasetBuilder(t *testing.T) {
	d := NewDataset()
	if err := d.Add(Triple{IRI("http://s"), IRI("http://p"), Literal("x")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(Triple{Literal("bad"), IRI("http://p"), Literal("x")}); err == nil {
		t.Error("literal subject accepted")
	}
	if err := d.Add(Triple{IRI("http://s"), IRI(""), Literal("x")}); err == nil {
		t.Error("empty predicate accepted")
	}
	db := d.Build()
	if db.NumTriples() != 1 {
		t.Errorf("NumTriples = %d", db.NumTriples())
	}
}

func TestGenerators(t *testing.T) {
	sp := GenerateSP2Bench(1000, 1)
	if sp.NumTriples() < 400 {
		t.Errorf("sp2bench triples = %d", sp.NumTriples())
	}
	yg := GenerateYAGO(1000, 1)
	if yg.NumTriples() < 400 {
		t.Errorf("yago triples = %d", yg.NumTriples())
	}
}

func TestErrorPaths(t *testing.T) {
	db := openSample(t)
	if _, err := db.Plan("not a query", PlannerHSP); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := db.Plan(sampleQuery, "nope"); err == nil {
		t.Error("unknown planner accepted")
	}
	plan, _ := db.Plan(sampleQuery, PlannerHSP)
	if _, err := db.PreparePlan(context.Background(), plan, "nope"); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := OpenNTriples(strings.NewReader("garbage")); err == nil {
		t.Error("bad N-Triples accepted")
	}
	if _, err := OpenNTriplesFile("/no/such/file.nt"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTermConstructors(t *testing.T) {
	if IRI("http://a").String() != "<http://a>" {
		t.Error("IRI rendering")
	}
	if Literal("x").String() != `"x"` {
		t.Error("literal rendering")
	}
	if Blank("b").String() != "_:b" {
		t.Error("blank rendering")
	}
}
