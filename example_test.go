package hsp_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/sparql-hsp/hsp"
)

const exampleData = `
<http://ex/Journal1/1940> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/Journal1/1940> <http://purl.org/dc/elements/1.1/title> "Journal 1 (1940)" .
<http://ex/Journal1/1940> <http://purl.org/dc/terms/issued> "1940" .
<http://ex/Journal1/1941> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/Journal1/1941> <http://purl.org/dc/elements/1.1/title> "Journal 1 (1941)" .
<http://ex/Journal1/1941> <http://purl.org/dc/terms/issued> "1941" .
`

// The paper's Section 3 example: which year was "Journal 1 (1940)" issued?
func ExampleStmt_Query() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	stmt, err := db.Prepare(ctx, `
		PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?yr
		WHERE { ?jrnl rdf:type <http://bench/Journal> .
		        ?jrnl dc:title "Journal 1 (1940)" .
		        ?jrnl dcterms:issued ?yr . }`)
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	res, err := stmt.Query(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Row(0)["yr"].Value)
	// Output: 1940
}

// Plans expose the Table 4 metrics: merge joins, hash joins and shape.
func ExampleDB_Plan() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(`
		PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?yr
		WHERE { ?jrnl rdf:type <http://bench/Journal> .
		        ?jrnl dc:title "Journal 1 (1940)" .
		        ?jrnl dcterms:issued ?yr . }`, hsp.PlannerHSP)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d merge joins, %d hash joins, %s\n",
		plan.MergeJoins(), plan.HashJoins(), plan.Shape())
	fmt.Printf("merge variables: %v\n", plan.MergeVariables())
	// Output:
	// 2 merge joins, 0 hash joins, LD
	// merge variables: [[jrnl]]
}

// The same plan can run on either substrate.
func ExampleDB_PreparePlan() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(`
		SELECT ?t WHERE { ?j <http://purl.org/dc/elements/1.1/title> ?t } ORDER BY ?t`, hsp.PlannerCDP)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, engine := range []hsp.Engine{hsp.EngineMonet, hsp.EngineRDF3X} {
		stmt, err := db.PreparePlan(ctx, plan, engine)
		if err != nil {
			log.Fatal(err)
		}
		res, err := stmt.Query(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d rows, first %s\n", engine, res.Len(), res.Row(0)["t"].Value)
	}
	// Output:
	// monet: 2 rows, first Journal 1 (1940)
	// rdf3x: 2 rows, first Journal 1 (1940)
}

// Serving path: QueryContext bounds a query with a caller context, so
// deadlines and client disconnects abort runs mid-pipeline. A context
// already cancelled on entry fails fast without planning or executing.
func ExampleDB_QueryContext() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, err := db.QueryContext(ctx, `
		SELECT ?yr WHERE { ?j <http://purl.org/dc/elements/1.1/title> "Journal 1 (1940)" .
		                   ?j <http://purl.org/dc/terms/issued> ?yr . }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Row(0)["yr"].Value)

	gone, disconnect := context.WithCancel(context.Background())
	disconnect() // the client hung up before the query arrived
	_, err = db.QueryContext(gone, `SELECT ?t WHERE { ?j <http://purl.org/dc/elements/1.1/title> ?t }`)
	fmt.Println(err)
	// Output:
	// 1940
	// context canceled
}

// Cancelling a stream's context mid-iteration stops it at the next
// pull point: Next returns false, Err reports the context's error, and
// every worker goroutine of a parallel run exits.
func ExampleDB_StreamContext() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.StreamContext(ctx, `SELECT ?t WHERE { ?j <http://purl.org/dc/elements/1.1/title> ?t }`)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	rows.Next() // first row delivered
	cancel()    // client disconnects mid-stream
	for rows.Next() {
	}
	fmt.Println(rows.Err())
	// Output:
	// context canceled
}

// Prepared statements plan once and bind many: $title is planned as an
// unbound-but-typed constant, and each execution substitutes its bound
// value into the compiled plan at run time.
func ExampleDB_Prepare() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	stmt, err := db.Prepare(ctx, `
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`)
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	for _, title := range []string{"Journal 1 (1940)", "Journal 1 (1941)"} {
		res, err := stmt.Query(ctx, hsp.Bind("title", hsp.Literal(title)))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(title, "->", res.Row(0)["yr"].Value)
	}
	// Output:
	// Journal 1 (1940) -> 1940
	// Journal 1 (1941) -> 1941
}

// With a plan cache, repeated queries skip parsing, planning and
// compilation: only the first request misses.
func ExampleDB_QueryContext_planCache() {
	db, err := hsp.OpenNTriples(strings.NewReader(exampleData))
	if err != nil {
		log.Fatal(err)
	}
	query := `SELECT ?yr WHERE { ?j <http://purl.org/dc/terms/issued> ?yr }`
	for i := 0; i < 3; i++ {
		if _, err := db.QueryContext(context.Background(), query, hsp.WithPlanCache(128)); err != nil {
			log.Fatal(err)
		}
	}
	s := db.PlanCacheStats()
	fmt.Printf("hits=%d misses=%d cached=%d\n", s.Hits, s.Misses, s.Len)
	// Output:
	// hits=2 misses=1 cached=1
}
