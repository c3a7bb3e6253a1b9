// Streaming: pull query results row by row instead of materialising
// them, run the executor with concurrent workers, and profile the plan
// operator by operator with EXPLAIN ANALYZE.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sparql-hsp/hsp"
)

const query = `
PREFIX rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc:    <http://purl.org/dc/elements/1.1/>
SELECT ?article ?name
WHERE { ?article rdf:type bench:Article .
        ?article dc:creator ?person .
        ?person <http://xmlns.com/foaf/0.1/name> ?name . }`

func main() {
	db := hsp.GenerateSP2Bench(100000, 1)
	fmt.Printf("dataset: %d triples\n\n", db.NumTriples())

	// Stream with four workers: hash-join build sides run concurrently
	// and large build scans are split into morsels. Rows arrive one at
	// a time; the full result never has to fit in memory.
	ctx := context.Background()
	rows, err := db.StreamContext(ctx, query, hsp.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	n := 0
	for rows.Next() {
		if n < 5 {
			row := rows.Row()
			fmt.Printf("  %s  %s\n", row["article"].Value, row["name"].Value)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ... %d rows total\n\n", n)

	// EXPLAIN ANALYZE: the operator tree annotated with observed row
	// counts, wall times and hash-join build sizes.
	plan, err := db.Plan(query, hsp.PlannerHSP)
	if err != nil {
		log.Fatal(err)
	}
	stmt, err := db.PreparePlan(ctx, plan, hsp.EngineMonet, hsp.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	out, err := stmt.ExplainAnalyze(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EXPLAIN ANALYZE:")
	fmt.Print(out)
}
