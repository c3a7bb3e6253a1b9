// SP2Bench: generate the synthetic workload of the paper and compare
// the three planners (HSP, CDP, SQL) and two engines (monet, rdf3x) on
// selected queries — a miniature of Table 7.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/sparql-hsp/hsp"
)

// SP1, the light star query (SP²Bench Q1).
const sp1 = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr ?jrnl
WHERE { ?jrnl rdf:type bench:Journal .
        ?jrnl dc:title "Journal 1 (1940)" .
        ?jrnl dcterms:issued ?yr . }`

// SP2a, the heavy ten-pattern star (SP²Bench Q2).
const sp2a = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs:    <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf:    <http://xmlns.com/foaf/0.1/>
PREFIX swrc:    <http://swrc.ontoware.org/ontology#>
SELECT ?inproc
WHERE { ?inproc rdf:type bench:Inproceedings .
        ?inproc dc:creator ?author .
        ?inproc bench:booktitle ?booktitle .
        ?inproc dc:title ?title .
        ?inproc dcterms:partOf ?proc .
        ?inproc rdfs:seeAlso ?ee .
        ?inproc swrc:pages ?page .
        ?inproc foaf:homepage ?url .
        ?inproc dcterms:issued ?yr .
        ?inproc bench:abstract ?abstract . }`

func main() {
	fmt.Println("generating SP2Bench-shaped data (~100k triples)...")
	db := hsp.GenerateSP2Bench(100000, 1)
	fmt.Printf("loaded %d triples\n\n", db.NumTriples())

	ctx := context.Background()
	for _, q := range []struct{ name, text string }{{"SP1", sp1}, {"SP2a", sp2a}} {
		fmt.Printf("=== %s ===\n", q.name)
		for _, pk := range []hsp.Planner{hsp.PlannerHSP, hsp.PlannerCDP, hsp.PlannerSQL} {
			plan, err := db.Plan(q.text, pk)
			if err != nil {
				log.Fatalf("%s/%s: %v", q.name, pk, err)
			}
			engine := hsp.EngineMonet
			if pk == hsp.PlannerCDP {
				engine = hsp.EngineRDF3X // CDP is RDF-3X's planner
			}
			start := time.Now()
			stmt, err := db.PreparePlan(ctx, plan, engine)
			if err != nil {
				log.Fatalf("%s/%s: %v", q.name, pk, err)
			}
			res, err := stmt.Query(ctx)
			if err != nil {
				log.Fatalf("%s/%s: %v", q.name, pk, err)
			}
			fmt.Printf("%-4s on %-6s %2d mj %2d hj %-2s plan  %6d rows  %8v\n",
				pk, engine, plan.MergeJoins(), plan.HashJoins(), plan.Shape(),
				res.Len(), time.Since(start).Round(10*time.Microsecond))
		}
		fmt.Println()
	}
}
