// Extensions: the features the paper lists as future work (Section 7),
// implemented on top of HSP — OPTIONAL groups, UNION branches, solution
// modifiers, and the hybrid heuristics+statistics planner.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sparql-hsp/hsp"
)

const prefixes = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs:    <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf:    <http://xmlns.com/foaf/0.1/>
PREFIX swrc:    <http://swrc.ontoware.org/ontology#>
`

func main() {
	db := hsp.GenerateSP2Bench(40000, 1)
	fmt.Printf("dataset: %d triples\n\n", db.NumTriples())

	// 1. OPTIONAL — SP²Bench Q2's real shape: inproceedings with their
	// (possibly missing) abstracts.
	fmt.Println("--- OPTIONAL: inproceedings, abstract if present ---")
	ctx := context.Background()
	res, err := db.QueryContext(ctx, prefixes+`
		SELECT ?inproc ?abstract
		WHERE {
			?inproc rdf:type bench:Inproceedings .
			?inproc dcterms:issued "1950" .
			OPTIONAL { ?inproc bench:abstract ?abstract }
		}
		ORDER BY ?inproc
		LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		abs := "—"
		if a, ok := row["abstract"]; ok {
			abs = a.Value
		}
		fmt.Printf("  %-60s %s\n", row["inproc"].Value, abs)
	}

	// 2. UNION — publications of either kind issued in 1950.
	fmt.Println("\n--- UNION: articles or inproceedings of 1950 ---")
	res, err = db.QueryContext(ctx, prefixes+`
		SELECT DISTINCT ?pub
		WHERE {
			{ ?pub rdf:type bench:Article .        ?pub dcterms:issued "1950" }
			UNION
			{ ?pub rdf:type bench:Inproceedings .  ?pub dcterms:issued "1950" }
		}`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d publications\n", res.Len())

	// 3. Hybrid planning — heuristics choose the merge structure, exact
	// statistics order the star (Section 7's proposal for the large
	// stars where pure heuristics pick a random order).
	fmt.Println("\n--- Hybrid planner on the heavy star SP2a ---")
	sp2a := prefixes + `
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
	for _, pk := range []hsp.Planner{hsp.PlannerHSP, hsp.PlannerHybrid} {
		plan, err := db.Plan(sp2a, pk)
		if err != nil {
			log.Fatal(err)
		}
		stmt, err := db.PreparePlan(ctx, plan, hsp.EngineMonet)
		if err != nil {
			log.Fatal(err)
		}
		r, err := stmt.Query(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %d merge joins, %d hash joins, %d rows\n",
			plan.Planner(), plan.MergeJoins(), plan.HashJoins(), r.Len())
	}
}
