// Explain: walk through HSP's planning decisions on the paper's
// Section 3 example — the variable graph (Figure 1), the chosen
// maximum-weight independent set, the access-path assignments of
// Algorithm 2, and the final operator tree with observed cardinalities.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sparql-hsp/hsp"
)

const query = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr ?jrnl
WHERE { ?jrnl rdf:type bench:Journal .
        ?jrnl dc:title "Journal 1 (1940)" .
        ?jrnl dcterms:issued ?yr .
        ?jrnl dcterms:revised ?rev . }`

func main() {
	// A small SP²Bench-shaped dataset gives the example real rows.
	db := hsp.GenerateSP2Bench(20000, 1)
	fmt.Printf("dataset: %d triples\n\n", db.NumTriples())

	plan, err := db.Plan(query, hsp.PlannerHSP)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Variable graph per Algorithm 1 round (Figure 1):")
	for i, g := range plan.VariableGraph() {
		fmt.Printf("  round %d: %s\n", i, g)
	}
	fmt.Println("\nMerge variables chosen per round (maximum-weight independent sets):")
	for i, round := range plan.MergeVariables() {
		fmt.Printf("  round %d: %v\n", i, round)
	}
	fmt.Printf("\nPlan: %d merge joins, %d hash joins, shape %s\n\n",
		plan.MergeJoins(), plan.HashJoins(), plan.Shape())

	tree, err := db.ExplainContext(context.Background(), plan, hsp.EngineMonet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Operator tree with observed cardinalities:")
	fmt.Print(tree)
}
