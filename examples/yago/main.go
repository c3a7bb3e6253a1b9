// YAGO: reproduce the paper's Figures 2 and 3 — the HSP plan for query
// Y3 (bushy, two merge blocks joined by one hash join) and the HSP vs
// CDP plans for query Y2 (left-deep merge chain on ?a vs a bushy plan).
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sparql-hsp/hsp"
)

const prefixes = `
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX y:   <http://yago/>
PREFIX wn:  <http://wordnet/>
`

// Y3 exactly as printed in Table 5 of the paper.
const y3 = prefixes + `
SELECT ?p
WHERE { ?p ?ss ?c1 .
        ?p ?dd ?c2 .
        ?c1 rdf:type wn:wordnet_village .
        ?c1 y:locatedIn ?X .
        ?c2 rdf:type wn:wordnet_site .
        ?c2 y:locatedIn ?Y . }`

// Y2 exactly as printed in Table 9 of the paper.
const y2 = prefixes + `
SELECT ?a
WHERE { ?a rdf:type wn:wordnet_actor .
        ?a y:livesIn ?city .
        ?a y:actedIn ?m1 .
        ?m1 rdf:type wn:wordnet_movie .
        ?a y:directed ?m2 .
        ?m2 rdf:type wn:wordnet_movie . }`

func main() {
	fmt.Println("generating YAGO-shaped data (~60k triples)...")
	db := hsp.GenerateYAGO(60000, 1)
	fmt.Printf("loaded %d triples\n\n", db.NumTriples())

	fmt.Println("--- Figure 2: HSP plan for Y3 ---")
	p3, err := db.Plan(y3, hsp.PlannerHSP)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	tree, err := db.ExplainContext(ctx, p3, hsp.EngineMonet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)
	fmt.Printf("(%d merge joins, %d hash joins, %s — the paper reports 4/1/B)\n\n",
		p3.MergeJoins(), p3.HashJoins(), p3.Shape())

	fmt.Println("--- Figure 3(a): HSP plan for Y2 ---")
	ph, err := db.Plan(y2, hsp.PlannerHSP)
	if err != nil {
		log.Fatal(err)
	}
	tree, err = db.ExplainContext(ctx, ph, hsp.EngineMonet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)
	fmt.Printf("(merge variables per round: %v)\n\n", ph.MergeVariables())

	fmt.Println("--- Figure 3(b): CDP plan for Y2 ---")
	pc, err := db.Plan(y2, hsp.PlannerCDP)
	if err != nil {
		log.Fatal(err)
	}
	tree, err = db.ExplainContext(ctx, pc, hsp.EngineRDF3X)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree)
	fmt.Printf("(both plans: HSP %d/%d %s, CDP %d/%d %s — Table 4 reports 3/2 for both)\n",
		ph.MergeJoins(), ph.HashJoins(), ph.Shape(),
		pc.MergeJoins(), pc.HashJoins(), pc.Shape())
}
