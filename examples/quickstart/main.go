// Quickstart: build a tiny RDF dataset in code, run the paper's
// Section 3 example query with the heuristic planner, and print the
// result mapping.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/sparql-hsp/hsp"
)

func main() {
	d := hsp.NewDataset()
	type spo struct{ s, p, o hsp.Term }
	rdfType := "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	for _, t := range []spo{
		{hsp.IRI("http://ex/Journal1/1940"), hsp.IRI(rdfType), hsp.IRI("http://bench/Journal")},
		{hsp.IRI("http://ex/Journal1/1940"), hsp.IRI("http://dc/title"), hsp.Literal("Journal 1 (1940)")},
		{hsp.IRI("http://ex/Journal1/1940"), hsp.IRI("http://dcterms/issued"), hsp.Literal("1940")},
		{hsp.IRI("http://ex/Journal1/1940"), hsp.IRI("http://dcterms/revised"), hsp.Literal("1942")},
		{hsp.IRI("http://ex/Journal1/1941"), hsp.IRI(rdfType), hsp.IRI("http://bench/Journal")},
		{hsp.IRI("http://ex/Journal1/1941"), hsp.IRI("http://dc/title"), hsp.Literal("Journal 1 (1941)")},
		{hsp.IRI("http://ex/Journal1/1941"), hsp.IRI("http://dcterms/issued"), hsp.Literal("1941")},
	} {
		if err := d.Add(hsp.Triple{S: t.s, P: t.p, O: t.o}); err != nil {
			log.Fatal(err)
		}
	}
	db := d.Build()

	// The example query of the paper's Section 3: the year and journal
	// titled "Journal 1 (1940)" that was revised in 1942.
	res, err := db.QueryContext(context.Background(), `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?yr ?jrnl
		WHERE { ?jrnl rdf:type <http://bench/Journal> .
		        ?jrnl <http://dc/title> "Journal 1 (1940)" .
		        ?jrnl <http://dcterms/issued> ?yr .
		        ?jrnl <http://dcterms/revised> ?rev .
		        FILTER (?rev = "1942") }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d result(s)\n", res.Len())
	for i := 0; i < res.Len(); i++ {
		row := res.Row(i)
		fmt.Printf("  ?yr = %s, ?jrnl = %s\n", row["yr"], row["jrnl"])
	}
}
