// Command live demonstrates the live-dataset API: MVCC snapshots, the
// transactional update path (Update → Insert/Delete → Commit), epoch
// monotonicity, snapshot pinning of in-flight readers, and the plan
// cache across a commit: the HSP plan survives it and runs on the new
// snapshot, while a cost-based plan built from the old statistics is
// invalidated.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"github.com/sparql-hsp/hsp"
)

const data = `
<http://ex/s1> <http://ex/temp> "20C" .
<http://ex/s2> <http://ex/temp> "21C" .
`

const query = `SELECT ?s ?t WHERE { ?s <http://ex/temp> ?t }`

func main() {
	ctx := context.Background()
	db, err := hsp.OpenNTriples(strings.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d: %d triples\n", db.Epoch(), db.NumTriples())

	// A stream opened now pins the epoch-0 snapshot — whatever commits
	// later, it returns exactly the pre-commit rows.
	rows, err := db.StreamContext(ctx, query, hsp.WithPlanCache(64))
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()

	// The writer replaces every reading with a fresh one in a single
	// transaction: readers never block, the swap is atomic.
	txn, err := db.Update(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Delete(hsp.Triple{S: hsp.IRI("http://ex/s1"), P: hsp.IRI("http://ex/temp"), O: hsp.Literal("20C")}); err != nil {
		log.Fatal(err)
	}
	if err := txn.Insert(hsp.Triple{S: hsp.IRI("http://ex/s1"), P: hsp.IRI("http://ex/temp"), O: hsp.Literal("22C")}); err != nil {
		log.Fatal(err)
	}
	stats, err := txn.Commit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed epoch %d: +%d -%d (%d triples) in %v\n",
		stats.Epoch, stats.Inserted, stats.Deleted, stats.Triples, stats.Wall)

	// The pre-commit stream still sees 20C ...
	for rows.Next() {
		r := rows.Row()
		fmt.Printf("  pinned stream: %s %s\n", r["s"].Value, r["t"].Value)
	}
	if err := rows.Close(); err != nil {
		log.Fatal(err)
	}

	// ... while a fresh query (same cache!) reads epoch 1. The HSP plan
	// reads no statistics, so the cached plan is reused and runs on the
	// new snapshot: a hit, no invalidation.
	res, err := db.QueryContext(ctx, query, hsp.WithPlanCache(64))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		r := res.Row(i)
		fmt.Printf("  epoch-%d query: %s %s\n", db.Epoch(), r["s"].Value, r["t"].Value)
	}
	pcs := db.PlanCacheStats()
	fmt.Printf("plan cache: hits=%d misses=%d invalidations=%d\n", pcs.Hits, pcs.Misses, pcs.Invalidations)

	// A cost-based plan was built from epoch 1's statistics: the next
	// commit invalidates it, and the query after that re-plans.
	if _, err := db.QueryContext(ctx, query, hsp.WithPlanCache(64), hsp.WithPlanner(hsp.PlannerCDP)); err != nil {
		log.Fatal(err)
	}
	txn, err = db.Update(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if err := txn.Insert(hsp.Triple{S: hsp.IRI("http://ex/s3"), P: hsp.IRI("http://ex/temp"), O: hsp.Literal("19C")}); err != nil {
		log.Fatal(err)
	}
	if _, err := txn.Commit(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := db.QueryContext(ctx, query, hsp.WithPlanCache(64), hsp.WithPlanner(hsp.PlannerCDP)); err != nil {
		log.Fatal(err)
	}
	pcs = db.PlanCacheStats()
	fmt.Printf("after a CDP query across a commit: hits=%d misses=%d invalidations=%d\n", pcs.Hits, pcs.Misses, pcs.Invalidations)
}
