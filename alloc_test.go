package hsp

import (
	"context"
	"testing"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// raceEnabled is set by race_test.go when the race detector is on: it
// makes sync.Pool drop items at random, so allocation counts mean
// nothing.
var raceEnabled bool

// unionOrdered streams through the facade's ordered merge of two
// sorted UNION branch runs.
const unionOrdered = `
PREFIX rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc:    <http://purl.org/dc/elements/1.1/>
SELECT ?x ?t
WHERE { { ?x rdf:type bench:Article . ?x dc:title ?t }
        UNION { ?x rdf:type bench:Inproceedings . ?x dc:title ?t } }
ORDER BY ?t`

// TestStreamAllocsPerRow is the allocation regression check through the
// facade: streaming a prepared statement and decoding every row with
// Row costs a per-run set-up that does not grow with the result — the
// rows are decoded into the one map the Rows reuses, so doubling the
// dataset adds at most 0.05 allocations per extra result row (batch-
// sized growth steps below the facade, nothing per row).
func TestStreamAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop batches at random")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name, text string
		gen        func(scale int, seed int64) *DB
	}{
		{"SP2a", sp2bench.SP2a, GenerateSP2Bench},
		{"SP4a", sp2bench.SP4a, GenerateSP2Bench},
		{"Y3", yago.Y3, GenerateYAGO},
		{"Y4", yago.Y4, GenerateYAGO},
		{"UnionOrdered", unionOrdered, GenerateSP2Bench},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rows [2]int
			var allocs [2]float64
			for i, scale := range []int{30000, 60000} {
				st, err := tc.gen(scale, 1).Prepare(ctx, tc.text)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				drain := func() {
					rs, err := st.Stream(ctx)
					if err != nil {
						t.Fatal(err)
					}
					defer rs.Close()
					for rows[i] = 0; rs.Next(); rows[i]++ {
						if len(rs.Row()) == 0 {
							t.Fatal("empty row")
						}
					}
					if err := rs.Err(); err != nil {
						t.Fatal(err)
					}
				}
				allocs[i] = testing.AllocsPerRun(5, drain)
			}
			if rows[1] < rows[0]*3/2 {
				t.Fatalf("result did not grow with the dataset: %d -> %d rows", rows[0], rows[1])
			}
			marginal := (allocs[1] - allocs[0]) / float64(rows[1]-rows[0])
			t.Logf("rows %d -> %d, allocs/run %.0f -> %.0f (%.3f per extra row)", rows[0], rows[1], allocs[0], allocs[1], marginal)
			if marginal > 0.05 {
				t.Errorf("each extra result row costs %.3f allocations, want <= 0.05", marginal)
			}
		})
	}
}

// TestPrepareCacheHitAllocs pins what a plan-cache hit costs Prepare:
// a byte-identical repeat is served by the exact-text alias, so it
// parses, plans and compiles nothing and builds its cache key without
// allocating. Two allocations remain — the option fold's config and
// the statement — after a commit too, since an HSP plan outlives the
// epoch it was planned at.
func TestPrepareCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	db := openLive(t, 8)
	opts := []ExecOption{WithPlanCache(16)}
	prepare := func() {
		st, err := db.Prepare(ctx, liveQuery, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	prepare() // the miss that plans and caches
	advanceGeneration(t, db, 8, 0)
	allocs := testing.AllocsPerRun(100, prepare)
	if s := db.PlanCacheStats(); s.Misses != 1 || s.Invalidations != 0 {
		t.Fatalf("plan cache = %+v, want every repeat to hit", s)
	}
	t.Logf("cache-hit Prepare: %.1f allocations", allocs)
	if allocs > 2 {
		t.Errorf("cache-hit Prepare allocates %.1f times, want at most 2", allocs)
	}
}
