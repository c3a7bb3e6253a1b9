package hsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
)

// awaitGoroutines polls until the goroutine count drops back to base.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryContextPreCancelled: a context already cancelled on entry
// returns context.Canceled from both front doors, the two conveniences
// over them and every Stmt verb, without planning or executing
// anything.
func TestQueryContextPreCancelled(t *testing.T) {
	db := openSample(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Prepare(ctx, sampleQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare = %v, want context.Canceled", err)
	}
	if _, err := db.QueryContext(ctx, sampleQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryContext = %v, want context.Canceled", err)
	}
	if _, err := db.StreamContext(ctx, sampleQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamContext = %v, want context.Canceled", err)
	}
	p, err := db.Plan(sampleQuery, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.PreparePlan(ctx, p, EngineMonet); !errors.Is(err, context.Canceled) {
		t.Errorf("PreparePlan = %v, want context.Canceled", err)
	}
	for door, st := range map[string]*Stmt{
		"Prepare":     prepare(t, db, sampleQuery),
		"PreparePlan": preparePlan(t, db, p, EngineMonet),
	} {
		if _, err := st.Query(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Stmt.Query = %v, want context.Canceled", door, err)
		}
		if _, err := st.Stream(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Stmt.Stream = %v, want context.Canceled", door, err)
		}
		if _, err := st.ExplainAnalyze(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Stmt.ExplainAnalyze = %v, want context.Canceled", door, err)
		}
	}
	ask := prepare(t, db, `ASK { ?j <http://purl.org/dc/terms/issued> ?yr }`)
	if _, err := ask.Ask(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stmt.Ask = %v, want context.Canceled", err)
	}
}

// TestStreamContextCancelMidStream cancels after the first row and
// verifies the stream stops with ctx's error and releases every worker
// goroutine — through both front doors, on the sequential engine, the
// morsel-parallel engine, and the RDF-3X substrate.
func TestStreamContextCancelMidStream(t *testing.T) {
	db := GenerateSP2Bench(60000, 1)
	text := sp2bench.Queries()[1].Text
	plan, err := db.Plan(text, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		engine Engine
		par    int
	}{
		{"sequential", EngineMonet, 1},
		{"parallel", EngineMonet, 4},
		{"rdf3x", EngineRDF3X, 1},
		{"rdf3x-parallel", EngineRDF3X, 4},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		for door, st := range map[string]*Stmt{
			"Prepare":     prepare(t, db, text, WithEngine(tc.engine), WithParallelism(tc.par)),
			"PreparePlan": preparePlan(t, db, plan, tc.engine, WithParallelism(tc.par)),
		} {
			t.Run(door+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rows, err := st.Stream(ctx)
				if err != nil {
					t.Fatal(err)
				}
				defer rows.Close()
				if !rows.Next() {
					t.Fatalf("no first row: %v", rows.Err())
				}
				cancel()
				for rows.Next() {
				}
				if err := rows.Err(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Err() = %v, want context.Canceled", err)
				}
			})
		}
	}
	awaitGoroutines(t, before)
}

// TestQueryContextDeadline: an expired deadline aborts materialised
// runs with context.DeadlineExceeded, through both front doors.
func TestQueryContextDeadline(t *testing.T) {
	db := openSample(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	if _, err := db.QueryContext(ctx, sampleQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryContext = %v, want context.DeadlineExceeded", err)
	}
	p, err := db.Plan(sampleQuery, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.PreparePlan(ctx, p, EngineMonet); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PreparePlan = %v, want context.DeadlineExceeded", err)
	}
	if _, err := preparePlan(t, db, p, EngineMonet).Query(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PreparePlan Stmt.Query = %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryContextMatchesQuery: the plan cache changes nothing about
// the answer — a miss and a guaranteed hit both return exactly what the
// uncached path returns, for the whole workload.
func TestQueryContextMatchesQuery(t *testing.T) {
	db := GenerateSP2Bench(25000, 1)
	ctx := context.Background()
	for _, q := range sp2bench.Queries() {
		want, err := db.QueryContext(ctx, q.Text)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		cached, err := db.QueryContext(ctx, q.Text, WithPlanCache(64))
		if err != nil {
			t.Fatalf("%s (cached): %v", q.Name, err)
		}
		if cached.String() != want.String() {
			t.Errorf("%s: cached QueryContext differs from uncached", q.Name)
		}
		// Second serve: a guaranteed cache hit must still match.
		hit, err := db.QueryContext(ctx, q.Text, WithPlanCache(64))
		if err != nil {
			t.Fatalf("%s (hit): %v", q.Name, err)
		}
		if hit.String() != want.String() {
			t.Errorf("%s: cache-hit QueryContext differs from uncached", q.Name)
		}
	}
	s := db.PlanCacheStats()
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("PlanCacheStats = %+v, want both hits and misses", s)
	}
}

// TestPlanCacheHitInExplainAnalyze: a statement prepared with
// WithPlanCache opens its EXPLAIN ANALYZE with the cache outcome of its
// Prepare — a miss first, a hit for the repeat — and keeps its
// per-operator metrics; a statement prepared without the option, or
// from a plan, prints no such line.
func TestPlanCacheHitInExplainAnalyze(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	for i, want := range []string{"plan cache: miss ", "plan cache: hit "} {
		out, err := prepare(t, db, sampleQuery, WithPlanCache(8)).ExplainAnalyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out, want) || !strings.Contains(out, " epoch=0 size=1/8\n") {
			t.Errorf("run %d should start with %q and report epoch and occupancy:\n%s", i, want, out)
		}
		if !strings.Contains(out, "rows=") || !strings.Contains(out, "time=") {
			t.Errorf("EXPLAIN ANALYZE lost its per-operator metrics:\n%s", out)
		}
	}
	plain, err := prepare(t, db, sampleQuery).ExplainAnalyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(sampleQuery, PlannerHSP)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := preparePlan(t, db, plan, EngineMonet, WithPlanCache(8)).ExplainAnalyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{plain, planned} {
		if strings.Contains(out, "plan cache:") {
			t.Errorf("plan-cache line without a cached Prepare:\n%s", out)
		}
	}
}

// TestPlanCacheEviction: a capacity-1 cache serves distinct queries
// correctly, evicting as it goes.
func TestPlanCacheEviction(t *testing.T) {
	db := GenerateSP2Bench(20000, 1)
	ctx := context.Background()
	qs := sp2bench.Queries()
	for round := 0; round < 2; round++ {
		for _, q := range qs[:3] {
			if _, err := db.QueryContext(ctx, q.Text, WithPlanCache(1)); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
	}
	s := db.PlanCacheStats()
	if s.Len != 1 || s.Cap != 1 {
		t.Errorf("Len/Cap = %d/%d, want 1/1", s.Len, s.Cap)
	}
	// Alternating three queries through a one-slot cache: every lookup
	// must miss.
	if s.Hits != 0 || s.Misses != 6 {
		t.Errorf("Hits/Misses = %d/%d, want 0/6", s.Hits, s.Misses)
	}
}

// TestPlanCacheConcurrentServing hammers one DB's cached serving path
// from many goroutines (the -race acceptance check) and verifies every
// result matches the uncached answer.
func TestPlanCacheConcurrentServing(t *testing.T) {
	db := GenerateSP2Bench(20000, 1)
	qs := sp2bench.Queries()[:4]
	want := make([]string, len(qs))
	for i, q := range qs {
		res, err := db.QueryContext(context.Background(), q.Text)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.String()
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (w + i) % len(qs)
				res, err := db.QueryContext(ctx, qs[qi].Text, WithPlanCache(8), WithParallelism(1+w%3))
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.String() != want[qi] {
					errs <- fmt.Errorf("worker %d: %s differs", w, qs[qi].Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAskPlanCache covers the ASK path through the plan cache.
func TestAskPlanCache(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	ask := `ASK { ?j <http://purl.org/dc/terms/issued> "1940" }`
	for i := 0; i < 2; i++ {
		ok, err := prepare(t, db, ask, WithPlanCache(4)).Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("Stmt.Ask = false, want true")
		}
	}
	if s := db.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("PlanCacheStats = %+v, want one miss then one hit", s)
	}
}
