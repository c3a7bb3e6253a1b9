// Live-dataset tests: MVCC snapshot isolation, the transactional
// update path, epoch-keyed plan-cache invalidation, and concurrent
// readers under a committing writer. Run with -race.

package hsp

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// liveTriple builds the marker triple of one (subject, generation).
func liveTriple(i int, gen int) Triple {
	return Triple{
		S: IRI(fmt.Sprintf("http://live/s%d", i)),
		P: IRI("http://live/p"),
		O: Literal(fmt.Sprintf("gen%d", gen)),
	}
}

// openLive builds a DB whose <http://live/p> triples are at generation
// 0: every subject s0..sN-1 carries exactly one object "gen0".
func openLive(t testing.TB, n int) *DB {
	t.Helper()
	d := NewDataset()
	for i := 0; i < n; i++ {
		if err := d.Add(liveTriple(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return d.Build()
}

// advanceGeneration commits one transaction moving every subject from
// generation gen to gen+1 (delete the old object, insert the new one).
func advanceGeneration(t testing.TB, db *DB, n, gen int) CommitStats {
	t.Helper()
	txn, err := db.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := txn.Delete(liveTriple(i, gen)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Insert(liveTriple(i, gen+1)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := txn.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

const liveQuery = `SELECT ?s ?o WHERE { ?s <http://live/p> ?o }`

// TestLiveSnapshotIsolation is the PR's acceptance scenario: a result
// stream opened before Commit returns exactly the pre-commit
// snapshot's rows while a post-commit Query on the same DB sees the
// new data — concurrently, under -race.
func TestLiveSnapshotIsolation(t *testing.T) {
	const n = 32
	db := openLive(t, n)

	rows, err := db.Stream(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	// Pull one row before the commit so the run is genuinely open.
	if !rows.Next() {
		t.Fatalf("empty pre-commit stream: %v", rows.Err())
	}

	cs := advanceGeneration(t, db, n, 0)
	if cs.Epoch != 1 || cs.Inserted != n || cs.Deleted != n {
		t.Fatalf("commit stats = %+v", cs)
	}
	if db.Epoch() != 1 {
		t.Fatalf("db.Epoch() = %d, want 1", db.Epoch())
	}

	// The open stream keeps serving the pre-commit snapshot.
	count := 1
	for {
		if got := rows.Row()["o"]; got != Literal("gen0") {
			t.Fatalf("pre-commit stream saw %v", got)
		}
		if !rows.Next() {
			break
		}
		count++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("pre-commit stream yielded %d rows, want %d", count, n)
	}

	// A fresh query sees the new epoch's data.
	res, err := db.Query(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != n {
		t.Fatalf("post-commit rows = %d, want %d", res.Len(), n)
	}
	for i := 0; i < res.Len(); i++ {
		if got := res.Row(i)["o"]; got != Literal("gen1") {
			t.Fatalf("post-commit query saw %v", got)
		}
	}
}

// TestLivePlanCacheEpochMismatch: what a commit does to a cached plan
// depends on whether its planner read the data. An HSP plan is a
// function of the query text alone, so the commit invalidates nothing
// and the post-commit query is a hit that reads the new snapshot. A
// plan built from statistics (CDP, SQL, hybrid) is never served after
// a commit: the stale entry is invalidated (PlanCacheStats.
// Invalidations) and the re-planned query returns the new snapshot's
// data.
func TestLivePlanCacheEpochMismatch(t *testing.T) {
	const n = 8
	// query runs liveQuery through the cache and checks it sees gen.
	query := func(t *testing.T, db *DB, opts []ExecOption, gen string) {
		t.Helper()
		res, err := db.Query(liveQuery, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != n {
			t.Fatalf("%d rows, want %d", res.Len(), n)
		}
		for i := 0; i < res.Len(); i++ {
			if got := res.Row(i)["o"]; got != Literal(gen) {
				t.Fatalf("cached query saw row %v, want %s", got, gen)
			}
		}
	}
	// explain checks the EXPLAIN ANALYZE cache line and run summary.
	explain := func(t *testing.T, db *DB, opts []ExecOption, frags ...string) {
		t.Helper()
		out, err := db.ExplainAnalyzeQuery(context.Background(), liveQuery, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range frags {
			if !strings.Contains(out, frag) {
				t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", frag, out)
			}
		}
	}

	t.Run("hsp", func(t *testing.T) {
		db := openLive(t, n)
		opts := []ExecOption{WithPlanCache(16)}
		for i := 0; i < 2; i++ { // miss then hit
			query(t, db, opts, "gen0")
		}
		advanceGeneration(t, db, n, 0)
		query(t, db, opts, "gen1")
		s := db.PlanCacheStats()
		if s.Invalidations != 0 || s.Misses != 1 || s.Hits != 2 {
			t.Fatalf("stats = %+v, want 2 hits, 1 miss, no invalidation", s)
		}
		// The cache line reports the hit and the epoch served; the run
		// summary shows the cached plan ran on the new snapshot.
		explain(t, db, opts, "plan cache: hit", "invalidations=0 epoch=1", "parallelism=1 epoch=1")
	})

	for _, p := range []Planner{PlannerCDP, PlannerSQL, PlannerHybrid} {
		t.Run(string(p), func(t *testing.T) {
			db := openLive(t, n)
			opts := []ExecOption{WithPlanCache(16), WithPlanner(p)}
			for i := 0; i < 2; i++ { // miss then hit
				query(t, db, opts, "gen0")
			}
			if s := db.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 || s.Invalidations != 0 {
				t.Fatalf("pre-commit stats = %+v", s)
			}
			advanceGeneration(t, db, n, 0)
			query(t, db, opts, "gen1")
			s := db.PlanCacheStats()
			if s.Invalidations != 1 {
				t.Fatalf("Invalidations = %d, want 1", s.Invalidations)
			}
			if s.Misses != 2 {
				t.Fatalf("Misses = %d, want 2 (stale lookup re-plans)", s.Misses)
			}
			// The re-planned entry serves hits again at the new epoch.
			explain(t, db, opts, "plan cache: hit", "invalidations=1", "epoch=1")
		})
	}
}

// TestLivePlanCacheNewConstant: a cached HSP plan naming constants the
// dictionary does not hold keeps them as terms, not as "matches
// nothing". Once a commit introduces them, the next Prepare — a cache
// hit — returns the new row, on every engine and parallelism; a
// statement prepared before the commit keeps its pinned empty answer.
func TestLivePlanCacheNewConstant(t *testing.T) {
	const q = `SELECT ?s ?o WHERE { ?s <http://live/p> ?o . ?s <http://live/tag> <http://live/hot> }`
	ctx := context.Background()
	for _, engine := range []Engine{EngineMonet, EngineRDF3X} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("engine=%s/parallelism=%d", engine, par), func(t *testing.T) {
				db := openLive(t, 4)
				opts := []ExecOption{WithPlanCache(8), WithEngine(engine), WithParallelism(par)}
				before, err := db.Prepare(ctx, q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer before.Close()
				if res, err := before.Query(ctx); err != nil || res.Len() != 0 {
					t.Fatalf("pre-commit answer = %v, %v; want no rows", res, err)
				}

				txn, err := db.Update(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := txn.Insert(Triple{S: IRI("http://live/s1"), P: IRI("http://live/tag"), O: IRI("http://live/hot")}); err != nil {
					t.Fatal(err)
				}
				if _, err := txn.Commit(ctx); err != nil {
					t.Fatal(err)
				}

				after, err := db.Prepare(ctx, q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer after.Close()
				if s := db.PlanCacheStats(); s.Hits != 1 || s.Misses != 1 {
					t.Fatalf("post-commit Prepare was not a cache hit: %+v", s)
				}
				res, err := after.Query(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if res.Len() != 1 || res.Row(0)["s"] != IRI("http://live/s1") || res.Row(0)["o"] != Literal("gen0") {
					t.Fatalf("post-commit answer = %v, want the new row", res)
				}
				if res, err := before.Query(ctx); err != nil || res.Len() != 0 {
					t.Fatalf("pinned pre-commit statement = %v, %v; want no rows", res, err)
				}
			})
		}
	}
}

// TestLiveStmtPinsSnapshot: a statement prepared before a commit keeps
// reading its snapshot; re-preparing picks up the new epoch.
func TestLiveStmtPinsSnapshot(t *testing.T) {
	const n = 4
	db := openLive(t, n)
	ctx := context.Background()

	st, err := db.Prepare(ctx, liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Epoch() != 0 {
		t.Fatalf("Stmt.Epoch = %d, want 0", st.Epoch())
	}

	advanceGeneration(t, db, n, 0)

	res, err := st.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		if got := res.Row(i)["o"]; got != Literal("gen0") {
			t.Fatalf("pinned statement saw post-commit row %v", got)
		}
	}

	st2, err := db.Prepare(ctx, liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Epoch() != 1 {
		t.Fatalf("re-prepared Stmt.Epoch = %d, want 1", st2.Epoch())
	}
	res2, err := st2.Query(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Row(0)["o"]; got != Literal("gen1") {
		t.Fatalf("re-prepared statement saw %v", got)
	}
}

// TestLiveConcurrentReadersWriter is the core race test: concurrent
// readers (streamed and materialised, sequential and morsel-parallel
// engines) prepare through the plan cache and each must observe
// exactly its pinned epoch's data — all n subjects, every object from
// the generation the statement's epoch committed — while a writer
// commits generation after generation. The readers' HSP plans are
// shared across every epoch: the cache invalidates nothing.
func TestLiveConcurrentReadersWriter(t *testing.T) {
	const (
		n       = 24
		gens    = 6
		readers = 8
	)
	ctx := context.Background()
	for _, engine := range []Engine{EngineMonet, EngineRDF3X} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("engine=%s/parallelism=%d", engine, par), func(t *testing.T) {
				db := openLive(t, n)
				if engine == EngineRDF3X {
					// Build the epoch-0 index set before racing.
					if _, err := db.Query(liveQuery, WithEngine(engine)); err != nil {
						t.Fatal(err)
					}
				}
				before := runtime.NumGoroutine()
				opts := []ExecOption{WithEngine(engine), WithParallelism(par), WithPlanCache(8)}

				var wg sync.WaitGroup
				errs := make(chan error, readers*2+1)
				stop := make(chan struct{})

				// Epoch e is generation e: every commit advances both.
				checkRows := func(kind string, epoch uint64, rows []map[string]Term) error {
					if len(rows) != n {
						return fmt.Errorf("%s: %d rows, want %d", kind, len(rows), n)
					}
					want := Literal(fmt.Sprintf("gen%d", epoch))
					for _, r := range rows {
						if r["o"] != want {
							return fmt.Errorf("%s pinned to epoch %d: saw %v, want %v", kind, epoch, r["o"], want)
						}
					}
					return nil
				}
				read := func(w int) error {
					st, err := db.Prepare(ctx, liveQuery, opts...)
					if err != nil {
						return err
					}
					defer st.Close()
					if w%2 == 0 { // materialised
						res, err := st.Query(ctx)
						if err != nil {
							return err
						}
						rows := make([]map[string]Term, res.Len())
						for i := range rows {
							rows[i] = res.Row(i)
						}
						return checkRows("materialised", st.Epoch(), rows)
					}
					rs, err := st.Stream(ctx) // streamed
					if err != nil {
						return err
					}
					var rows []map[string]Term
					for rs.Next() {
						rows = append(rows, maps.Clone(rs.Row()))
					}
					if err := rs.Close(); err != nil {
						return err
					}
					return checkRows("streamed", st.Epoch(), rows)
				}

				for w := 0; w < readers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if err := read(w); err != nil {
								errs <- err
								return
							}
						}
					}(w)
				}

				for gen := 0; gen < gens; gen++ {
					advanceGeneration(t, db, n, gen)
				}
				close(stop)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if db.Epoch() != gens {
					t.Errorf("final epoch = %d, want %d", db.Epoch(), gens)
				}
				if s := db.PlanCacheStats(); s.Invalidations != 0 || s.Hits == 0 {
					t.Errorf("plan cache = %+v, want hits and no invalidations", s)
				}
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if g := runtime.NumGoroutine(); g > before {
					t.Errorf("goroutines leaked: %d before, %d after", before, g)
				}
			})
		}
	}
}

// TestLiveCommitCancellation: a cancelled Commit leaves the served
// dataset untouched, keeps the transaction retryable, and leaks no
// goroutines.
func TestLiveCommitCancellation(t *testing.T) {
	const n = 64
	db := openLive(t, n)
	before := runtime.NumGoroutine()

	txn, err := db.Update(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := txn.Insert(liveTriple(1000+i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := txn.Commit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Commit err = %v", err)
	}
	if db.Epoch() != 0 || db.NumTriples() != n {
		t.Fatalf("cancelled commit mutated the DB: epoch=%d triples=%d", db.Epoch(), db.NumTriples())
	}

	// The transaction is still open: retry with a live context.
	cs, err := txn.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cs.Epoch != 1 || cs.Inserted != n {
		t.Fatalf("retried commit stats = %+v", cs)
	}
	if err := txn.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Rollback after Commit err = %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestLiveMidCommitCancellation races a cancel against a large merge:
// whatever wins, the DB must serve exactly one consistent epoch (the
// old or the new), the transaction must stay usable on failure, and no
// goroutines may leak.
func TestLiveMidCommitCancellation(t *testing.T) {
	const n = 20000
	db := openLive(t, 64)
	before := runtime.NumGoroutine()

	for round := 0; round < 4; round++ {
		txn, err := db.Update(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			bulk := Triple{
				S: IRI(fmt.Sprintf("http://bulk/s%d", round*n+i)),
				P: IRI("http://bulk/p"),
				O: Literal(fmt.Sprintf("v%d", i)),
			}
			if err := txn.Insert(bulk); err != nil {
				t.Fatal(err)
			}
		}
		epochBefore := db.Epoch()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(round) * 500 * time.Microsecond)
			cancel()
		}()
		cs, err := txn.Commit(ctx)
		cancel()
		switch {
		case err == nil:
			if cs.Epoch != epochBefore+1 || db.Epoch() != cs.Epoch {
				t.Fatalf("round %d: commit published epoch %d, db at %d", round, cs.Epoch, db.Epoch())
			}
		case errors.Is(err, context.Canceled):
			if db.Epoch() != epochBefore {
				t.Fatalf("round %d: cancelled commit changed epoch to %d", round, db.Epoch())
			}
			// Retry must succeed and publish exactly one epoch.
			cs, err := txn.Commit(context.Background())
			if err != nil {
				t.Fatalf("round %d: retry failed: %v", round, err)
			}
			if cs.Epoch != epochBefore+1 {
				t.Fatalf("round %d: retry published epoch %d, want %d", round, cs.Epoch, epochBefore+1)
			}
		default:
			t.Fatalf("round %d: commit err = %v", round, err)
		}
		// Whatever happened, the served snapshot is internally
		// consistent: the live marker query returns its 64 base rows.
		res, err := db.Query(liveQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 64 {
			t.Fatalf("round %d: query saw %d rows, want 64", round, res.Len())
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestLiveUpdateSerialisesWriters: a second Update blocks until the
// first transaction finishes, and a cancelled context aborts the wait.
func TestLiveUpdateSerialisesWriters(t *testing.T) {
	db := openLive(t, 2)
	ctx := context.Background()
	txn, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := db.Update(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Update err = %v, want deadline exceeded", err)
	}

	acquired := make(chan *Txn)
	go func() {
		t2, err := db.Update(ctx)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		acquired <- t2
	}()
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	select {
	case t2 := <-acquired:
		if t2 == nil {
			t.Fatal("blocked Update failed")
		}
		if err := t2.Rollback(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Update never acquired the writer slot")
	}
}

// TestLiveTxnSemantics covers the transaction's small print: last
// operation wins, Pending counts, finished-transaction errors, invalid
// triples, and LoadNTriples.
func TestLiveTxnSemantics(t *testing.T) {
	db := openLive(t, 2)
	ctx := context.Background()
	txn, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}

	tr := liveTriple(50, 1)
	if err := txn.Insert(tr); err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(tr); err != nil {
		t.Fatal(err)
	}
	if ins, dels := txn.Pending(); ins != 0 || dels != 1 {
		t.Fatalf("Pending = (%d,%d), want (0,1): delete must win", ins, dels)
	}
	if err := txn.Insert(Triple{S: Literal("bad"), P: IRI("p"), O: Literal("o")}); err == nil {
		t.Fatal("literal subject accepted")
	}
	if err := txn.LoadNTriples(strings.NewReader(`<http://live/s60> <http://live/p> "gen9" .` + "\n")); err != nil {
		t.Fatal(err)
	}
	cs, err := txn.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Inserted != 1 || cs.Deleted != 0 {
		t.Fatalf("stats = %+v, want Inserted=1 Deleted=0", cs)
	}

	if err := txn.Insert(tr); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Insert after Commit err = %v", err)
	}
	if _, err := txn.Commit(ctx); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Commit after Commit err = %v", err)
	}

	// A no-op transaction publishes nothing and keeps the epoch.
	txn2, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.Delete(liveTriple(999, 9)); err != nil {
		t.Fatal(err)
	}
	cs2, err := txn2.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Epoch != cs.Epoch || cs2.Inserted != 0 || cs2.Deleted != 0 {
		t.Fatalf("no-op commit stats = %+v, want epoch %d unchanged", cs2, cs.Epoch)
	}
}

// TestLiveSaveLoadEpoch: Save/OpenSnapshot round-trips the epoch, so a
// reloaded dataset resumes its lineage instead of resetting plan-cache
// keys to epoch 0.
func TestLiveSaveLoadEpoch(t *testing.T) {
	const n = 4
	db := openLive(t, n)
	advanceGeneration(t, db, n, 0)
	advanceGeneration(t, db, n, 1)
	if db.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", db.Epoch())
	}

	var buf strings.Builder
	if err := db.Save(&stringsWriter{&buf}); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch() != 2 {
		t.Fatalf("reloaded epoch = %d, want 2", loaded.Epoch())
	}
	res, err := loaded.Query(liveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != n || res.Row(0)["o"] != Literal("gen2") {
		t.Fatalf("reloaded data wrong: %d rows, first %v", res.Len(), res.Row(0))
	}

	// The lineage continues from the saved epoch.
	advanceGeneration(t, loaded, n, 2)
	if loaded.Epoch() != 3 {
		t.Fatalf("continued epoch = %d, want 3", loaded.Epoch())
	}
}

// stringsWriter adapts strings.Builder to io.Writer for Save.
type stringsWriter struct{ b *strings.Builder }

func (w *stringsWriter) Write(p []byte) (int, error) { return w.b.Write(p) }

// TestLiveQueryMany: batched execution returns the same results as
// per-execution Query calls, validates bindings, and amortises the
// bind step without changing semantics.
func TestLiveQueryMany(t *testing.T) {
	db := openSample(t)
	ctx := context.Background()
	st, err := db.Prepare(ctx, `
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?j ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	titles := []string{"Journal 1 (1940)", "Journal 1 (1941)", "no such title", "Journal 1 (1940)"}
	batches := make([]Binds, len(titles))
	for i, title := range titles {
		batches[i] = Binds{Bind("title", Literal(title))}
	}
	many, err := st.QueryMany(ctx, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(batches) {
		t.Fatalf("QueryMany returned %d results, want %d", len(many), len(batches))
	}
	for i, batch := range batches {
		one, err := st.Query(ctx, batch...)
		if err != nil {
			t.Fatal(err)
		}
		if many[i].String() != one.String() {
			t.Errorf("batch %d: QueryMany differs from Query:\n%s\nvs\n%s", i, many[i], one)
		}
	}

	// Validation still applies per batch.
	if _, err := st.QueryMany(ctx, []Binds{{Bind("nope", Literal("x"))}}); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	// Error behaviour matches Query exactly, including for a template's
	// internal canonical parameter names (plan-cache normalisation
	// renames $title): a name Query rejects, QueryMany must reject too.
	stc, err := db.Prepare(ctx, `
		PREFIX dc:      <http://purl.org/dc/elements/1.1/>
		PREFIX dcterms: <http://purl.org/dc/terms/>
		SELECT ?j ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`,
		WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	defer stc.Close()
	for _, name := range append([]string{"title"}, "p0", "c0") {
		if name == "title" {
			continue // the declared name must keep working
		}
		_, qErr := stc.Query(ctx, Bind(name, Literal("x")))
		_, mErr := stc.QueryMany(ctx, []Binds{{Bind(name, Literal("x"))}})
		if (qErr == nil) != (mErr == nil) {
			t.Errorf("bind %q: Query err %v but QueryMany err %v", name, qErr, mErr)
		}
	}
	if res, err := stc.QueryMany(ctx, []Binds{{Bind("title", Literal("Journal 1 (1940)"))}}); err != nil || res[0].Len() != 1 {
		t.Fatalf("declared name via cached template: %v, %v", res, err)
	}
	if _, err := st.QueryMany(ctx, []Binds{{}}); err == nil {
		t.Fatal("missing binding accepted")
	}

	// Empty batch list is a cheap no-op.
	none, err := st.QueryMany(ctx, nil)
	if err != nil || len(none) != 0 {
		t.Fatalf("empty QueryMany = (%v, %v)", none, err)
	}

	// Statements without parameters batch too.
	plain, err := db.Prepare(ctx, sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	rs, err := plain.QueryMany(ctx, []Binds{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Len() != 1 || rs[1].Len() != 1 {
		t.Fatalf("parameterless QueryMany = %v", rs)
	}

	// Closed statements refuse batches.
	st.Close()
	if _, err := st.QueryMany(ctx, batches); !errors.Is(err, ErrStmtClosed) {
		t.Fatalf("QueryMany after Close err = %v", err)
	}
}
