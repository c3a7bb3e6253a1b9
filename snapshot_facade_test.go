package hsp

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestSnapshotFacadeRoundTrip(t *testing.T) {
	db := openSample(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTriples() != db.NumTriples() {
		t.Fatalf("triples = %d, want %d", loaded.NumTriples(), db.NumTriples())
	}
	a, err := db.QueryContext(context.Background(), sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.QueryContext(context.Background(), sampleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("snapshot changed query results:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotFacadeFiles(t *testing.T) {
	db := openSample(t)
	path := filepath.Join(t.TempDir(), "data.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTriples() != db.NumTriples() {
		t.Error("file round trip lost triples")
	}
	if _, err := OpenSnapshotFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("missing snapshot file accepted")
	}
	if err := db.SaveFile("/no/such/dir/x.snap"); err == nil {
		t.Error("unwritable snapshot path accepted")
	}
}

// TestConcurrentQueries exercises the documented concurrency guarantee:
// a DB serves arbitrary mixed planner/engine queries from many
// goroutines (including the lazily built RDF-3X substrate).
func TestConcurrentQueries(t *testing.T) {
	db, err := OpenNTriples(strings.NewReader(sampleNT))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			planner := []Planner{PlannerHSP, PlannerCDP, PlannerSQL, PlannerHybrid}[w%4]
			engine := []Engine{EngineMonet, EngineRDF3X}[w%2]
			for i := 0; i < 10; i++ {
				plan, err := db.Plan(sampleQuery, planner)
				if err != nil {
					errs <- err
					return
				}
				st, err := db.PreparePlan(context.Background(), plan, engine)
				if err != nil {
					errs <- err
					return
				}
				res, err := st.Query(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 {
					errs <- errConcurrent(res.Len())
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

type errConcurrent int

func (e errConcurrent) Error() string { return "unexpected result count under concurrency" }
