package hsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// TestParallelDeterminism is the exchange property test: streamed
// results at parallelism 1, 2 and 8 are byte-identical — same rows, same
// order — for every query of both workload suites, across both engines,
// with and without ORDER BY. The exchange threshold is forced to 1 so
// every shardable chain actually scatters even at test scale.
func TestParallelDeterminism(t *testing.T) {
	type suite struct {
		name    string
		db      *DB
		queries []struct{ Name, Text string }
	}
	suites := []suite{
		{"sp2bench", GenerateSP2Bench(25000, 1), sp2bench.Queries()},
		{"yago", GenerateYAGO(15000, 1), yago.Queries()},
	}
	for _, s := range suites {
		for _, q := range s.queries {
			for _, e := range []Engine{EngineMonet, EngineRDF3X} {
				t.Run(fmt.Sprintf("%s/%s/%s", s.name, q.Name, e), func(t *testing.T) {
					texts := []string{q.Text}
					if base, err := s.db.QueryContext(context.Background(), q.Text, WithEngine(e)); err == nil && len(base.Vars()) > 0 {
						texts = append(texts, q.Text+"\nORDER BY ?"+base.Vars()[0])
					}
					for vi, text := range texts {
						rows, err := s.db.StreamContext(context.Background(), text, WithEngine(e), WithParallelism(1))
						if err != nil {
							t.Fatal(err)
						}
						want := orderedStreamLines(t, rows)
						for _, par := range []int{2, 8} {
							rows, err := s.db.StreamContext(context.Background(), text, WithEngine(e),
								WithParallelism(par), WithExchangeThreshold(1))
							if err != nil {
								t.Fatal(err)
							}
							got := orderedStreamLines(t, rows)
							if !equalLines(got, want) {
								t.Errorf("variant=%d parallelism=%d: stream differs from sequential (%d vs %d rows)",
									vi, par, len(got), len(want))
							}
						}
					}
				})
			}
		}
	}
}

// probeHeavyQuery returns a suite query whose plan contains a
// hash-join probe chain the placement pass scatters (SP4b; most other
// suite shapes compile to merge joins, which gather order directly).
func probeHeavyQuery(t *testing.T) string {
	t.Helper()
	for _, q := range sp2bench.Queries() {
		if q.Name == "SP4b" {
			return q.Text
		}
	}
	t.Fatal("suite has no SP4b query")
	return ""
}

// TestParallelExchangeCancelMidStream cancels a scattered pipeline
// between pulls at the facade level and checks the stream stops with
// the context's error, goroutine-leak-free.
func TestParallelExchangeCancelMidStream(t *testing.T) {
	db := GenerateSP2Bench(30000, 1)
	text := probeHeavyQuery(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.StreamContext(ctx, text,
			WithParallelism(8), WithExchangeThreshold(1))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row: %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		if err := rows.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Err() = %v, want context.Canceled", err)
		}
		if err := rows.Close(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Close() = %v, want context.Canceled", err)
		}
		cancel()
	}
	awaitGoroutines(t, before)
}

// TestParallelAbandonedStreamNoLeak abandons scattered streams without
// draining them and checks Close reclaims every worker goroutine.
func TestParallelAbandonedStreamNoLeak(t *testing.T) {
	db := GenerateSP2Bench(30000, 1)
	text := probeHeavyQuery(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		rows, err := db.StreamContext(context.Background(), text, WithParallelism(8), WithExchangeThreshold(1))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			rows.Next()
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	awaitGoroutines(t, before)
}

// TestParallelStreamAnalyzeWorkers checks the facade surfaces exchange
// observability: the metrics sink receives an exchange entry with
// worker counts, per-worker rows and a skew ratio on a parallel run.
func TestParallelStreamAnalyzeWorkers(t *testing.T) {
	db := GenerateSP2Bench(30000, 1)
	text := probeHeavyQuery(t)
	var exchanges []OpStats
	rows, err := db.StreamContext(context.Background(), text, WithParallelism(4), WithExchangeThreshold(1),
		WithMetricsSink(func(s OpStats) {
			if s.Workers > 0 {
				exchanges = append(exchanges, s)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(exchanges) == 0 {
		t.Fatal("metrics sink saw no exchange entry")
	}
	for _, ex := range exchanges {
		if len(ex.WorkerRows) != ex.Workers || ex.Skew < 1 {
			t.Errorf("implausible exchange stat: %+v", ex)
		}
	}
}
