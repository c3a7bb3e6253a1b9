package exec

import (
	"context"
	"testing"

	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// raceEnabled is set by race_test.go when the race detector is on: it
// makes sync.Pool drop items at random, so allocation counts mean
// nothing.
var raceEnabled bool

// TestRunAllocsIndependentOfRows is the allocation regression check at
// the exec.Run level: a run allocates per operator and per batch-sized
// growth step, never per row, so doubling the dataset — and with it the
// result — moves allocations per run by less than 10 %.
func TestRunAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop batches at random")
	}
	drain := func(c *Compiled) (rows int) {
		run := c.RunContext(context.Background(), Options{})
		defer run.Close()
		for run.Next() {
			rows++
		}
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for _, tc := range []struct {
		name, text string
		gen        func(scale int) *store.Store
		scale      int
	}{
		{"SP2a", sp2bench.SP2a, func(n int) *store.Store { return sp2bench.Generate(n, 1) }, 30000},
		{"SP4a", sp2bench.SP4a, func(n int) *store.Store { return sp2bench.Generate(n, 1) }, 30000},
		{"Y3", yago.Y3, func(n int) *store.Store { return yago.Generate(n, 1) }, 30000},
		{"Y4", yago.Y4, func(n int) *store.Store { return yago.Generate(n, 1) }, 30000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rows [2]int
			var allocs [2]float64
			for i, scale := range []int{tc.scale, 2 * tc.scale} {
				st := tc.gen(scale)
				c := compilePlan(t, New(ColumnSource{St: st}), planners(t, st, tc.text)["hsp"], nil)
				rows[i] = drain(c)
				allocs[i] = testing.AllocsPerRun(10, func() { drain(c) })
			}
			t.Logf("rows %d -> %d, allocs/run %.0f -> %.0f", rows[0], rows[1], allocs[0], allocs[1])
			if rows[1] < rows[0]*3/2 {
				t.Fatalf("result did not grow with the dataset: %d -> %d rows", rows[0], rows[1])
			}
			if allocs[1] >= allocs[0]*1.10 {
				t.Errorf("allocations per run grew with the result: %.0f at %d rows, %.0f at %d rows", allocs[0], rows[0], allocs[1], rows[1])
			}
		})
	}
}

// TestRowSetAllocs: the DISTINCT filter builds its key in a reused
// buffer, so a first-seen row costs the one string the map keeps and a
// duplicate row costs nothing.
func TestRowSetAllocs(t *testing.T) {
	s := NewRowSet(1024)
	row := Row{0, 7, 1 << 40}
	if !s.Add(row) || s.Add(row) {
		t.Fatal("Add must report a row new exactly once")
	}
	if !s.Add(Row{0, 7}) || !s.Add(Row{7, 0, 1 << 40}) {
		t.Fatal("rows of another width or column order are distinct")
	}
	if dup := testing.AllocsPerRun(100, func() { s.Add(row) }); dup != 0 {
		t.Errorf("a duplicate row costs %.1f allocations, want 0", dup)
	}
	next := row[1]
	if fresh := testing.AllocsPerRun(100, func() { next++; s.Add(Row{0, next, 1 << 40}) }); fresh > 1 {
		t.Errorf("a first-seen row costs %.1f allocations, want <= 1", fresh)
	}
}
