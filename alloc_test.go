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

// TestStreamAllocsPerRow is the allocation regression check through the
// facade: streaming a prepared statement costs the one public map per
// delivered row (two allocations for up to eight variables) and a
// per-run set-up that does not grow with the result — at most three
// allocations per result row at either dataset scale, and across them.
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
						_ = rs.Row()
					}
					if err := rs.Err(); err != nil {
						t.Fatal(err)
					}
				}
				allocs[i] = testing.AllocsPerRun(5, drain)
				if perRow := allocs[i] / float64(rows[i]); perRow > 3 {
					t.Errorf("scale %d: %.0f allocations for %d rows (%.2f per row, want <= 3)", scale, allocs[i], rows[i], perRow)
				}
			}
			marginal := (allocs[1] - allocs[0]) / float64(rows[1]-rows[0])
			t.Logf("rows %d -> %d, allocs/run %.0f -> %.0f (%.2f per extra row)", rows[0], rows[1], allocs[0], allocs[1], marginal)
			if marginal > 3 {
				t.Errorf("each extra result row costs %.2f allocations, want <= 3", marginal)
			}
		})
	}
}
