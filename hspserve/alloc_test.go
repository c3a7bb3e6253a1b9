package hspserve_test

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/hspserve"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
)

// raceEnabled is set by race_test.go when the race detector is on: it
// makes sync.Pool drop items at random, so allocation counts mean
// nothing.
var raceEnabled bool

// TestServeAllocsPerRow is the allocation regression check of result
// delivery through the server: a whole request — protocol parsing,
// prepare, stream, positional decode, the byte-appending encoder — costs
// a per-request set-up that does not grow with the result, so doubling
// the dataset adds at most 0.1 allocations per extra result row (the
// recorder's body buffer doubling, batch-sized steps in the executor;
// nothing per row or per term).
func TestServeAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop batches and encoders at random")
	}
	for _, tc := range []struct {
		name, text, format, rowMark string
	}{
		{"SP6/json", sp2bench.SP6, "json", `"type":"`}, // one variable: one marker per row
		{"SP5/tsv", sp2bench.SP5, "tsv", "\n<"},        // every row starts with an IRI
	} {
		t.Run(tc.name, func(t *testing.T) {
			target := "/sparql?format=" + tc.format + "&query=" + url.QueryEscape(tc.text)
			var rows [2]int
			var allocs [2]float64
			for i, scale := range []int{30000, 60000} {
				srv, err := hspserve.New(hspserve.Config{DB: hsp.GenerateSP2Bench(scale, 1)})
				if err != nil {
					t.Fatal(err)
				}
				serve := func() {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					if rec.Code != http.StatusOK {
						t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
					}
					rows[i] = strings.Count(rec.Body.String(), tc.rowMark)
				}
				allocs[i] = testing.AllocsPerRun(5, serve)
			}
			if rows[0] == 0 || rows[1] < rows[0]*3/2 {
				t.Fatalf("result did not grow with the dataset: %d -> %d rows", rows[0], rows[1])
			}
			marginal := (allocs[1] - allocs[0]) / float64(rows[1]-rows[0])
			t.Logf("rows %d -> %d, allocs/request %.0f -> %.0f (%.3f per extra row)", rows[0], rows[1], allocs[0], allocs[1], marginal)
			if marginal > 0.1 {
				t.Errorf("each extra result row costs %.3f allocations, want <= 0.1", marginal)
			}
		})
	}
}
