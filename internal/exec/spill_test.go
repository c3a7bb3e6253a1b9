package exec

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// rowsOp feeds a fixed row slice through the operator contract, in
// batches of at most chunk rows.
type rowsOp struct {
	rows  []Row
	chunk int
	out   batch
}

func (s *rowsOp) next() (*batch, error) {
	n := min(s.chunk, len(s.rows))
	if n == 0 {
		return nil, nil
	}
	width := len(s.rows[0])
	s.out = batch{cols: make([][]dict.ID, width), n: n}
	for c := range s.out.cols {
		s.out.cols[c] = make([]dict.ID, n)
		for i, r := range s.rows[:n] {
			s.out.cols[c][i] = r[c]
		}
	}
	s.rows = s.rows[n:]
	return &s.out, nil
}

// rowsInput wraps rows as an operator input of the given run.
func rowsInput(rt *runEnv, rows []Row) input {
	return input{op: &rowsOp{rows: rows, chunk: 64}, rt: rt}
}

// sortFixture builds a dictionary whose term texts order the same as
// their numeric suffixes, plus n random rows of the given width over
// it (with occasional unbound slots).
func sortFixture(t testing.TB, n, width int, seed int64) (*dict.Dict, []Row) {
	t.Helper()
	d := dict.New()
	nTerms := 50
	ids := make([]dict.ID, nTerms)
	for i := range ids {
		ids[i] = d.Encode(rdf.NewLiteral(fmt.Sprintf("v%04d", i)))
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		r := make(Row, width)
		for c := range r {
			if rng.Intn(10) == 0 {
				r[c] = dict.Invalid
			} else {
				r[c] = ids[rng.Intn(nTerms)]
			}
		}
		rows[i] = r
	}
	return d, rows
}

// reference stable-sorts a copy of rows, tagging each with its input
// position so ties keep input order (the semantics of Result.SortBy).
func referenceSort(d *dict.Dict, keys []sortKey, rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		return compareRows(d, keys, out[i], out[j]) < 0
	})
	return out
}

func drainOp(t *testing.T, op operator) []Row {
	t.Helper()
	var out []Row
	for {
		b, err := op.next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		for i := 0; i < b.n; i++ {
			r := make(Row, len(b.cols))
			b.row(i, r)
			out = append(out, r)
		}
	}
}

func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}

// TestExternalSortMatchesStableSort drives the external sort with a
// budget small enough to spill several runs and checks the merged
// output equals an in-memory stable sort — including tie order — for
// ascending, descending and multi-key configurations.
func TestExternalSortMatchesStableSort(t *testing.T) {
	d, rows := sortFixture(t, 500, 3, 7)
	for _, tc := range []struct {
		name string
		keys []sortKey
	}{
		{"asc", []sortKey{{col: 0}}},
		{"desc", []sortKey{{col: 1, desc: true}}},
		{"multi", []sortKey{{col: 2}, {col: 0, desc: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			rt := &runEnv{done: make(chan struct{})}
			stats := &SortStats{Budget: 2048}
			s := &extSort{
				in: rowsInput(rt, rows), rt: rt, d: d, keys: tc.keys, width: 3,
				budget: 2048, tempDir: dir, stats: stats,
			}
			got := drainOp(t, s)
			want := referenceSort(d, tc.keys, rows)
			if !rowsEqual(got, want) {
				t.Fatalf("external sort diverges from stable sort (%d vs %d rows)", len(got), len(want))
			}
			if stats.Mode != "external" || stats.SpilledRuns < 2 {
				t.Fatalf("expected >=2 spilled runs, got mode=%s runs=%d", stats.Mode, stats.SpilledRuns)
			}
			if stats.SpilledBytes <= 0 {
				t.Fatalf("spilled bytes not counted")
			}
			if max := stats.Budget + rowFootprint(3); stats.PeakBytes > max {
				t.Fatalf("peak buffer %d exceeds budget %d (+1 row slack %d)", stats.PeakBytes, stats.Budget, max)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Fatalf("temp files left after exhaustion: %v", ents)
			}
		})
	}
}

// TestExternalSortInMemoryMode checks inputs under the budget never
// touch disk.
func TestExternalSortInMemoryMode(t *testing.T) {
	d, rows := sortFixture(t, 100, 2, 3)
	keys := []sortKey{{col: 0}}
	rt := &runEnv{done: make(chan struct{})}
	stats := &SortStats{Budget: DefaultSortBudget}
	s := &extSort{in: rowsInput(rt, rows), rt: rt, d: d, keys: keys, width: 2,
		budget: DefaultSortBudget, tempDir: t.TempDir(), stats: stats}
	got := drainOp(t, s)
	if !rowsEqual(got, referenceSort(d, keys, rows)) {
		t.Fatal("in-memory sort diverges from stable sort")
	}
	if stats.Mode != "in-memory" || stats.SpilledRuns != 0 {
		t.Fatalf("expected in-memory mode, got %s with %d runs", stats.Mode, stats.SpilledRuns)
	}
}

// TestExternalSortCleanupOnEarlyAbort closes the run environment after
// a partial drain and checks every spilled temp file is deleted by the
// cleanup hook.
func TestExternalSortCleanupOnEarlyAbort(t *testing.T) {
	d, rows := sortFixture(t, 500, 3, 11)
	dir := t.TempDir()
	rt := &runEnv{done: make(chan struct{})}
	stats := &SortStats{Budget: 2048}
	s := &extSort{in: rowsInput(rt, rows), rt: rt, d: d, width: 3,
		keys: []sortKey{{col: 0}}, budget: 2048, tempDir: dir, stats: stats}
	rt.addCleanup(s.cleanup)
	defer func(n int) { batchRows = n }(batchRows)
	batchRows = 5 // leave most of the merge undrained
	if b, err := s.next(); b == nil || err != nil {
		t.Fatalf("sort ended early: %v", err)
	}
	if stats.SpilledRuns < 2 {
		t.Fatalf("fixture did not spill (runs=%d)", stats.SpilledRuns)
	}
	rt.shutdown()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("temp files left after early shutdown: %v", ents)
	}
}

// TestTopKMatchesSortPrefix checks the bounded-heap short circuit
// against the k-prefix of a stable full sort for boundary k values.
func TestTopKMatchesSortPrefix(t *testing.T) {
	d, rows := sortFixture(t, 300, 2, 5)
	keys := []sortKey{{col: 0}, {col: 1, desc: true}}
	want := referenceSort(d, keys, rows)
	for _, k := range []int{0, 1, 7, 150, 300, 1000} {
		rt := &runEnv{done: make(chan struct{})}
		stats := &SortStats{Budget: DefaultSortBudget, Mode: "top-k", K: k}
		it := &topK{in: rowsInput(rt, rows), rt: rt, d: d, keys: keys, width: 2, k: k, stats: stats}
		got := drainOp(t, it)
		wantK := want
		if k < len(want) {
			wantK = want[:k]
		}
		if !rowsEqual(got, wantK) {
			t.Fatalf("k=%d: top-k diverges from sort prefix (%d vs %d rows)", k, len(got), len(wantK))
		}
	}
}

// TestSpillRunCodecRoundtrip spills one run and reads it back.
func TestSpillRunCodecRoundtrip(t *testing.T) {
	d, rows := sortFixture(t, 64, 4, 13)
	keys := []sortKey{{col: 0}}
	rt := &runEnv{done: make(chan struct{})}
	stats := &SortStats{Budget: 1}
	s := &extSort{in: rowsInput(rt, rows), rt: rt, d: d, keys: keys, width: 4,
		budget: 1, tempDir: t.TempDir(), stats: stats}
	got := drainOp(t, s)
	if !rowsEqual(got, referenceSort(d, keys, rows)) {
		t.Fatal("roundtrip through spilled runs corrupted rows")
	}
	if int(stats.SpilledRuns) < len(rows)/2-1 {
		t.Fatalf("budget=1 should spill ~every 2 rows, got %d runs", stats.SpilledRuns)
	}
}

// orderedQuery is the acceptance workload: every issued document with
// its year, ordered by year — thousands of rows at the test scale.
const orderedQuery = `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?doc ?yr
WHERE { ?doc dcterms:issued ?yr .
        ?doc dc:title ?title }
ORDER BY ?yr`

// TestSortedRunBoundedMemorySP2Bench is the acceptance check of the
// spill feature at the engine level: an ORDER BY over a generated
// SP2Bench dataset, run with a tiny budget, must spill at least two
// runs, keep its peak buffer within the budget (one row of slack),
// match the materialised SortBy reference row for row, and leave no
// temp files behind.
func TestSortedRunBoundedMemorySP2Bench(t *testing.T) {
	st := sp2bench.Generate(25000, 1)
	eng := New(ColumnSource{St: st})
	q, plan := hspPlan(t, orderedQuery)

	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: materialised run + stable SortBy (the pre-spill path).
	ref, err := c.ExecuteContext(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SortBy(q.OrderBy); err != nil {
		t.Fatal(err)
	}
	if ref.Len() < 1000 {
		t.Fatalf("fixture too small: %d rows", ref.Len())
	}

	sorted, err := c.Sorted(q.OrderBy, -1)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 4096
	dir := t.TempDir()
	for _, par := range []int{1, 4} {
		run := sorted.RunContext(context.Background(), Options{Parallelism: par, SortBudget: budget, TempDir: dir})
		i := 0
		for run.Next() {
			if i >= ref.Len() {
				t.Fatalf("parallelism=%d: more rows than reference", par)
			}
			got, want := run.Row(), ref.Rows[i]
			for cix := range want {
				if got[cix] != want[cix] {
					t.Fatalf("parallelism=%d: row %d differs: got %v want %v", par, i, got, want)
				}
			}
			i++
		}
		if err := run.Err(); err != nil {
			t.Fatal(err)
		}
		run.Close()
		if i != ref.Len() {
			t.Fatalf("parallelism=%d: %d rows, want %d", par, i, ref.Len())
		}
		stats := run.SortStats()
		if stats == nil {
			t.Fatal("no sort stats on sorted run")
		}
		if stats.Mode != "external" || stats.SpilledRuns < 2 {
			t.Fatalf("parallelism=%d: expected >=2 spilled runs under budget %d, got mode=%s runs=%d",
				par, budget, stats.Mode, stats.SpilledRuns)
		}
		if max := int64(budget) + rowFootprint(len(sorted.Vars())); stats.PeakBytes > max {
			t.Fatalf("parallelism=%d: peak sort buffer %d exceeds budget %d (+slack)", par, stats.PeakBytes, budget)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

// TestSortedRunCancelCleansTempFiles cancels a context mid-merge and
// checks the spilled runs are deleted and Err reports the
// cancellation.
func TestSortedRunCancelCleansTempFiles(t *testing.T) {
	st := sp2bench.Generate(25000, 1)
	eng := New(ColumnSource{St: st})
	q, plan := hspPlan(t, orderedQuery)
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := c.Sorted(q.OrderBy, -1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	run := sorted.RunContext(ctx, Options{SortBudget: 4096, TempDir: dir})
	// Pull a few merged rows, then cancel mid-merge.
	for i := 0; i < 3; i++ {
		if !run.Next() {
			t.Fatal("run ended before cancellation")
		}
	}
	if run.SortStats().SpilledRuns < 2 {
		t.Fatalf("fixture did not spill (runs=%d)", run.SortStats().SpilledRuns)
	}
	cancel()
	for run.Next() {
	}
	if err := run.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	run.Close()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		var names []string
		for _, e := range ents {
			names = append(names, filepath.Join(dir, e.Name()))
		}
		t.Fatalf("temp files left after cancellation: %v", names)
	}
}

// TestSortedTopKNeverSpills checks the LIMIT short circuit stays off
// disk even under a tiny budget when k rows fit.
func TestSortedTopKNeverSpills(t *testing.T) {
	st := sp2bench.Generate(25000, 1)
	eng := New(ColumnSource{St: st})
	q, plan := hspPlan(t, orderedQuery+"\nLIMIT 10")
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := c.Sorted(q.OrderBy, q.Offset+q.Limit)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := sorted.RunContext(context.Background(), Options{SortBudget: 4096, TempDir: dir})
	n := 0
	for run.Next() {
		n++
	}
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	run.Close()
	if n != 10 {
		t.Fatalf("top-k emitted %d rows, want 10", n)
	}
	stats := run.SortStats()
	if stats.Mode != "top-k" || stats.SpilledRuns != 0 {
		t.Fatalf("expected top-k with no spill, got mode=%s runs=%d", stats.Mode, stats.SpilledRuns)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("top-k wrote temp files: %v", ents)
	}
}

// TestSortedRejectsUnknownKey mirrors Result.SortBy's validation.
func TestSortedRejectsUnknownKey(t *testing.T) {
	st := sp2bench.Generate(2000, 1)
	eng := New(ColumnSource{St: st})
	_, plan := hspPlan(t, orderedQuery)
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sorted([]sparql.OrderKey{{Var: "nope"}}, -1); err == nil {
		t.Fatal("Sorted accepted a key outside the projection")
	}
	if _, err := c.RowComparator([]sparql.OrderKey{{Var: "nope"}}); err == nil {
		t.Fatal("RowComparator accepted a key outside the projection")
	}
}
