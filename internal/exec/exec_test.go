package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
)

// --- helpers ---

func buildStore(t testing.TB, doc string) *store.Store {
	t.Helper()
	ts, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewBuilder(nil)
	for _, tr := range ts {
		b.Add(tr)
	}
	return b.Build()
}

func hspPlan(t testing.TB, src string) (*sparql.Query, *algebra.Plan) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPlanner().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	return q, p
}

// multiset renders a result as sorted lines for order-insensitive
// comparison.
func multiset(r *Result) string { return r.String() }

// bruteForce evaluates a query by nested-loop pattern matching — the
// semantics oracle for every engine test.
func bruteForce(ts []rdf.Triple, q *sparql.Query) string {
	type binding map[sparql.Var]rdf.Term
	bindings := []binding{{}}
	match := func(b binding, n sparql.Node, val rdf.Term) (binding, bool) {
		if !n.IsVar() {
			if n.Term == val {
				return b, true
			}
			return nil, false
		}
		if old, ok := b[n.Var]; ok {
			if old == val {
				return b, true
			}
			return nil, false
		}
		nb := binding{}
		for k, v := range b {
			nb[k] = v
		}
		nb[n.Var] = val
		return nb, true
	}
	for _, tp := range q.Patterns {
		var next []binding
		for _, b := range bindings {
			for _, tr := range ts {
				nb, ok := match(b, tp.S, tr.S)
				if !ok {
					continue
				}
				nb2, ok := match(nb, tp.P, tr.P)
				if !ok {
					continue
				}
				nb3, ok := match(nb2, tp.O, tr.O)
				if !ok {
					continue
				}
				next = append(next, nb3)
			}
		}
		bindings = next
	}
	holds := func(b binding, f sparql.Filter) bool {
		lv, ok := b[f.Left]
		if !ok {
			return false
		}
		var rv rdf.Term
		if f.Right.IsVar() {
			rv, ok = b[f.Right.Var]
			if !ok {
				return false
			}
		} else {
			rv = f.Right.Term
		}
		switch f.Op {
		case sparql.OpEq:
			return lv == rv
		case sparql.OpNe:
			return lv != rv
		}
		c := strings.Compare(lv.Value, rv.Value)
		switch f.Op {
		case sparql.OpLt:
			return c < 0
		case sparql.OpLe:
			return c <= 0
		case sparql.OpGt:
			return c > 0
		default:
			return c >= 0
		}
	}
	proj := q.ProjectedVars()
	var lines []string
	seen := map[string]bool{}
	for _, b := range bindings {
		ok := true
		for _, f := range q.Filters {
			if !holds(b, f) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var sb strings.Builder
		for i, v := range proj {
			if i > 0 {
				sb.WriteByte('\t')
			}
			src := v
			if a, ok := q.Aliases[v]; ok {
				src = a
			}
			if tv, ok := b[src]; ok {
				sb.WriteString(tv.String())
			} else {
				sb.WriteString("∅")
			}
		}
		line := sb.String()
		if q.Distinct {
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	var b strings.Builder
	for i, v := range proj {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString("?" + string(v))
	}
	b.WriteByte('\n')
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

const journalDoc = `
<http://ex/j1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/j1> <http://dc/title> "Journal 1 (1940)" .
<http://ex/j1> <http://dcterms/issued> "1940" .
<http://ex/j2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Journal> .
<http://ex/j2> <http://dc/title> "Journal 1 (1941)" .
<http://ex/j2> <http://dcterms/issued> "1941" .
<http://ex/a1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://bench/Article> .
<http://ex/a1> <http://dc/title> "Article A" .
`

func TestSelectionQuery(t *testing.T) {
	st := buildStore(t, journalDoc)
	q, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x { ?x rdf:type <http://bench/Journal> }`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", res.Len(), res)
	}
	ts, _ := rdf.ParseNTriples(journalDoc)
	if got, want := multiset(res), bruteForce(ts, q); got != want {
		t.Errorf("result mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestStarJoinQuery(t *testing.T) {
	st := buildStore(t, journalDoc)
	q, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?yr ?jrnl {
			?jrnl rdf:type <http://bench/Journal> .
			?jrnl <http://dc/title> "Journal 1 (1940)" .
			?jrnl <http://dcterms/issued> ?yr .
		}`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s", res.Len(), res)
	}
	m := res.Terms(0)
	if m["yr"].Value != "1940" || m["jrnl"].Value != "http://ex/j1" {
		t.Errorf("mapping = %v", m)
	}
	ts, _ := rdf.ParseNTriples(journalDoc)
	if got, want := multiset(res), bruteForce(ts, q); got != want {
		t.Errorf("mismatch:\n%s\nvs\n%s", got, want)
	}
}

func TestFilterOps(t *testing.T) {
	st := buildStore(t, journalDoc)
	for _, tt := range []struct {
		op   string
		want int
	}{
		{`FILTER (?yr = "1940")`, 1},
		{`FILTER (?yr != "1940")`, 1},
		{`FILTER (?yr < "1941")`, 1},
		{`FILTER (?yr <= "1941")`, 2},
		{`FILTER (?yr > "1940")`, 1},
		{`FILTER (?yr >= "1940")`, 2},
		{`FILTER (?yr = "9999")`, 0},
		{`FILTER (?yr != "9999")`, 2},
	} {
		q, p := hspPlan(t, `
			SELECT ?jrnl ?yr { ?jrnl <http://dcterms/issued> ?yr . `+tt.op+` }`)
		res, err := New(ColumnSource{st}).Execute(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", tt.op, err)
		}
		if res.Len() != tt.want {
			t.Errorf("%s: rows = %d, want %d", tt.op, res.Len(), tt.want)
		}
		ts, _ := rdf.ParseNTriples(journalDoc)
		if got, want := multiset(res), bruteForce(ts, q); got != want {
			t.Errorf("%s mismatch:\n%s\nvs\n%s", tt.op, got, want)
		}
	}
}

func TestDistinct(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT DISTINCT ?type { ?x rdf:type ?type }`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("distinct rows = %d, want 2\n%s", res.Len(), res)
	}
}

func TestVarEqualityFilterAlias(t *testing.T) {
	// SP4a-shaped: rewritten alias column must reappear in the result.
	doc := `
<http://ex/a1> <http://dc/creator> <http://ex/p1> .
<http://ex/i1> <http://dc/creator> <http://ex/p2> .
<http://ex/p1> <http://foaf/name> "smith" .
<http://ex/p2> <http://foaf/name> "smith" .
`
	st := buildStore(t, doc)
	q, p := hspPlan(t, `
		SELECT ?name ?name2 {
			?a <http://dc/creator> ?p1 .
			?i <http://dc/creator> ?p2 .
			?p1 <http://foaf/name> ?name .
			?p2 <http://foaf/name> ?name2 .
			FILTER (?name = ?name2)
		}`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v, want name and name2", res.Vars)
	}
	if res.Len() != 4 { // (a1,i1) x (p1,p2) pairings with equal names
		t.Errorf("rows = %d, want 4\n%s", res.Len(), res)
	}
	ts, _ := rdf.ParseNTriples(doc)
	if got, want := multiset(res), bruteForce(ts, q); got != want {
		t.Errorf("mismatch:\ngot\n%s\nwant\n%s", got, want)
	}
}

func TestMissingConstantYieldsEmpty(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `SELECT ?x { ?x <http://no/such/predicate> "nope" }`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

// TestCompiledPlanRunsOnLaterSnapshot: a plan compiled over one MVCC
// snapshot runs, through Options.Engine, on a later snapshot of the same
// dataset — and the constants the dictionary did not hold at compile
// time (a scan prefix and a FILTER right side) match once a commit
// introduces them, at every parallelism. The compile-time engine keeps
// its own answer, and an engine over another dictionary is refused.
func TestCompiledPlanRunsOnLaterSnapshot(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `SELECT ?j ?o { ?j <http://dc/title> ?t . ?j <http://new/p> ?o . FILTER(?o = <http://new/o>) }`)
	old := NewAt(ColumnSource{st}, 0)
	c, err := old.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	next, _, err := store.NewSnapshot(st, 0).Apply(context.Background(), store.Delta{Inserts: []store.Triple{{
		d.Encode(rdf.NewIRI("http://ex/j1")), d.Encode(rdf.NewIRI("http://new/p")), d.Encode(rdf.NewIRI("http://new/o")),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	later := NewAt(ColumnSource{next.Store()}, next.Epoch())
	for _, par := range []int{1, 4} {
		res, err := c.ExecuteContext(context.Background(), Options{Engine: later, Parallelism: par, ExchangeThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Terms(0)["j"] != rdf.NewIRI("http://ex/j1") {
			t.Fatalf("parallelism %d: later snapshot = %s, want the new row", par, res)
		}
		run := c.RunContext(context.Background(), Options{Engine: later, Parallelism: par})
		for run.Next() {
		}
		if err := run.Err(); err != nil || run.Epoch() != 1 {
			t.Fatalf("parallelism %d: run on the later engine: epoch %d, err %v", par, run.Epoch(), err)
		}
		run.Close()
		res, err = c.ExecuteContext(context.Background(), Options{Parallelism: par})
		if err != nil || res.Len() != 0 {
			t.Fatalf("parallelism %d: compile-time snapshot = %v, %v; want no rows", par, res, err)
		}
	}
	foreign := New(ColumnSource{buildStore(t, journalDoc)})
	if _, err := c.ExecuteContext(context.Background(), Options{Engine: foreign}); err == nil {
		t.Fatal("plan ran on an engine over another dictionary")
	}

	// An unpinned plan runs only where it is told to.
	u := c.Unpinned()
	if _, err := u.ExecuteContext(context.Background(), Options{}); err == nil {
		t.Fatal("unpinned plan ran without an engine")
	}
	if res, err := u.ExecuteContext(context.Background(), Options{Engine: later}); err != nil || res.Len() != 1 {
		t.Fatalf("unpinned plan on the later snapshot = %v, %v; want the new row", res, err)
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	doc := `
<http://ex/x> <http://p/self> <http://ex/x> .
<http://ex/x> <http://p/self> <http://ex/y> .
`
	st := buildStore(t, doc)
	q, p := hspPlan(t, `SELECT ?x { ?x <http://p/self> ?x }`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1 (only the self-loop)", res.Len())
	}
	ts, _ := rdf.ParseNTriples(doc)
	if got, want := multiset(res), bruteForce(ts, q); got != want {
		t.Errorf("mismatch:\n%s\nvs\n%s", got, want)
	}
}

func TestCrossProductExecution(t *testing.T) {
	st := buildStore(t, journalDoc)
	q, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?j ?a {
			?j rdf:type <http://bench/Journal> .
			?a rdf:type <http://bench/Article> .
		}`)
	res, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // 2 journals × 1 article
		t.Errorf("rows = %d, want 2", res.Len())
	}
	ts, _ := rdf.ParseNTriples(journalDoc)
	if got, want := multiset(res), bruteForce(ts, q); got != want {
		t.Errorf("mismatch:\n%s\nvs\n%s", got, want)
	}
}

// unsortedSource wraps ColumnSource but reverses scan output, to prove
// the runtime order check catches substrate bugs.
type unsortedSource struct{ ColumnSource }

func (u unsortedSource) Scan(o store.Ordering, prefix []dict.ID) TripleIter {
	var all [][3]dict.ID
	it := u.ColumnSource.Scan(o, prefix)
	for {
		tr, ok := it.Next()
		if !ok {
			break
		}
		all = append(all, tr)
	}
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	return &memIter{rows: all}
}

type memIter struct {
	rows [][3]dict.ID
	i    int
}

func (m *memIter) Next() ([3]dict.ID, bool) {
	if m.i >= len(m.rows) {
		return [3]dict.ID{}, false
	}
	m.i++
	return m.rows[m.i-1], true
}

func TestOrderCheckDetectsUnsortedInput(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?j {
			?j rdf:type <http://bench/Journal> .
			?j <http://dc/title> ?title .
			?j <http://dcterms/issued> ?yr .
		}`)
	_, err := New(unsortedSource{ColumnSource{st}}).Execute(context.Background(), p)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Errorf("expected sortedness error, got %v", err)
	}
}

// --- randomized equivalence properties ---

// randomDataset builds a pseudo-random, hub-shaped dataset (mimicking
// the paper's "sparse with small diameter, with hub nodes" observation).
func randomDataset(seed int64, n int) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	ents := make([]string, 12)
	for i := range ents {
		ents[i] = fmt.Sprintf("http://e/%d", i)
	}
	preds := []string{"http://p/a", "http://p/b", "http://p/c"}
	types := []string{"http://t/T1", "http://t/T2"}
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(ents[rng.Intn(len(ents))])
		switch rng.Intn(4) {
		case 0:
			out = append(out, rdf.Triple{S: s,
				P: rdf.NewIRI(sparql.RDFType),
				O: rdf.NewIRI(types[rng.Intn(len(types))])})
		case 1:
			out = append(out, rdf.Triple{S: s,
				P: rdf.NewIRI(preds[rng.Intn(len(preds))]),
				O: rdf.NewLiteral(fmt.Sprintf("%d", rng.Intn(6)))})
		default:
			out = append(out, rdf.Triple{S: s,
				P: rdf.NewIRI(preds[rng.Intn(len(preds))]),
				O: rdf.NewIRI(ents[rng.Intn(len(ents))])})
		}
	}
	return out
}

// randomQuery builds a random star/chain join query over the synthetic
// vocabulary.
func randomQuery(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("SELECT * {\n")
	n := rng.Intn(4) + 1
	vars := []string{"v0"}
	for i := 0; i < n; i++ {
		subj := "?" + vars[rng.Intn(len(vars))]
		pred := []string{"<http://p/a>", "<http://p/b>", "<http://p/c>", "?p" + fmt.Sprint(i)}[rng.Intn(4)]
		newVar := fmt.Sprintf("v%d", len(vars))
		var obj string
		switch rng.Intn(3) {
		case 0:
			obj = fmt.Sprintf("<http://e/%d>", rng.Intn(12))
		case 1:
			obj = "?" + newVar
			vars = append(vars, newVar)
		default:
			obj = "?" + vars[rng.Intn(len(vars))]
		}
		fmt.Fprintf(&b, "  %s %s %s .\n", subj, pred, obj)
	}
	b.WriteString("}")
	return b.String()
}

// TestHSPMatchesBruteForce: property — for random data and random join
// queries, the HSP plan executed on the column store returns exactly
// the brute-force multiset.
func TestHSPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randomDataset(seed, 150)
		b := store.NewBuilder(nil)
		seen := map[rdf.Triple]bool{}
		var uniq []rdf.Triple
		for _, tr := range ts {
			if !seen[tr] {
				seen[tr] = true
				uniq = append(uniq, tr)
			}
			b.Add(tr)
		}
		st := b.Build()
		for k := 0; k < 4; k++ {
			src := randomQuery(rng)
			q, err := sparql.Parse(src)
			if err != nil {
				return false
			}
			p, err := core.NewPlanner().Plan(q)
			if err != nil {
				return false
			}
			res, err := New(ColumnSource{st}).Execute(context.Background(), p)
			if err != nil {
				t.Logf("exec error on %s: %v", src, err)
				return false
			}
			if multiset(res) != bruteForce(uniq, q) {
				t.Logf("mismatch for query:\n%s\nplan:\n%s", src, algebra.Explain(p.Root, nil))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSubstratesAgree: property — the column store and the RDF-3X
// compressed indexes produce identical results for the same plan.
func TestSubstratesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := randomDataset(seed, 120)
		b := store.NewBuilder(nil)
		for _, tr := range ts {
			b.Add(tr)
		}
		st := b.Build()
		rx, err := rdf3x.Build(st)
		if err != nil {
			return false
		}
		for k := 0; k < 3; k++ {
			q, err := sparql.Parse(randomQuery(rng))
			if err != nil {
				return false
			}
			p, err := core.NewPlanner().Plan(q)
			if err != nil {
				return false
			}
			mres, err := New(ColumnSource{st}).Execute(context.Background(), p)
			if err != nil {
				return false
			}
			rres, err := New(RDF3XSource{rx}).Execute(context.Background(), p)
			if err != nil {
				return false
			}
			if multiset(mres) != multiset(rres) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExplainWithCards(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?jrnl {
			?jrnl rdf:type <http://bench/Journal> .
			?jrnl <http://dcterms/issued> ?yr .
		}`)
	out, err := New(ColumnSource{st}).Explain(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(2)") {
		t.Errorf("explain missing cardinalities:\n%s", out)
	}
}

func TestAggregatedScanPreservesMultiplicity(t *testing.T) {
	doc := `
<http://ex/a1> <http://dc/creator> <http://ex/p1> .
<http://ex/a1> <http://dc/creator> <http://ex/p2> .
<http://ex/a2> <http://dc/creator> <http://ex/p1> .
`
	st := buildStore(t, doc)
	rx, err := rdf3x.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	q := sparql.MustParse(`SELECT ?a { ?a <http://dc/creator> ?who }`)
	// Scan (p)(s)(o) with the unused ?who in the third position,
	// aggregated: each (p,s) pair carries its count.
	scan, err := algebra.NewScan(q.Patterns[0], store.PSO)
	if err != nil {
		t.Fatal(err)
	}
	scan.Aggregated = true
	p := &algebra.Plan{Root: &algebra.Project{In: scan, Cols: q.ProjectedVars()}, Query: q, Planner: "test"}
	res, err := New(RDF3XSource{rx}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// ?a=a1 must appear twice (two creators), a2 once.
	if res.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (multiset semantics)\n%s", res.Len(), res)
	}
	// The column store groups the sorted range on the fly: identical
	// results without materialised aggregated indexes.
	cres, err := New(ColumnSource{st}).Execute(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if cres.String() != res.String() {
		t.Errorf("substrates disagree on aggregated scan:\n%s\nvs\n%s", cres, res)
	}
}
