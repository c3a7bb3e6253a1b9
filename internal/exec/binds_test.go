package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
)

// bindQuery matches journals by a parameterized title joined with their
// year — the prepared-statement shape: plan once, bind many.
const bindQuery = `
	PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	SELECT ?yr ?jrnl {
		?jrnl rdf:type <http://bench/Journal> .
		?jrnl <http://dc/title> $title .
		?jrnl <http://dcterms/issued> ?yr .
	}`

func TestBindScanPrefix(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, bindQuery)
	rx, err := rdf3x.Build(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{ColumnSource{st}, RDF3XSource{rx}} {
		c, err := New(src).Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", src.Name(), err)
		}
		if ps := c.Params(); len(ps) != 1 || ps[0] != "title" {
			t.Fatalf("%s: Params() = %v", src.Name(), ps)
		}
		for _, tt := range []struct {
			title string
			want  string
		}{
			{"Journal 1 (1940)", "1940"},
			{"Journal 1 (1941)", "1941"},
			{"No Such Journal", ""},
		} {
			res, err := c.ExecuteContext(context.Background(), Options{
				Binds: map[string]rdf.Term{"title": rdf.NewLiteral(tt.title)},
			})
			if err != nil {
				t.Fatalf("%s %q: %v", src.Name(), tt.title, err)
			}
			if tt.want == "" {
				if res.Len() != 0 {
					t.Errorf("%s %q: rows = %d, want 0", src.Name(), tt.title, res.Len())
				}
				continue
			}
			if res.Len() != 1 || res.Terms(0)["yr"].Value != tt.want {
				t.Errorf("%s %q: got %s", src.Name(), tt.title, res)
			}
		}
	}
}

func TestBindMissingParam(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, bindQuery)
	c, err := New(ColumnSource{st}).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExecuteContext(context.Background(), Options{})
	if !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("err = %v, want ErrUnboundParam", err)
	}
	// A run constructor error must not leak goroutines or require Close.
	run := c.RunContext(context.Background(), Options{Parallelism: 4})
	if run.Next() {
		t.Error("unbound run emitted a row")
	}
	if !errors.Is(run.Err(), ErrUnboundParam) {
		t.Errorf("run err = %v", run.Err())
	}
	run.Close()
}

// TestBindResolved exercises the batched fast path: Options.Resolved
// (pre-resolved via ResolveBinds/ResolveTerm) must behave exactly like
// Options.Binds — same rows, same absent-term emptiness, same
// missing-parameter error — without touching the dictionary at run
// start.
func TestBindResolved(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, bindQuery)
	c, err := New(ColumnSource{st}).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Journal 1 (1940)", "Journal 1 (1941)", "No Such Journal"} {
		binds := map[string]rdf.Term{"title": rdf.NewLiteral(title)}
		want, err := c.ExecuteContext(context.Background(), Options{Binds: binds})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ExecuteContext(context.Background(), Options{Resolved: c.ResolveBinds(binds)})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%q: resolved path differs:\n%s\nvs\n%s", title, got, want)
		}
	}
	// ResolveTerm matches ResolveBinds entry for entry.
	term := rdf.NewLiteral("Journal 1 (1940)")
	if rb := c.ResolveTerm(term); rb != c.ResolveBinds(map[string]rdf.Term{"x": term})["x"] {
		t.Error("ResolveTerm differs from ResolveBinds")
	}
	// Missing parameters still fail before the tree opens.
	_, err = c.ExecuteContext(context.Background(), Options{Resolved: ResolvedBinds{"other": {}}})
	if !errors.Is(err, ErrUnboundParam) {
		t.Fatalf("err = %v, want ErrUnboundParam", err)
	}
}

func TestBindFilterParam(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, `
		SELECT ?x ?yr {
			?x <http://dcterms/issued> ?yr .
			FILTER (?yr < $cut)
		}`)
	c, err := New(ColumnSource{st}).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for cut, want := range map[string]int{"1941": 1, "1999": 2, "1900": 0} {
		res, err := c.ExecuteContext(context.Background(), Options{
			Binds: map[string]rdf.Term{"cut": rdf.NewLiteral(cut)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Errorf("cut %s: rows = %d, want %d", cut, res.Len(), want)
		}
	}
}

// TestBindConcurrentRuns verifies one compiled plan serves concurrent
// runs with different bindings without interference (the plan itself is
// immutable; bindings live in the per-run environment).
func TestBindConcurrentRuns(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, bindQuery)
	c, err := New(ColumnSource{st}).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			title := "Journal 1 (1940)"
			want := "1940"
			if w%2 == 1 {
				title, want = "Journal 1 (1941)", "1941"
			}
			for i := 0; i < 20; i++ {
				res, err := c.ExecuteContext(context.Background(), Options{
					Binds:       map[string]rdf.Term{"title": rdf.NewLiteral(title)},
					Parallelism: 1 + w%3,
				})
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 1 || res.Terms(0)["yr"].Value != want {
					errs <- errors.New("wrong result under concurrent binds: " + res.String())
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

func TestOpStats(t *testing.T) {
	st := buildStore(t, journalDoc)
	_, p := hspPlan(t, bindQuery)
	c, err := New(ColumnSource{st}).Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Analyze: true, Binds: map[string]rdf.Term{"title": rdf.NewLiteral("Journal 1 (1940)")}}
	run := c.RunContext(context.Background(), opts)
	n := 0
	for run.Next() {
		n++
	}
	run.Close()
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	stats := run.OpStats()
	if len(stats) == 0 {
		t.Fatal("OpStats empty on an analyze run")
	}
	var rootRows int64 = -1
	for _, s := range stats {
		if s.Op == "" {
			t.Errorf("operator with empty label: %+v", s)
		}
		if rootRows < 0 {
			rootRows = s.Rows // pre-order: first entry is the plan root
		}
	}
	if rootRows != int64(n) {
		t.Errorf("root rows = %d, run emitted %d", rootRows, n)
	}
	// Non-analyze runs report nothing.
	run2 := c.RunContext(context.Background(), Options{Binds: opts.Binds})
	for run2.Next() {
	}
	run2.Close()
	if run2.OpStats() != nil {
		t.Error("OpStats non-nil without Analyze")
	}
}

func TestPlanCacheTemplateHits(t *testing.T) {
	pc := NewPlanCache(4)
	k := CacheKey{Query: "tpl"}
	pc.Add(k, 1, 0, false)
	if _, ok := pc.GetServe(k, CacheKey{Query: "raw", Raw: true}, 0, func(any) bool { return true }, func(v any) any { return v }); !ok {
		t.Fatal("miss")
	}
	s := pc.Stats()
	if s.Hits != 1 || s.TemplateHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}
