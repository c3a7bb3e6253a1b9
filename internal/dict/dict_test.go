package dict

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/sparql-hsp/hsp/internal/rdf"
)

func TestEncodeDecode(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("http://ex/a"))
	b := d.Encode(rdf.NewIRI("http://ex/b"))
	lit := d.Encode(rdf.NewLiteral("http://ex/a")) // same spelling, different kind
	if a == b || a == lit || b == lit {
		t.Fatalf("IDs not distinct: %d %d %d", a, b, lit)
	}
	if a != 1 || b != 2 || lit != 3 {
		t.Errorf("IDs not dense from 1: %d %d %d", a, b, lit)
	}
	if got := d.Encode(rdf.NewIRI("http://ex/a")); got != a {
		t.Errorf("re-encode returned %d, want %d", got, a)
	}
	if d.Term(a) != rdf.NewIRI("http://ex/a") {
		t.Errorf("Term(%d) = %v", a, d.Term(a))
	}
	if !d.IsLiteral(lit) || d.IsLiteral(a) {
		t.Error("IsLiteral misclassifies")
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestLookup(t *testing.T) {
	d := New()
	if _, ok := d.Lookup(rdf.NewIRI("missing")); ok {
		t.Error("Lookup of missing term reported ok")
	}
	id := d.Encode(rdf.NewLiteral("x"))
	got, ok := d.Lookup(rdf.NewLiteral("x"))
	if !ok || got != id {
		t.Errorf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestTermPanicsOnInvalid(t *testing.T) {
	d := New()
	for _, id := range []ID{Invalid, 1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
}

func TestEncodeTripleRoundTrip(t *testing.T) {
	d := New()
	tr := rdf.Triple{
		S: rdf.NewIRI("http://ex/s"),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewLiteral("1940"),
	}
	s, p, o := d.EncodeTriple(tr)
	if got := d.DecodeTriple(s, p, o); got != tr {
		t.Errorf("round trip = %v, want %v", got, tr)
	}
}

// TestRoundTripProperty: Encode then Term is the identity for arbitrary terms.
func TestRoundTripProperty(t *testing.T) {
	d := New()
	f := func(v string, kind uint8) bool {
		term := rdf.Term{Kind: rdf.TermKind(kind % 3), Value: v}
		id := d.Encode(term)
		return d.Term(id) == term
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentEncode exercises the locking paths: many goroutines encode
// overlapping term sets; afterwards every term must decode to itself and
// equal spellings must have received a single ID.
func TestConcurrentEncode(t *testing.T) {
	d := New()
	const workers = 8
	const terms = 200
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, terms)
			for i := 0; i < terms; i++ {
				ids[w][i] = d.Encode(rdf.NewIRI(fmt.Sprintf("t%d", i)))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := 0; i < terms; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got ID %d for term %d, worker 0 got %d", w, ids[w][i], i, ids[0][i])
			}
		}
	}
	if d.Len() != terms {
		t.Errorf("Len = %d, want %d", d.Len(), terms)
	}
}

// TestEncodeAll: the batch intern returns Encode's IDs in input order —
// known terms keep theirs, new terms get dense fresh ones, a term
// repeated within the batch gets one ID — and an all-known batch
// leaves the dictionary untouched.
func TestEncodeAll(t *testing.T) {
	d := New()
	a := d.Encode(rdf.NewIRI("a"))
	ids := d.EncodeAll([]rdf.Term{rdf.NewIRI("b"), rdf.NewIRI("a"), rdf.NewLiteral("b"), rdf.NewIRI("b")})
	if want := []ID{a + 1, a, a + 2, a + 1}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("EncodeAll = %v, want %v", ids, want)
	}
	for i, term := range []rdf.Term{rdf.NewIRI("b"), rdf.NewIRI("a"), rdf.NewLiteral("b")} {
		if got := d.Term(ids[i]); got != term {
			t.Errorf("Term(%d) = %v, want %v", ids[i], got, term)
		}
		if got, ok := d.Lookup(term); !ok || got != ids[i] {
			t.Errorf("Lookup(%v) = (%d,%v), want (%d,true)", term, got, ok, ids[i])
		}
	}
	if again := d.EncodeAll([]rdf.Term{rdf.NewLiteral("b"), rdf.NewIRI("a")}); again[0] != a+2 || again[1] != a || d.Len() != 3 {
		t.Fatalf("all-known batch = %v, Len %d; want [%d %d], Len 3", again, d.Len(), a+2, a)
	}
	if got := d.EncodeAll(nil); len(got) != 0 {
		t.Fatalf("EncodeAll(nil) = %v", got)
	}
}

// TestConcurrentGrowthReaders is the MVCC-sharing scenario: snapshot
// readers decode established IDs (wait-free Term/Kind/Len and locked
// Lookup) while a committing writer appends new terms, one at a time
// and in EncodeAll batches. Run with -race.
func TestConcurrentGrowthReaders(t *testing.T) {
	d := New()
	const pre = 512
	for i := 0; i < pre; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("pre%d", i)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ID(i%pre + 1)
				want := rdf.NewIRI(fmt.Sprintf("pre%d", i%pre))
				if got := d.Term(id); got != want {
					t.Errorf("Term(%d) = %v, want %v", id, got, want)
					return
				}
				if got, ok := d.Lookup(want); !ok || got != id {
					t.Errorf("Lookup(%v) = (%d,%v), want (%d,true)", want, got, ok, id)
					return
				}
				if n := d.Len(); n < pre {
					t.Errorf("Len shrank to %d", n)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 4096; i++ {
		id := d.Encode(rdf.NewLiteral(fmt.Sprintf("new%d", i)))
		if got := d.Term(id); got != rdf.NewLiteral(fmt.Sprintf("new%d", i)) {
			t.Fatalf("writer read back %v for new%d", got, i)
		}
	}
	for b := 0; b < 16; b++ {
		batch := make([]rdf.Term, 256)
		for i := range batch {
			batch[i] = rdf.NewLiteral(fmt.Sprintf("batch%d.%d", b, i))
		}
		for i, id := range d.EncodeAll(batch) {
			if got := d.Term(id); got != batch[i] {
				t.Fatalf("writer read back %v for %v", got, batch[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if d.Len() != pre+2*4096 {
		t.Errorf("Len = %d, want %d", d.Len(), pre+2*4096)
	}
}
