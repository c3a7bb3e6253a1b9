package rdf_test

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// hostileObjects are the object terms of the hostile result-body
// fixture: every escaping rule of both wire formats, in N-Triples form.
var hostileObjects = []string{
	`"plain"`,
	`"quote \" and backslash \\"`,
	`"newline\nreturn\rtab\t"`,
	`"html <b>&amp;</b>"`,
	"\"controls \x00\x01\b\f\x1f\"",
	"\"separators   and  \"",
	"\"invalid \xff\xfe utf8 \xc3\"",
	`"unicode é ü 漢字 😀"`,
	`"\"1940\"^^<http://www.w3.org/2001/XMLSchema#integer>"`,
	`""`,
	`<http://example.org/o?x=1&y=<2>`,
	`_:b0`,
}

// writeAll renders triples with the N-Triples writer.
func writeAll(t *testing.T, ts []rdf.Triple) string {
	t.Helper()
	var b strings.Builder
	w := rdf.NewWriter(&b)
	for _, tr := range ts {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// generatedLines renders a few triples of a generated dataset.
func generatedLines(t testing.TB, st *store.Store, n int) []string {
	d := st.Dict()
	var out []string
	rel := st.Rel(store.SPO)
	for i := 0; i < len(rel) && len(out) < n; i += len(rel)/n + 1 {
		tr := rdf.Triple{S: d.Term(rel[i][store.S]), P: d.Term(rel[i][store.P]), O: d.Term(rel[i][store.O])}
		out = append(out, tr.String()+" .")
	}
	return out
}

// FuzzNTriples: the N-Triples reader — the loader behind LoadNTriples,
// Txn.LoadNTriples and the server's POST /update — never panics, and
// every document it accepts survives read → write → read: the second
// write is byte-identical to the first, and for valid UTF-8 input the
// re-read triples equal the first read's. (Only invalid UTF-8 may move,
// once: the writer re-encodes a literal that needs escaping rune by
// rune, turning invalid bytes into U+FFFD.)
func FuzzNTriples(f *testing.F) {
	f.Add(`<s> <p> _:b2.`)
	f.Add(`<s> <p> "x"@en.`)
	f.Add(`<s> <p> <o>.` + "\n" + `<s> <p> "x".` + "\n" + `<s> <p> "x"^^<dt>.`)
	f.Add("# comment\n\n_:a.b <p> _:b. . # trailing\n<s> <p> \"\\u00e9\\U0001F600\" .")
	for i, o := range hostileObjects {
		f.Add("<http://example.org/s" + string(rune('a'+i)) + "> <http://example.org/o> " + o + " .")
	}
	for _, l := range generatedLines(f, sp2bench.Generate(500, 1), 8) {
		f.Add(l)
	}
	for _, l := range generatedLines(f, yago.Generate(500, 1), 8) {
		f.Add(l)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		first, err := rdf.ParseNTriples(doc)
		if err != nil {
			return
		}
		d1 := writeAll(t, first)
		second, err := rdf.ParseNTriples(d1)
		if err != nil {
			t.Fatalf("written document does not re-read: %v\n%s", err, d1)
		}
		if d2 := writeAll(t, second); d2 != d1 {
			t.Fatalf("write is not a fixpoint:\n%q\nvs\n%q", d1, d2)
		}
		if len(second) != len(first) {
			t.Fatalf("re-read %d triples, first read %d", len(second), len(first))
		}
		if !utf8.ValidString(doc) {
			return
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("triple %d changed across write: %v vs %v", i, first[i], second[i])
			}
		}
	})
}
