package rdf

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// hostileStrings seeds both fuzz targets with every escaping rule's
// trigger: quotes, backslashes, the named and the \u00XX control
// characters, DEL, HTML-sensitive bytes, U+2028/U+2029, multi-byte
// runes, and invalid UTF-8 alone and beside an escapable character.
var hostileStrings = []string{
	"", "plain", `quote " and backslash \`, "newline\nreturn\rtab\t",
	"html <b>&amp;</b>", "controls \x00\x01\x08\x0c\x1f\x7f",
	"separators \u2028 and \u2029", "unicode é ü 漢字 😀",
	"invalid \xff\xfe utf8 \xc3", "invalid \xff beside a \" quote", "\xe2\x80", "\xe2\x80\xa8\xe2\x80",
	`"1940"^^<http://www.w3.org/2001/XMLSchema#integer>`,
}

// FuzzJSONString: the appended JSON string is byte for byte what
// encoding/json.Marshal renders, after whatever dst already held.
func FuzzJSONString(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendJSONString([]byte("x:"), s)
		if !bytes.Equal(got, append([]byte("x:"), want...)) {
			t.Errorf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got[2:], want)
		}
	})
}

// referenceString is Term.String as it was before the append-style
// writers replaced it (string concatenation around a strings.Builder
// escape pass) — the oracle FuzzNTriplesAppend compares against.
func referenceString(t Term) string {
	switch t.Kind {
	case Literal:
		s := t.Value
		if strings.ContainsAny(s, "\"\\\n\r\t") {
			var b strings.Builder
			for _, r := range s {
				switch r {
				case '"':
					b.WriteString(`\"`)
				case '\\':
					b.WriteString(`\\`)
				case '\n':
					b.WriteString(`\n`)
				case '\r':
					b.WriteString(`\r`)
				case '\t':
					b.WriteString(`\t`)
				default:
					b.WriteRune(r)
				}
			}
			s = b.String()
		}
		return `"` + s + `"`
	case Blank:
		return "_:" + t.Value
	default:
		return "<" + t.Value + ">"
	}
}

// FuzzNTriplesAppend: for every kind of term, the appended N-Triples
// form and String are byte for byte the reference rendering.
func FuzzNTriplesAppend(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s)
	}
	f.Add(strings.Repeat("long \" ", 40)) // past String's stack buffer
	f.Fuzz(func(t *testing.T, s string) {
		for _, term := range []Term{NewIRI(s), NewLiteral(s), NewBlank(s)} {
			want := referenceString(term)
			if got := term.AppendNTriples([]byte("x ")); string(got) != "x "+want {
				t.Errorf("%v %q: AppendNTriples = %q, want %q", term.Kind, s, got[2:], want)
			}
			if got := term.String(); got != want {
				t.Errorf("%v %q: String = %q, want %q", term.Kind, s, got, want)
			}
		}
	})
}
