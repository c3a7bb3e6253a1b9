package rdf

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://a/b"), "<http://a/b>"},
		{NewLiteral("1940"), `"1940"`},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewLiteral("a\nb"), `"a\nb"`},
		{NewBlank("b0"), "_:b0"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.term, got, tt.want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	if NewIRI("a").Compare(NewLiteral("a")) >= 0 {
		t.Error("IRI should order before literal of same value")
	}
	if NewIRI("a").Compare(NewIRI("b")) >= 0 {
		t.Error("a should order before b")
	}
	if NewIRI("a").Compare(NewIRI("a")) != 0 {
		t.Error("equal terms should compare 0")
	}
}

func TestTripleValid(t *testing.T) {
	tests := []struct {
		tr   Triple
		want bool
	}{
		{Triple{NewIRI("s"), NewIRI("p"), NewIRI("o")}, true},
		{Triple{NewIRI("s"), NewIRI("p"), NewLiteral("o")}, true},
		{Triple{NewBlank("s"), NewIRI("p"), NewLiteral("o")}, true},
		{Triple{NewLiteral("s"), NewIRI("p"), NewIRI("o")}, false},
		{Triple{NewIRI("s"), NewLiteral("p"), NewIRI("o")}, false},
		{Triple{NewIRI("s"), NewBlank("p"), NewIRI("o")}, false},
	}
	for _, tt := range tests {
		if got := tt.tr.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.tr, got, tt.want)
		}
	}
}

func TestParseNTriplesBasic(t *testing.T) {
	doc := `
# a comment
<http://ex/s> <http://ex/p> <http://ex/o> .
<http://ex/s> <http://ex/p> "lit with \"quotes\" and \\ and \t" .

<http://ex/s> <http://ex/p> "typed"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://ex/s> <http://ex/p> "franc"@fr .
_:node1 <http://ex/p> _:node2 . # trailing comment
`
	got, err := ParseNTriples(doc)
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d triples, want 5", len(got))
	}
	if got[1].O.Value != "lit with \"quotes\" and \\ and \t" {
		t.Errorf("escape handling wrong: %q", got[1].O.Value)
	}
	if got[2].O.Value != `typed^^<http://www.w3.org/2001/XMLSchema#string>` {
		t.Errorf("datatype suffix not preserved: %q", got[2].O.Value)
	}
	if got[3].O.Value != "franc@fr" {
		t.Errorf("lang suffix not preserved: %q", got[3].O.Value)
	}
	if got[4].S.Kind != Blank || got[4].O.Kind != Blank {
		t.Errorf("blank nodes not parsed: %v", got[4])
	}
}

// TestParseNTriplesDotTouchingLastTerm: the terminating '.' may follow
// the object with no space between — also after a blank-node label or a
// language tag, which are read up to the next space and so must leave a
// final '.' alone. Tokens whose '.' is followed by more of the statement
// keep it, exactly as before.
func TestParseNTriplesDotTouchingLastTerm(t *testing.T) {
	s, p := NewIRI("http://ex/s"), NewIRI("http://ex/p")
	for _, tc := range []struct {
		line string
		want Triple
	}{
		{`<http://ex/s> <http://ex/p> _:b2.`, Triple{s, p, NewBlank("b2")}},
		{`<http://ex/s> <http://ex/p> "x"@en.`, Triple{s, p, NewLiteral("x@en")}},
		{`<http://ex/s> <http://ex/p> "x"@en-GB.	# comment`, Triple{s, p, NewLiteral("x@en-GB")}},
		{`<http://ex/s> <http://ex/p> _:b2. # comment`, Triple{s, p, NewBlank("b2")}},
		{`<http://ex/s> <http://ex/p> <http://ex/o>.`, Triple{s, p, NewIRI("http://ex/o")}},
		{`<http://ex/s> <http://ex/p> "x".`, Triple{s, p, NewLiteral("x")}},
		{`<http://ex/s> <http://ex/p> "x"^^<http://ex/dt>.`, Triple{s, p, NewLiteral("x^^<http://ex/dt>")}},
		// Not touching the final '.': the token keeps its dots.
		{`<http://ex/s> <http://ex/p> _:b. .`, Triple{s, p, NewBlank("b.")}},
		{`_:a.b <http://ex/p> "x"@en.GB .`, Triple{NewBlank("a.b"), p, NewLiteral("x@en.GB")}},
		{`<http://ex/s> <http://ex/p> _:b...`, Triple{s, p, NewBlank("b..")}},
	} {
		got, err := ParseNTriples(tc.line)
		if err != nil {
			t.Errorf("%s: %v", tc.line, err)
			continue
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s: got %v, want %v", tc.line, got, tc.want)
		}
	}
	for _, bad := range []string{
		`<http://ex/s> <http://ex/p> _:.`,   // the dot is no label
		`<http://ex/s> <http://ex/p> "x"@.`, // nor a language tag
		`_:b. <http://ex/p> <http://ex/o>`,  // still no terminator
	} {
		if _, err := ParseNTriples(bad); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", bad)
		}
	}
}

func TestParseNTriplesUnicodeEscape(t *testing.T) {
	got, err := ParseNTriples(`<http://ex/s> <http://ex/p> "café" .`)
	if err != nil {
		t.Fatalf("ParseNTriples: %v", err)
	}
	if got[0].O.Value != "café" {
		t.Errorf("unicode escape: got %q", got[0].O.Value)
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://ex/s> <http://ex/p> <http://ex/o>`,           // missing dot
		`<http://ex/s> <http://ex/p> .`,                       // missing object
		`<http://ex/s> "p" <http://ex/o> .`,                   // literal predicate
		`"s" <http://ex/p> <http://ex/o> .`,                   // literal subject
		`<http://ex/s> <http://ex/p> "unterminated .`,         // unterminated literal
		`<http://ex/s <http://ex/p> <http://ex/o> .`,          // unterminated IRI
		`<> <http://ex/p> <http://ex/o> .`,                    // empty IRI
		`<http://ex/s> <http://ex/p> "x"^^bad .`,              // malformed datatype
		`<http://ex/s> <http://ex/p> <http://ex/o> . junk`,    // trailing junk
		`<http://ex/s> <http://ex/p> "bad escape \q" .`,       // unknown escape
		`<http://ex/s> <http://ex/p> "trunc \u00" .`,          // truncated unicode
		`_ <http://ex/p> <http://ex/o> .`,                     // malformed blank
		`<http://ex/s> <http://ex/p> "x"^^<http://no-close .`, // unterminated datatype IRI
	}
	for _, doc := range bad {
		if _, err := ParseNTriples(doc); err == nil {
			t.Errorf("ParseNTriples(%q) succeeded, want error", doc)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	_, err := ParseNTriples("<http://a> <http://b> <http://c> .\nbroken line\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q, want line number in message", pe.Error())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only a comment\n"))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on comment-only input = %v, want io.EOF", err)
	}
}

// TestRoundTrip checks Write→Parse is the identity for arbitrary triples
// whose values avoid raw control characters outside the escaped set.
func TestRoundTrip(t *testing.T) {
	sanitizeIRI := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r < 0x21 || r == '>' || r == '<' {
				continue
			}
			b.WriteRune(r)
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	sanitizeLit := func(s string) string {
		// Literals may contain almost anything; strip raw control characters
		// other than the escapable set, and the suffix markers the parser
		// would interpret as datatype/language tags.
		var b strings.Builder
		for _, r := range s {
			if r < 0x20 && r != '\n' && r != '\t' && r != '\r' {
				continue
			}
			if r == '@' || r == '^' {
				continue
			}
			b.WriteRune(r)
		}
		return b.String()
	}
	f := func(sv, pv, ov string, oLit bool) bool {
		tr := Triple{
			S: NewIRI(sanitizeIRI(sv)),
			P: NewIRI(sanitizeIRI(pv)),
		}
		if oLit {
			tr.O = NewLiteral(sanitizeLit(ov))
		} else {
			tr.O = NewIRI(sanitizeIRI(ov))
		}
		var sb strings.Builder
		w := NewWriter(&sb)
		if err := w.Write(tr); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := ParseNTriples(sb.String())
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0] == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
