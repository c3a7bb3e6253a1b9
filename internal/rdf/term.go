// Package rdf defines the RDF data model used throughout the engine:
// terms (IRIs, literals, blank nodes), triples, and an N-Triples
// reader/writer used to load datasets.
//
// Following Definition 1 of the paper, an RDF triple is an element of
// U × U × (U ∪ L) where U is the set of URIs and L the set of literals.
// Blank nodes are additionally supported for real-world inputs and are
// treated like IRIs for planning purposes.
package rdf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI identifies a URI reference such as <http://example.org/a>.
	IRI TermKind = iota
	// Literal identifies a literal value such as "1940". Datatype and
	// language annotations are kept verbatim inside Value.
	Literal
	// Blank identifies a blank node such as _:b0.
	Blank
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. The zero value is an empty IRI, which is
// never produced by the parser and can be used as a sentinel.
type Term struct {
	Kind  TermKind
	Value string
}

// NewIRI returns an IRI term for the given absolute or prefixed URI.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewBlank returns a blank-node term with the given label (without "_:").
func NewBlank(v string) Term { return Term{Kind: Blank, Value: v} }

// IsZero reports whether t is the zero Term.
func (t Term) IsZero() bool { return t.Kind == IRI && t.Value == "" }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [96]byte // most terms fit: the string copy is then the only allocation
	return string(t.AppendNTriples(buf[:0]))
}

// AppendNTriples appends the term in N-Triples syntax to dst and
// returns the extended slice — the form the result encoders write
// with, so no term is rendered through an intermediate string.
func (t Term) AppendNTriples(dst []byte) []byte {
	switch t.Kind {
	case Literal:
		dst = append(dst, '"')
		dst = appendEscapedLiteral(dst, t.Value)
		return append(dst, '"')
	case Blank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	default:
		dst = append(dst, '<')
		dst = append(dst, t.Value...)
		return append(dst, '>')
	}
}

// Compare orders terms first by kind (IRI < Literal < Blank) and then by
// value. It is used only for deterministic output; the engine itself
// orders by dictionary ID.
func (t Term) Compare(o Term) int {
	if t.Kind != o.Kind {
		return int(t.Kind) - int(o.Kind)
	}
	return strings.Compare(t.Value, o.Value)
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple as an N-Triples statement without the final dot.
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Valid reports whether the triple satisfies Definition 1 of the paper:
// the subject must be an IRI or blank node, the predicate an IRI, and
// the object any term. IRIs and blank nodes must be non-empty (the zero
// Term is invalid in any position).
func (t Triple) Valid() bool {
	if t.S.Kind == Literal || t.S.Value == "" {
		return false
	}
	if t.P.Kind != IRI || t.P.Value == "" {
		return false
	}
	if t.O.Kind != Literal && t.O.Value == "" {
		return false
	}
	return true
}

// appendEscapedLiteral appends a literal's text with the N-Triples
// escapes applied. Text without an escapable character is copied byte
// for byte; text with one is re-encoded rune by rune, which also turns
// invalid UTF-8 into U+FFFD — the output has always been this way and
// served result bodies are compared byte for byte across versions.
func appendEscapedLiteral(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return append(dst, s...)
	}
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}
