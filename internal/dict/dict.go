// Package dict implements the mapping dictionary that replaces RDF
// constants (URIs and literals) by dense integer identifiers, the tactic
// the paper notes is used by "the majority of the systems" to avoid
// processing long strings during query evaluation.
//
// IDs are assigned densely starting at 1; ID 0 is reserved as the invalid
// ID. The dictionary records each term's kind so the planner can apply
// HEURISTIC 4 (literal objects are more selective than URI objects)
// without string inspection.
//
// The dictionary is append-only and built for MVCC sharing: every
// snapshot of a live dataset holds the same *Dict, which only ever
// grows. ID-to-term reads (Term, Kind, Len) are wait-free — they load
// an atomically published slice header and never take a lock — so
// readers decoding query results never block on a committing writer;
// term-to-ID reads (Lookup) share a read lock that writers hold only
// for the brief moment a genuinely new term is appended.
package dict

import (
	"sync"
	"sync/atomic"

	"github.com/sparql-hsp/hsp/internal/rdf"
)

// ID is a dictionary-encoded term identifier. 0 is never a valid ID.
type ID = uint64

// Invalid is the reserved "no such term" identifier.
const Invalid ID = 0

// Dict is a bidirectional term dictionary. It is safe for concurrent
// use: Encode (which may append) serialises writers, ID-to-term reads
// are lock-free against the published slice, and term-to-ID lookups
// take a read lock. Existing IDs are never reassigned or removed, so
// data structures built against the dictionary stay valid as it grows.
type Dict struct {
	mu  sync.RWMutex
	ids map[termKey]ID
	// terms holds the published ID-to-term mapping: terms[i] is the term
	// for ID i+1. Writers append under mu and publish a new slice header
	// with an atomic store; readers load the header without locking and
	// can trust every element below its length (elements are written
	// before the header that includes them is published, and published
	// elements are never overwritten).
	terms atomic.Pointer[[]rdf.Term]
}

// termKey keeps IRIs and literals with identical spellings distinct.
type termKey struct {
	kind  rdf.TermKind
	value string
}

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{ids: make(map[termKey]ID)}
	d.terms.Store(new([]rdf.Term))
	return d
}

// loadTerms returns the published ID-to-term slice, wait-free.
func (d *Dict) loadTerms() []rdf.Term { return *d.terms.Load() }

// Len returns the number of distinct terms in the dictionary.
func (d *Dict) Len() int { return len(d.loadTerms()) }

// Encode returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Encode(t rdf.Term) ID {
	k := termKey{t.Kind, t.Value}
	d.mu.RLock()
	id, ok := d.ids[k]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[k]; ok {
		return id
	}
	// Append-only growth: the element is written first, then the longer
	// header is published atomically, so concurrent lock-free readers
	// see either the old length or a fully initialised new element.
	terms := append(d.loadTerms(), t)
	d.terms.Store(&terms)
	id = ID(len(terms))
	d.ids[k] = id
	return id
}

// EncodeAll returns the IDs of ts, in order, assigning fresh ones to
// the terms that are new — the batch form of Encode for a commit's
// delta. Terms already present cost one shared read-locked pass; the
// new ones are appended under one write lock and published with one
// header store, however many there are.
func (d *Dict) EncodeAll(ts []rdf.Term) []ID {
	ids := make([]ID, len(ts))
	missing := false
	d.mu.RLock()
	for i, t := range ts {
		ids[i] = d.ids[termKey{t.Kind, t.Value}]
		missing = missing || ids[i] == Invalid
	}
	d.mu.RUnlock()
	if !missing {
		return ids
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	terms := d.loadTerms()
	published := len(terms)
	for i, t := range ts {
		if ids[i] != Invalid {
			continue
		}
		k := termKey{t.Kind, t.Value}
		id, ok := d.ids[k]
		if !ok {
			// Appends write past the published length only, like Encode's.
			terms = append(terms, t)
			id = ID(len(terms))
			d.ids[k] = id
		}
		ids[i] = id
	}
	if len(terms) > published {
		d.terms.Store(&terms)
	}
	return ids
}

// Lookup returns the ID of t if it is present, and Invalid otherwise.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[termKey{t.Kind, t.Value}]
	return id, ok
}

// Term returns the term for a valid ID. It panics on Invalid or
// out-of-range IDs, which always indicate an engine bug.
func (d *Dict) Term(id ID) rdf.Term {
	terms := d.loadTerms()
	if id == Invalid || int(id) > len(terms) {
		panic("dict: invalid ID")
	}
	return terms[id-1]
}

// Kind returns the term kind for a valid ID.
func (d *Dict) Kind(id ID) rdf.TermKind {
	return d.Term(id).Kind
}

// IsLiteral reports whether id denotes a literal term. Used by H4.
func (d *Dict) IsLiteral(id ID) bool { return d.Kind(id) == rdf.Literal }

// EncodeTriple encodes all three components of t.
func (d *Dict) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.S), d.Encode(t.P), d.Encode(t.O)
}

// DecodeTriple is the inverse of EncodeTriple.
func (d *Dict) DecodeTriple(s, p, o ID) rdf.Triple {
	return rdf.Triple{S: d.Term(s), P: d.Term(p), O: d.Term(o)}
}
