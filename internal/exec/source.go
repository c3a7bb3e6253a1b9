// Package exec is the physical execution engine: a batch-at-a-time
// interpreter for the logical plans of package algebra, with merge
// joins, hash joins, filters and projections over either storage
// substrate — the MonetDB-style column store (sorted arrays, binary
// search) or the RDF-3X-style compressed indexes. Operators exchange
// batches of up to 8192 rows of dictionary IDs, one column per variable
// slot, drawn from a pool shared across runs; cancellation, analyze
// metrics and the merge joins' input-order check run once per batch.
//
// A merge-join input that violates its sort order aborts the query
// with an error instead of silently producing wrong results.
package exec

import (
	"github.com/sparql-hsp/hsp/internal/btree"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf3x"
	"github.com/sparql-hsp/hsp/internal/store"
)

// Source is the access-path abstraction both storage substrates provide:
// sorted range scans over any of the six orderings.
type Source interface {
	// Name identifies the substrate in reports ("monet", "rdf3x").
	Name() string
	Dict() *dict.Dict
	NumTriples() int
	// Scan returns the triples whose leading components under o equal
	// prefix, in o's sort order, components permuted per o.
	Scan(o store.Ordering, prefix []dict.ID) TripleIter
	// Count returns the number of triples a Scan with the same
	// arguments would yield, used for plan-figure annotations.
	Count(o store.Ordering, prefix []dict.ID) int
}

// TripleIter streams permuted triples from a Scan.
type TripleIter interface {
	// Next returns the next triple (components in ordering sequence).
	Next() ([3]dict.ID, bool)
}

// AggregatedSource is implemented by substrates that additionally offer
// RDF-3X's aggregated two-column indexes with occurrence counts.
type AggregatedSource interface {
	Source
	// ScanPairs yields the distinct leading pairs of ordering o matching
	// prefix, each with the number of full triples it aggregates.
	ScanPairs(o store.Ordering, prefix []dict.ID) PairIter
}

// PairIter streams aggregated pairs.
type PairIter interface {
	Next() (x, y dict.ID, count uint64, ok bool)
}

// ColumnSource adapts the column store (the MonetDB substrate).
type ColumnSource struct {
	St *store.Store
}

// Name implements Source.
func (c ColumnSource) Name() string { return "monet" }

// Dict implements Source.
func (c ColumnSource) Dict() *dict.Dict { return c.St.Dict() }

// NumTriples implements Source.
func (c ColumnSource) NumTriples() int { return c.St.NumTriples() }

// Scan implements Source via binary search on the sorted relation.
func (c ColumnSource) Scan(o store.Ordering, prefix []dict.ID) TripleIter {
	lo, hi := c.St.Range(o, prefix)
	return &sliceIter{rel: c.St.Rel(o), perm: o.Perm(), pos: lo, end: hi}
}

// Count implements Source via binary search.
func (c ColumnSource) Count(o store.Ordering, prefix []dict.ID) int {
	return c.St.Count(o, prefix)
}

// ScanRange implements MorselSource: scans are contiguous row ranges of
// the sorted relation, so they split into morsels for free.
func (c ColumnSource) ScanRange(o store.Ordering, prefix []dict.ID) (lo, hi int) {
	return c.St.Range(o, prefix)
}

// ScanSlice implements MorselSource.
func (c ColumnSource) ScanSlice(o store.Ordering, lo, hi int) TripleIter {
	return &sliceIter{rel: c.St.Rel(o), perm: o.Perm(), pos: lo, end: hi}
}

// ScanPairs implements AggregatedSource by grouping the sorted range on
// the fly. The column store has no materialised aggregated indexes (the
// speedup belongs to RDF-3X), but plans carrying aggregated scans stay
// executable on either substrate.
func (c ColumnSource) ScanPairs(o store.Ordering, prefix []dict.ID) PairIter {
	lo, hi := c.St.Range(o, prefix)
	perm := o.Perm()
	return &groupingPairIter{rel: c.St.Rel(o), a: perm[0], b: perm[1], pos: lo, end: hi}
}

type groupingPairIter struct {
	rel  []store.Triple
	a, b store.Pos
	pos  int
	end  int
}

func (g *groupingPairIter) Next() (dict.ID, dict.ID, uint64, bool) {
	if g.pos >= g.end {
		return 0, 0, 0, false
	}
	x, y := g.rel[g.pos][g.a], g.rel[g.pos][g.b]
	n := uint64(0)
	for g.pos < g.end && g.rel[g.pos][g.a] == x && g.rel[g.pos][g.b] == y {
		n++
		g.pos++
	}
	return x, y, n, true
}

type sliceIter struct {
	rel  []store.Triple
	perm [3]store.Pos
	pos  int
	end  int
}

func (it *sliceIter) Next() ([3]dict.ID, bool) {
	if it.pos >= it.end {
		return [3]dict.ID{}, false
	}
	t := it.rel[it.pos]
	it.pos++
	return [3]dict.ID{t[it.perm[0]], t[it.perm[1]], t[it.perm[2]]}, true
}

// RDF3XSource adapts the compressed-index store.
type RDF3XSource struct {
	St *rdf3x.Store
}

// Name implements Source.
func (r RDF3XSource) Name() string { return "rdf3x" }

// Dict implements Source.
func (r RDF3XSource) Dict() *dict.Dict { return r.St.Dict() }

// NumTriples implements Source.
func (r RDF3XSource) NumTriples() int { return r.St.NumTriples() }

// Scan implements Source by decompressing the clustered index.
func (r RDF3XSource) Scan(o store.Ordering, prefix []dict.ID) TripleIter {
	return treeIter{it: r.St.Scan(o, prefix)}
}

// Count implements Source from the one-value/aggregated indexes.
func (r RDF3XSource) Count(o store.Ordering, prefix []dict.ID) int {
	return r.St.Count(o, prefix)
}

type treeIter struct {
	it *btree.PrefixIterator
}

func (t treeIter) Next() ([3]dict.ID, bool) {
	e, ok := t.it.Next()
	if !ok {
		return [3]dict.ID{}, false
	}
	return [3]dict.ID{e.Key[0], e.Key[1], e.Key[2]}, true
}

// ScanPairs implements AggregatedSource over the aggregated indexes.
func (r RDF3XSource) ScanPairs(o store.Ordering, prefix []dict.ID) PairIter {
	return pairIter{it: r.St.ScanAggregated(rdf3x.PairOf(o), prefix)}
}

type pairIter struct {
	it *btree.PrefixIterator
}

func (p pairIter) Next() (dict.ID, dict.ID, uint64, bool) {
	e, ok := p.it.Next()
	if !ok {
		return 0, 0, 0, false
	}
	return e.Key[0], e.Key[1], e.Payload, true
}
