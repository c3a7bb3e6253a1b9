package exec

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// Row is a tuple of variable bindings, indexed by compile-time slot
// number; dict.Invalid marks an unbound slot.
type Row []dict.ID

// batchRows is the capacity of a batch, in rows: the exchange morsel.
// It is a variable only so the in-package boundary tests can shrink it.
var batchRows = morselRows

// ramp is a leaf scan's slow start: its first batch holds at most 64
// rows and each later one twice the last, up to batchRows. A consumer
// that stops early — a merge join whose other input is short, the
// shape of every point lookup — has then not paid for a full batch of
// rows it never reads, while a long scan pays seven extra pulls. Joins
// need no ramp of their own: they hand over their output whenever an
// input batch ends (mergeJoin.flush).
type ramp int

func (r *ramp) next() int {
	q := min(max(int(*r), 64), batchRows)
	*r = ramp(2 * q)
	return q
}

// batch is the unit every operator produces and consumes: up to
// batchRows rows of dictionary IDs stored column-wise, one column per
// compile-time slot. A nil column means the slot is unbound in every
// row of the batch (the producing operator never binds it); a non-nil
// column holds n values, dict.Invalid where a row leaves the slot
// unbound (OPTIONAL padding).
type batch struct {
	cols [][]dict.ID
	n    int
	buf  []dict.ID // backing store the columns are carved from
}

// batchPool recycles batches across runs, so steady-state execution
// allocates no column storage.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// newBatch takes a batch from the run's free list (or the shared pool)
// and shapes it: width slots, a column of rows values for every slot in
// bound, nil elsewhere. Column contents are unspecified — producers
// write every bound column of every row they emit.
func (rt *runEnv) newBatch(width int, bound []int, rows int) *batch {
	rt.mu.Lock()
	var b *batch
	if k := len(rt.free); k > 0 {
		b, rt.free = rt.free[k-1], rt.free[:k-1]
	} else {
		b = batchPool.Get().(*batch)
		rt.owned = append(rt.owned, b)
	}
	rt.mu.Unlock()
	if need := len(bound) * rows; cap(b.buf) < need {
		b.buf = make([]dict.ID, need)
	}
	if cap(b.cols) < width {
		b.cols = make([][]dict.ID, width)
	}
	b.cols, b.n = b.cols[:width], 0
	clear(b.cols)
	for i, s := range bound {
		b.cols[s] = b.buf[i*rows : (i+1)*rows : (i+1)*rows]
	}
	return b
}

// clone copies the rows of src into a batch of its own, sized to fit:
// how an exchange worker hands a result to the gather while its own
// operators go on reusing src.
func (rt *runEnv) clone(src *batch) *batch {
	bound := make([]int, 0, len(src.cols))
	for s, c := range src.cols {
		if c != nil {
			bound = append(bound, s)
		}
	}
	b := rt.newBatch(len(src.cols), bound, src.n)
	for _, s := range bound {
		copy(b.cols[s], src.cols[s][:src.n])
	}
	b.n = src.n
	return b
}

// recycle returns a batch nobody reads any more to the run's free list.
func (rt *runEnv) recycle(b *batch) {
	rt.mu.Lock()
	rt.free = append(rt.free, b)
	rt.mu.Unlock()
}

// releaseBatches hands every batch the run took back to the shared
// pool — except outsized ones (a huge merge-join group), which would
// pin their memory to whichever operator drew them next. Only call once
// every worker has stopped.
func (rt *runEnv) releaseBatches() {
	for _, b := range rt.owned {
		if cap(b.buf) <= 64*morselRows {
			batchPool.Put(b)
		}
	}
	rt.owned, rt.free = nil, nil
}

// row copies row i of the batch into dst (len(dst) == len(b.cols)).
func (b *batch) row(i int, dst Row) {
	for s, c := range b.cols {
		if c != nil {
			dst[s] = c[i]
		} else {
			dst[s] = dict.Invalid
		}
	}
}

// operator is the contract every physical operator implements.
type operator interface {
	// next returns the operator's next batch of rows, or nil at the end
	// of the stream or on error. The batch is valid until the producer's
	// next call to next; until then the consumer owns its contents and
	// may compact it in place. Batches may be empty mid-stream.
	next() (*batch, error)
}

// stub yields no rows: a scan whose constant is absent from the data
// (err nil), or an open-time error carried into the pull protocol.
type stub struct{ err error }

func (s stub) next() (*batch, error) { return nil, s.err }

// input is a consumer's handle on one child operator. The per-pull
// bookkeeping lives here, once per batch: the cancellation poll, and on
// analyze runs the child's row count and wall time.
type input struct {
	op operator
	rt *runEnv
	m  *OpMetrics // the child's analyze counters; nil when not analyzing
	// timed adds wall time to m. Off on the cardinality-annotation path
	// and inside exchange workers, which share m and may only add to its
	// row count atomically.
	timed bool
	// counted is how many rows of the child's latest batch m.Rows holds.
	counted int
}

func (in *input) next() (*batch, error) {
	var start time.Time
	if in.timed {
		start = time.Now()
	}
	b, err := in.op.next()
	if in.timed {
		in.m.Wall += time.Since(start)
	}
	in.counted = 0
	if b != nil && in.m != nil {
		in.counted = b.n
		atomic.AddInt64(&in.m.Rows, int64(b.n))
	}
	// Polled after the pull, and only when the pull did not fail: the
	// child's own error (an open-time failure carried by a stub) outranks
	// the cancellation, so it reaches Run.Err even when the consumer only
	// got to run once the run had been closed.
	if err == nil && in.rt.cancelled() {
		return nil, errClosed
	}
	return b, err
}

// consumed tells the child that its consumer has stopped for good after
// reading only the first n rows of the batch it was last handed (a merge
// join whose other input ran out, a Run closed mid-batch). On analyze
// runs the unread rows come off the child's count and the child passes
// the news on to its own inputs — also when n is the whole batch: the
// child may have pulled on after emitting its last row — so Rows is
// everywhere the number of rows a row-at-a-time engine would have
// pulled, whatever the batch capacity. Counts are absolute, so a later
// call with a smaller n (an outer join stopping earlier still) is exact
// too; an n past the batch, an exhausted input's (mergeSide.read),
// changes nothing.
func (in *input) consumed(n int) {
	if in.m == nil || n > in.counted {
		return
	}
	atomic.AddInt64(&in.m.Rows, int64(n-in.counted))
	in.counted = n
	if op, ok := in.op.(interface{ consumed(n int) }); ok {
		op.consumed(n)
	}
}

// joinCols is a join's compile-time column plan. Compatible-mapping
// semantics (Schmidt et al.): two rows join when they agree on every
// slot bound in both — dict.Invalid is compatible with anything — and
// the output takes each slot from whichever side binds it.
type joinCols struct {
	a, b  []int // slots only the first / only the second input binds
	both  []int // slots both inputs bind
	check []int // the slots of both the join key does not already equate
	out   []int // every output slot: a, b and both
}

// newJoinCols plans a join of inputs binding slots a and b, keyed on
// the slots in key.
func newJoinCols(a, b, key []int) *joinCols {
	jc := &joinCols{}
	for _, s := range a {
		if !slices.Contains(b, s) {
			jc.a = append(jc.a, s)
			continue
		}
		jc.both = append(jc.both, s)
		if !slices.Contains(key, s) {
			jc.check = append(jc.check, s)
		}
	}
	for _, s := range b {
		if !slices.Contains(a, s) {
			jc.b = append(jc.b, s)
		}
	}
	jc.out = slices.Concat(jc.a, jc.b, jc.both)
	slices.Sort(jc.out)
	return jc
}

// emit appends the join of row i of x with row j of y to out, unless
// the rows disagree on a checked slot.
func (jc *joinCols) emit(out *batch, x [][]dict.ID, i int, y [][]dict.ID, j int) bool {
	for _, s := range jc.check {
		if xv, yv := x[s][i], y[s][j]; xv != yv && xv != dict.Invalid && yv != dict.Invalid {
			return false
		}
	}
	o := out.n
	for _, s := range jc.a {
		out.cols[s][o] = x[s][i]
	}
	for _, s := range jc.b {
		out.cols[s][o] = y[s][j]
	}
	for _, s := range jc.both {
		v := y[s][j]
		if v == dict.Invalid {
			v = x[s][i]
		}
		out.cols[s][o] = v
	}
	out.n++
	return true
}

// pad appends row j of y to out with the slots only x binds left
// unbound: the OPTIONAL row that found no match.
func (jc *joinCols) pad(out *batch, y [][]dict.ID, j int) {
	o := out.n
	for _, s := range jc.a {
		out.cols[s][o] = dict.Invalid
	}
	for _, s := range jc.b {
		out.cols[s][o] = y[s][j]
	}
	for _, s := range jc.both {
		out.cols[s][o] = y[s][j]
	}
	out.n++
}

// RowSet is the DISTINCT filter over ID rows — one per run, and one in
// the facade for deduplication across UNION branches. The identity key
// of a row (every column, eight bytes each) is built in a buffer the
// set reuses, so testing a duplicate row allocates nothing and a
// first-seen row costs the one string the map keeps.
type RowSet struct {
	seen map[string]struct{}
	key  []byte
}

// NewRowSet returns an empty set sized for about n rows.
func NewRowSet(n int) *RowSet {
	return &RowSet{seen: make(map[string]struct{}, n)}
}

// Add records r and reports whether it was absent before.
func (s *RowSet) Add(r Row) bool {
	s.key = s.key[:0]
	for _, v := range r {
		s.key = binary.LittleEndian.AppendUint64(s.key, v)
	}
	if _, dup := s.seen[string(s.key)]; dup {
		return false
	}
	s.seen[string(s.key)] = struct{}{}
	return true
}

func compareIDs(d *dict.Dict, op sparql.CompareOp, a, b dict.ID) bool {
	switch op {
	case sparql.OpEq:
		return a == b
	case sparql.OpNe:
		return a != b
	default:
		return opHolds(op, strings.Compare(d.Term(a).Value, d.Term(b).Value))
	}
}

func opHolds(op sparql.CompareOp, cmp int) bool {
	switch op {
	case sparql.OpEq:
		return cmp == 0
	case sparql.OpNe:
		return cmp != 0
	case sparql.OpLt:
		return cmp < 0
	case sparql.OpLe:
		return cmp <= 0
	case sparql.OpGt:
		return cmp > 0
	default:
		return cmp >= 0
	}
}
