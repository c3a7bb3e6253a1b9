package exec

import (
	"fmt"
	"math"
	"strings"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// --- scan ---

// scan evaluates one triple pattern over an access path, filling its
// batch's columns straight from the source's triple stream. The constant
// prefix has been resolved to IDs; the remaining components map to
// slots. Repeated variables within a pattern become equality checks.
type scan struct {
	in       TripleIter
	out      *batch
	capacity int // rows per batch: the smaller of batchRows and the scan's range
	ramp     ramp
	// slotOf[i] is the slot of the i-th emitted component (the components
	// after the prefix), or -1 for a repeat occurrence that must instead
	// equal the value just written to checkSlot[i].
	slotOf    []int
	checkSlot []int
}

func (s *scan) next() (*batch, error) {
	if s.fill(min(s.capacity, s.ramp.next())) == 0 {
		return nil, nil
	}
	return s.out, nil
}

// fill scans up to limit rows into the batch and returns their number.
func (s *scan) fill(limit int) int {
	b, off, n := s.out, 3-len(s.slotOf), 0
	for n < limit {
		t, ok := s.in.Next()
		if !ok {
			break
		}
		keep := true
		for i, slot := range s.slotOf {
			if v := t[off+i]; slot >= 0 {
				b.cols[slot][n] = v
			} else if b.cols[s.checkSlot[i]][n] != v {
				keep = false
				break
			}
		}
		if keep {
			n++
		}
	}
	b.n = n
	return n
}

// aggScan evaluates a pattern over the aggregated pair index: the third
// position's unused variable is dropped, and each pair is emitted count
// times to preserve SPARQL multiset semantics while decompressing only
// the (much smaller) aggregated index.
type aggScan struct {
	in       PairIter
	out      *batch
	capacity int
	ramp     ramp
	slotOf   [2]int // slots of the two pair components (-1: unbound)
	cur      [2]dict.ID
	pending  uint64
}

func (s *aggScan) next() (*batch, error) {
	b, n, limit := s.out, 0, min(s.capacity, s.ramp.next())
	for n < limit {
		if s.pending == 0 {
			x, y, count, ok := s.in.Next()
			if !ok {
				break
			}
			s.cur, s.pending = [2]dict.ID{x, y}, count
			continue
		}
		k := limit - n
		if s.pending < uint64(k) {
			k = int(s.pending)
		}
		for i, slot := range s.slotOf {
			if slot >= 0 {
				col := b.cols[slot][n : n+k]
				for j := range col {
					col[j] = s.cur[i]
				}
			}
		}
		n, s.pending = n+k, s.pending-uint64(k)
	}
	b.n = n
	if n == 0 {
		return nil, nil
	}
	return b, nil
}

// --- filter ---

// filter evaluates a comparison FILTER, compacting each input batch in
// place to the rows that pass.
type filter struct {
	in      input
	d       *dict.Dict
	op      sparql.CompareOp
	slot    int
	rSlot   int      // -1 when the right side is a constant
	rTerm   rdf.Term // constant right side
	rID     dict.ID  // dictionary ID of the constant (Invalid if absent)
	rInDict bool
	sel     []int32 // indexes, in the input batch, of the rows that passed
}

func (f *filter) next() (*batch, error) {
	for {
		b, err := f.in.next()
		if b == nil {
			return nil, err
		}
		lc := b.cols[f.slot]
		var rc []dict.ID
		if f.rSlot >= 0 {
			rc = b.cols[f.rSlot]
		}
		sel := f.sel[:0]
		// A nil column is unbound in every row: nothing passes.
		for i := 0; lc != nil && (f.rSlot < 0 || rc != nil) && i < b.n; i++ {
			rv := dict.Invalid
			if rc != nil {
				rv = rc[i]
			}
			if f.accept(lc[i], rv) {
				sel = append(sel, int32(i))
			}
		}
		f.sel = sel
		if len(sel) == 0 {
			continue
		}
		if len(sel) < b.n {
			for _, c := range b.cols {
				if c != nil {
					for w, i := range sel {
						c[w] = c[i]
					}
				}
			}
			b.n = len(sel)
		}
		return b, nil
	}
}

// consumed passes an early stop on: sel maps the last row the consumer
// read back to its position in the input batch.
func (f *filter) consumed(n int) { f.in.consumed(int(f.sel[n-1]) + 1) }

// accept decides one row: lv is the left slot's value, rv the right
// slot's when the filter compares two variables.
func (f *filter) accept(lv, rv dict.ID) bool {
	if lv == dict.Invalid {
		return false
	}
	if f.rSlot >= 0 {
		return rv != dict.Invalid && compareIDs(f.d, f.op, lv, rv)
	}
	switch f.op {
	case sparql.OpEq:
		return f.rInDict && lv == f.rID
	case sparql.OpNe:
		return !f.rInDict || lv != f.rID
	default:
		return opHolds(f.op, strings.Compare(f.d.Term(lv).Value, f.rTerm.Value))
	}
}

// --- projection ---

// project narrows batches to the projection columns (slot list
// precomputed by the compiler, including alias duplicates) by
// re-slicing: no value is copied.
type project struct {
	in    input
	slots []int
	out   batch
}

func (p *project) next() (*batch, error) {
	b, err := p.in.next()
	if b == nil {
		return nil, err
	}
	for i, s := range p.slots {
		p.out.cols[i] = b.cols[s]
	}
	p.out.n = b.n
	return &p.out, nil
}

func (p *project) consumed(n int) { p.in.consumed(n) }

// --- merge join ---

// mergeSide is one input of a merge join: the current batch, the
// position in it, and the order check's memory of the previous key.
type mergeSide struct {
	input
	desc string
	b    *batch // the current batch; nil once the input is exhausted
	i    int
	prev dict.ID // last key seen; dict.Invalid sorts before every key
}

// read is how many rows of the current batch a row-at-a-time join would
// have pulled by now — up to and including the current one — or, of an
// exhausted input, more than any batch holds (see input.consumed).
func (s *mergeSide) read() int {
	if s.b == nil {
		return math.MaxInt
	}
	return s.i + 1
}

// advance moves to the next row, pulling — and order-checking — the
// next batch when the current one is used up. It reports false at the
// end of the input or on error.
func (s *mergeSide) advance(slot int) (bool, error) {
	s.i++
	for s.b == nil || s.i >= s.b.n {
		b, err := s.next()
		s.b, s.i = b, 0
		if b == nil {
			return false, err
		}
		// Verify the batch really is sorted on the join slot, failing
		// the query instead of mis-joining.
		for _, v := range b.cols[slot][:b.n] {
			if v < s.prev {
				return false, fmt.Errorf("exec: %s: input not sorted on join variable (%d after %d)", s.desc, v, s.prev)
			}
			s.prev = v
		}
	}
	return true, nil
}

// mergeJoin joins two inputs sorted on the same slot, walking both by
// index. The right input's group of equal keys is joined where it lies
// when it ends inside its batch, and copied to a reusable columnar
// buffer when it reaches the batch's end (it may continue in the next
// batch, whose arrival invalidates this one); every (left row, group
// row) combination that also agrees on the other shared slots is
// written to the output batch.
type mergeJoin struct {
	rt    *runEnv
	l, r  mergeSide
	slot  int
	jc    *joinCols // a: left, b: right
	width int
	out   *batch

	err error
	// The current group: rows [g0, g1) of grp, all with key groupKey; gi
	// is the next group row for the current left row.
	grp        [][]dict.ID
	g0, g1, gi int
	groupKey   dict.ID
	inGroup    bool
	gbuf       *batch // storage of a copied group; nil until one is needed
	rslots     []int  // the slots the right input binds
	// prov records, on analyze runs, how far into their current batches
	// both inputs had been read when each row of the output batch was
	// emitted (two entries per row).
	prov []int
}

func (m *mergeJoin) next() (*batch, error) {
	if m.out == nil {
		m.out = m.rt.newBatch(m.width, m.jc.out, batchRows)
		_, m.err = m.l.advance(m.slot)
		if m.err == nil {
			_, m.err = m.r.advance(m.slot)
		}
	}
	out := m.out
	out.n, m.prov = 0, m.prov[:0]
	for m.err == nil {
		if m.inGroup {
			for lc := m.l.b.cols; m.gi < m.g1; m.gi++ {
				if out.n == batchRows {
					return out, nil
				}
				if m.jc.emit(out, lc, m.l.i, m.grp, m.gi) && m.rt.metrics != nil {
					m.prov = append(m.prov, m.l.read(), m.r.read())
				}
			}
			// The current left row exhausted the group; the next left row
			// may carry the same key and re-join it.
			if m.flush(&m.l, m.l.i) {
				return out, nil
			}
			var more bool
			more, m.err = m.l.advance(m.slot)
			if more && m.l.b.cols[m.slot][m.l.i] == m.groupKey {
				m.gi = m.g0
				continue
			}
			m.inGroup = false
		}
		if m.err != nil || m.l.b == nil || m.r.b == nil {
			break
		}
		lcol, rcol := m.l.b.cols[m.slot], m.r.b.cols[m.slot]
		switch lk, rk := lcol[m.l.i], rcol[m.r.i]; {
		case lk < rk:
			for m.l.i+1 < m.l.b.n && lcol[m.l.i+1] < rk {
				m.l.i++
			}
			if m.flush(&m.l, m.l.i) {
				return out, nil
			}
			_, m.err = m.l.advance(m.slot)
		case lk > rk:
			for m.r.i+1 < m.r.b.n && rcol[m.r.i+1] < lk {
				m.r.i++
			}
			if m.flush(&m.r, m.r.i) {
				return out, nil
			}
			_, m.err = m.r.advance(m.slot)
		default:
			if !m.collectGroup(rk) {
				return out, nil
			}
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	// One input ran out, so the join is complete; the rows of the other
	// input's batch past the current one were never looked at.
	m.l.consumed(m.l.read())
	m.r.consumed(m.r.read())
	if out.n == 0 {
		return nil, nil
	}
	return out, nil
}

// consumed passes an early stop on: the inputs go back to where they
// had been read to when the last row the consumer read was emitted.
func (m *mergeJoin) consumed(n int) {
	m.l.consumed(m.prov[2*n-2])
	m.r.consumed(m.prov[2*n-1])
}

// flush reports whether the output batch must be handed over before
// side s moves past row last of its batch. An output batch never mixes
// rows derived from two batches of one input: a short input so keeps
// the batches above it short (the scans' slow start carries upward),
// and an early stop can be passed on (consumed) as positions in the
// inputs' current batches.
func (m *mergeJoin) flush(s *mergeSide, last int) bool {
	return m.out.n > 0 && last+1 == s.b.n
}

// collectGroup gathers the right input's rows with key k, leaving the
// right side on the first row past them. It reports false, having done
// nothing, when the output batch must be flushed first.
func (m *mergeJoin) collectGroup(k dict.ID) bool {
	r := &m.r
	// extent returns the end of the run of k starting at the current row.
	extent := func() int {
		col, end := r.b.cols[m.slot], r.i+1
		for end < r.b.n && col[end] == k {
			end++
		}
		return end
	}
	end := extent()
	if m.flush(r, end-1) {
		return false
	}
	m.groupKey, m.inGroup = k, true
	if end < r.b.n {
		m.grp, m.g0, m.g1, m.gi, r.i = r.b.cols, r.i, end, r.i, end
		return true
	}
	// The group reaches the end of the batch and may go on in the next.
	n := 0
	for more := true; more; {
		start, end := r.i, extent()
		m.growGroup(n, n+end-start)
		for _, s := range m.rslots {
			copy(m.gbuf.cols[s][n:], r.b.cols[s][start:end])
		}
		n += end - start
		if end < r.b.n {
			r.i = end
			break
		}
		r.i = end - 1
		more, m.err = r.advance(m.slot)
		more = more && r.b.cols[m.slot][r.i] == k
	}
	m.grp, m.g0, m.g1, m.gi = m.gbuf.cols, 0, n, 0
	return true
}

// growGroup makes room for need rows in the group buffer, keeping the
// first n: a pooled batch, doubled when it runs out.
func (m *mergeJoin) growGroup(n, need int) {
	old := m.gbuf
	if old != nil && need <= len(old.cols[m.slot]) {
		return
	}
	m.gbuf = m.rt.newBatch(m.width, m.rslots, max(2*need, batchRows))
	if old != nil {
		for _, s := range m.rslots {
			copy(m.gbuf.cols[s], old.cols[s][:n])
		}
		m.rt.recycle(old)
	}
}

// --- hash join ---

// buildTable is the build side of a hash join: every build row in a
// columnar arena of pooled morselRows-row chunks, plus — shared by the
// sequential and the morsel-parallel build — a chained hash table over
// the rows, keyed by the join slots' IDs. Key-less joins (cross
// products, disconnected OPTIONALs) hash every row to the one bucket,
// so a probe walks the whole arena. Chains list rows in ascending
// order, which makes probe output order independent of how the arena
// was filled.
type buildTable struct {
	chunks []*batch // row r is row r%morselRows of chunks[r/morselRows]
	n      int
	keys   []int
	head   []int32 // bucket → first row + 1 (0: empty)
	next   []int32 // row → next row of its bucket + 1 (0: last)
	mask   uint64
}

// at locates build row r: its chunk's columns and its index in them.
func (t *buildTable) at(r int) ([][]dict.ID, int) {
	return t.chunks[r/morselRows].cols, r % morselRows
}

// hashRow mixes the key slots of row i into a bucket hash.
func hashRow(cols [][]dict.ID, keys []int, i int) uint64 {
	h := uint64(0)
	for _, k := range keys {
		h = (h ^ cols[k][i]) * 0x9E3779B97F4A7C15
	}
	return h ^ h>>29
}

// add appends a batch's rows (columns bound) to the arena.
func (t *buildTable) add(rt *runEnv, b *batch, bound []int) {
	for off := 0; off < b.n; {
		fill := t.n % morselRows
		if fill == 0 {
			t.chunks = append(t.chunks, rt.newBatch(len(b.cols), bound, morselRows))
		}
		ch, k := t.chunks[len(t.chunks)-1], min(morselRows-fill, b.n-off)
		for _, s := range bound {
			copy(ch.cols[s][fill:fill+k], b.cols[s][off:off+k])
		}
		t.n, off = t.n+k, off+k
	}
}

// index builds the hash chains over the arena's rows.
func (t *buildTable) index() error {
	if t.n > math.MaxInt32 {
		return fmt.Errorf("exec: hash join build side of %d rows exceeds the table's 2^31 limit", t.n)
	}
	buckets := 1
	for len(t.keys) > 0 && buckets < t.n {
		buckets <<= 1
	}
	t.head, t.next, t.mask = make([]int32, buckets), make([]int32, t.n), uint64(buckets-1)
	for r := t.n - 1; r >= 0; r-- {
		cols, i := t.at(r)
		h := hashRow(cols, t.keys, i) & t.mask
		t.next[r], t.head[h] = t.head[h], int32(r+1)
	}
	return nil
}

// buildFn produces a hash join's build side.
type buildFn func() (*buildTable, error)

// seqBuild drains an operator whose batches bind the slots in bound
// into a build table, the single-threaded build.
func seqBuild(in input, bound, keys []int) buildFn {
	return func() (*buildTable, error) {
		t := &buildTable{keys: keys}
		for {
			b, err := in.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return t, t.index()
			}
			t.add(in.rt, b, bound)
		}
	}
}

// hashJoin streams the probe input against a build table, preserving
// probe order: inner hash join, Cartesian product (no key slots) and —
// leftOuter — OPTIONAL, where the optional side is built and a probe
// row without a match is emitted padded. Output batches fill up across
// the rows of one probe batch; the state below resumes mid-chain.
type hashJoin struct {
	rt        *runEnv
	build     buildFn
	probe     input
	keys      []int
	jc        *joinCols // a: build side, b: probe side
	width     int
	leftOuter bool

	tbl     *buildTable
	out     *batch
	pb      *batch // current probe batch
	pi      int    // current probe row
	chain   int32  // next build row + 1 to try against the probe row
	pending bool   // the probe row has not produced output yet
	// prov records, on analyze runs, how far into the probe batch the
	// join had read as each row of the output batch was emitted.
	prov []int
}

func (h *hashJoin) next() (*batch, error) {
	if h.tbl == nil {
		t, err := h.build()
		if err != nil {
			return nil, err
		}
		h.tbl, h.out = t, h.rt.newBatch(h.width, h.jc.out, batchRows)
	}
	t, out := h.tbl, h.out
	out.n, h.prov = 0, h.prov[:0]
	for {
		for h.chain != 0 {
			if out.n == batchRows {
				return out, nil
			}
			cols, i := t.at(int(h.chain - 1))
			h.chain = t.next[h.chain-1]
			if keysEqual(cols, i, h.pb.cols, h.pi, h.keys) && h.jc.emit(out, cols, i, h.pb.cols, h.pi) {
				h.pending = false
				h.stamp()
			}
		}
		if h.pending && h.leftOuter {
			if out.n == batchRows {
				return out, nil
			}
			h.jc.pad(out, h.pb.cols, h.pi)
			h.stamp()
		}
		h.pending = false
		if h.pb == nil || h.pi+1 == h.pb.n {
			// An output batch holds rows of one probe batch only (see
			// mergeJoin.flush).
			if out.n > 0 {
				return out, nil
			}
			b, err := h.probe.next()
			h.pb, h.pi = b, -1
			if b == nil {
				return nil, err
			}
			continue
		}
		h.pi++
		h.pending = true
		h.chain = t.head[hashRow(h.pb.cols, h.keys, h.pi)&t.mask]
	}
}

// stamp records the provenance of the output row just written.
func (h *hashJoin) stamp() {
	if h.rt.metrics != nil {
		h.prov = append(h.prov, h.pi+1)
	}
}

// consumed passes an early stop on to the probe input.
func (h *hashJoin) consumed(n int) { h.probe.consumed(h.prov[n-1]) }

func keysEqual(x [][]dict.ID, i int, y [][]dict.ID, j int, keys []int) bool {
	for _, k := range keys {
		if x[k][i] != y[k][j] {
			return false
		}
	}
	return true
}
