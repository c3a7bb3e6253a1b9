// External merge sort: the spill-to-disk machinery behind the sort
// operator. Rows are buffered up to a memory budget, overflowing
// buffers are sorted and written to temp files as compact varint-coded
// runs, and the output is a k-way ordered merge of the spilled runs
// plus the in-memory tail — so ORDER BY streams results of any size in
// bounded memory. Queries with a LIMIT that fits in the budget take a
// top-k short circuit that never touches disk.

package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// DefaultSortBudget is the in-memory buffer budget of the sort
// operator when the run does not set Options.SortBudget: 64 MiB.
const DefaultSortBudget = 64 << 20

// SortStats describes how a run executed its ORDER BY: which strategy
// the sort operator chose and how much it buffered and spilled. A run
// over a plan without a sort operator has no SortStats.
type SortStats struct {
	// Mode is "top-k" (bounded heap, never spills), "in-memory" (the
	// input fit in the budget) or "external" (spilled runs merged from
	// disk).
	Mode string
	// K is the top-k bound (OFFSET+LIMIT) when Mode is "top-k", 0
	// otherwise.
	K int
	// Budget is the memory budget the sort ran under, in bytes.
	Budget int64
	// PeakBytes is the largest estimated size of the in-memory row
	// buffer at any point of the sort.
	PeakBytes int64
	// SpilledRuns counts sorted runs written to temp files.
	SpilledRuns int64
	// SpilledBytes counts bytes written to temp files across all runs.
	SpilledBytes int64
}

// sortKey is one ORDER BY key resolved to an output-row column.
type sortKey struct {
	col  int
	desc bool
}

// resolveSortKeys maps ORDER BY keys to output columns, rejecting keys
// naming variables absent from the projection — the shared resolution
// step of Compiled.Sorted, Compiled.RowComparator and Result.SortBy,
// so the streaming and materialised paths cannot drift apart.
func resolveSortKeys(vars []sparql.Var, keys []sparql.OrderKey) ([]sortKey, error) {
	sk := make([]sortKey, len(keys))
	for i, k := range keys {
		col := -1
		for j, v := range vars {
			if v == k.Var {
				col = j
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("exec: ORDER BY variable ?%s is not in the projection", k.Var)
		}
		sk[i] = sortKey{col: col, desc: k.Desc}
	}
	return sk, nil
}

// renderOrderKeys renders ORDER BY keys for explain output.
func renderOrderKeys(keys []sparql.OrderKey) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("?" + string(k.Var))
		if k.Desc {
			b.WriteString(" desc")
		}
	}
	return b.String()
}

// compareRows orders two rows under the resolved sort keys, with the
// same semantics as Result.SortBy: term texts compare
// lexicographically, unbound slots sort first, DESC flips the whole
// comparison (unbound last).
func compareRows(d *dict.Dict, keys []sortKey, a, b Row) int {
	for _, k := range keys {
		x, y := a[k.col], b[k.col]
		if x == y {
			continue
		}
		var c int
		switch {
		case x == dict.Invalid:
			c = -1
		case y == dict.Invalid:
			c = 1
		default:
			c = strings.Compare(d.Term(x).Value, d.Term(y).Value)
		}
		if c == 0 {
			continue
		}
		if k.desc {
			return -c
		}
		return c
	}
	return 0
}

// rowFootprint estimates the in-memory size of one buffered row: the
// slice header plus its backing array.
func rowFootprint(width int) int64 { return int64(24 + 8*width) }

// rowArena carves buffered rows out of flat chunks, so materialising
// rows costs one allocation per chunk (a chunk per input batch), not
// one per row.
type rowArena struct {
	buf   []dict.ID
	width int
}

// take carves the next row, contents unspecified, from the arena; a
// fresh chunk, when one is needed, holds chunkRows rows.
func (a *rowArena) take(chunkRows int) Row {
	if len(a.buf) < a.width {
		a.buf = make([]dict.ID, a.width*max(chunkRows, 1))
	}
	r := a.buf[:a.width:a.width]
	a.buf = a.buf[a.width:]
	return r
}

// put appends a row to the batch (every column of the sort's output
// batches is bound).
func (b *batch) put(r Row) {
	for c, v := range r {
		b.cols[c][b.n] = v
	}
	b.n++
}

// --- spilled-run codec ---

// writeRowTo appends one row to a run file, each column as a uvarint
// (dict IDs are dense and small, so varints keep runs compact; the
// Invalid sentinel is 0 and encodes in one byte).
func writeRowTo(w *bufio.Writer, r Row, scratch []byte) error {
	for _, v := range r {
		n := binary.PutUvarint(scratch, v)
		if _, err := w.Write(scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

// spillRun is one sorted run on disk: rows written in sorted order,
// read back sequentially during the merge.
type spillRun struct {
	f     *os.File
	path  string
	rows  int
	width int
	br    *bufio.Reader
	read  int
}

// next reads the run's next row into r, or reports exhaustion.
func (s *spillRun) next(r Row) (Row, bool, error) {
	if s.read >= s.rows {
		return nil, false, nil
	}
	for i := range r {
		v, err := binary.ReadUvarint(s.br)
		if err != nil {
			return nil, false, fmt.Errorf("exec: corrupt sort run %s: %w", s.path, err)
		}
		r[i] = v
	}
	s.read++
	return r, true, nil
}

// remove closes and deletes the run file.
func (s *spillRun) remove() {
	if s.f != nil {
		s.f.Close()
		os.Remove(s.path)
		s.f = nil
	}
}

// --- k-way merge ---

// sortItem is one entry of the sort's heaps: a row plus its tie-break
// rank. In the k-way merge the rank is the index of the source the row
// came from — sources are numbered in spill order with the in-memory
// tail last, so equal keys emit in input order; in the top-k heap it is
// the row's input sequence number.
type sortItem struct {
	row Row
	ord int64
}

// rowHeap is a hand-rolled binary heap with less(root, x) for every x.
type rowHeap struct {
	items []sortItem
	less  func(a, b sortItem) bool
}

func (h *rowHeap) push(it sortItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *rowHeap) pop() sortItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *rowHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < n && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// rankedBefore orders two heap entries by sort key, then rank.
func rankedBefore(d *dict.Dict, keys []sortKey, a, b sortItem) bool {
	if c := compareRows(d, keys, a.row, b.row); c != 0 {
		return c < 0
	}
	return a.ord < b.ord
}

// --- sort operators ---

// extSort sorts its input with bounded memory: rows buffer up to the
// budget, full buffers spill to disk as sorted runs, and the output is
// a streaming merge of the spilled runs plus the in-memory tail, batch
// by batch. Temp files are deleted as soon as the merge exhausts, the
// input fails or is cancelled, or the run is closed early (via the
// runEnv cleanup hook).
type extSort struct {
	in      input
	rt      *runEnv
	d       *dict.Dict
	keys    []sortKey
	width   int
	budget  int64
	tempDir string
	stats   *SortStats

	ended   bool
	arena   rowArena
	buf     []Row
	bufSize int64
	runs    []*spillRun
	out     *batch

	// merge state (external mode)
	heap    *rowHeap
	sources []*spillRun // heap src i < len(sources) pulls sources[i]

	// in-memory tail: served after the spilled runs are exhausted in
	// merge mode, or as the whole output in in-memory mode.
	memIdx int
	err    error
}

func (s *extSort) next() (*batch, error) {
	if s.err != nil || s.ended {
		return nil, s.err
	}
	if s.out == nil { // first pull
		if !s.build() {
			return nil, s.err
		}
		s.out = s.rt.newBatch(s.width, identitySlots(s.width), batchRows)
	}
	out := s.out
	for out.n = 0; out.n < batchRows && s.err == nil; {
		if s.heap != nil {
			if len(s.heap.items) == 0 {
				break
			}
			s.popMerged(out)
		} else {
			if s.memIdx >= len(s.buf) {
				break
			}
			out.put(s.buf[s.memIdx])
			s.memIdx++
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if out.n == 0 {
		s.ended = true
		s.cleanup()
		return nil, nil
	}
	return out, nil
}

// build drains the input, spilling sorted runs whenever the buffer
// exceeds the budget, then prepares the merge (or the in-memory emit
// path when nothing spilled).
func (s *extSort) build() bool {
	s.arena.width = s.width
	for {
		b, err := s.in.next()
		if err != nil {
			s.fail(err)
			return false
		}
		if b == nil {
			break
		}
		for i := 0; i < b.n; i++ {
			// A chunk never holds more rows than the budget still admits.
			row := s.arena.take(min(b.n-i, int((s.budget-s.bufSize)/rowFootprint(s.width))+1))
			b.row(i, row)
			s.buf = append(s.buf, row)
			s.bufSize += rowFootprint(s.width)
			if s.bufSize > s.stats.PeakBytes {
				s.stats.PeakBytes = s.bufSize
			}
			if s.bufSize >= s.budget && len(s.buf) > 1 {
				if err := s.spill(); err != nil {
					s.fail(err)
					return false
				}
			}
		}
	}
	s.sortBuf()
	if len(s.runs) == 0 {
		s.stats.Mode = "in-memory"
		return true
	}
	s.stats.Mode = "external"
	return s.openMerge()
}

// sortBuf stably sorts the current buffer, preserving input order on
// equal keys.
func (s *extSort) sortBuf() {
	sort.SliceStable(s.buf, func(i, j int) bool {
		return compareRows(s.d, s.keys, s.buf[i], s.buf[j]) < 0
	})
}

// spill sorts the buffer and writes it to a fresh temp file as one run.
func (s *extSort) spill() error {
	s.sortBuf()
	dir := s.tempDir
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("exec: sort spill: %w", err)
		}
	}
	f, err := os.CreateTemp(dir, "hsp-sort-*.run")
	if err != nil {
		return fmt.Errorf("exec: sort spill: %w", err)
	}
	run := &spillRun{f: f, path: f.Name(), rows: len(s.buf), width: s.width}
	w := bufio.NewWriterSize(f, 64<<10)
	scratch := make([]byte, binary.MaxVarintLen64)
	for _, r := range s.buf {
		if err := writeRowTo(w, r, scratch); err != nil {
			run.remove()
			return fmt.Errorf("exec: sort spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		run.remove()
		return fmt.Errorf("exec: sort spill: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		s.stats.SpilledBytes += fi.Size()
	}
	s.stats.SpilledRuns++
	s.runs = append(s.runs, run)
	s.buf, s.arena.buf = s.buf[:0], nil
	s.bufSize = 0
	return nil
}

// openMerge rewinds every spilled run and seeds the merge heap with
// each source's first row; the sorted in-memory tail is the final
// source.
func (s *extSort) openMerge() bool {
	s.sources = s.runs
	s.heap = &rowHeap{less: func(a, b sortItem) bool { return rankedBefore(s.d, s.keys, a, b) }}
	for i, run := range s.runs {
		if _, err := run.f.Seek(0, io.SeekStart); err != nil {
			s.fail(fmt.Errorf("exec: sort merge: %w", err))
			return false
		}
		run.br = bufio.NewReaderSize(run.f, 32<<10)
		// One row of storage per source, reused for every row read back.
		if s.refill(i, make(Row, s.width)); s.err != nil {
			return false
		}
	}
	s.pushMem()
	return true
}

// refill reads source i's next row into r and pushes it onto the heap.
func (s *extSort) refill(i int, r Row) {
	r, ok, err := s.sources[i].next(r)
	if err != nil {
		s.fail(err)
	} else if ok {
		s.heap.push(sortItem{row: r, ord: int64(i)})
	}
}

// pushMem pushes the in-memory tail's next row onto the heap.
func (s *extSort) pushMem() {
	if s.memIdx < len(s.buf) {
		s.heap.push(sortItem{row: s.buf[s.memIdx], ord: int64(len(s.sources))})
		s.memIdx++
	}
}

// popMerged moves the globally smallest row to out and refills the
// heap from that row's source.
func (s *extSort) popMerged(out *batch) {
	it := s.heap.pop()
	out.put(it.row)
	if it.ord < int64(len(s.sources)) {
		s.refill(int(it.ord), it.row)
	} else {
		s.pushMem()
	}
}

// fail ends the sort with an error, releasing temp files immediately.
func (s *extSort) fail(err error) {
	s.err = err
	s.ended = true
	s.cleanup()
}

// cleanup deletes every spilled run and drops the buffer. It is
// idempotent and also registered as a runEnv cleanup hook, so an early
// Close deletes the temp files even when the merge is never drained.
func (s *extSort) cleanup() {
	for _, run := range s.runs {
		run.remove()
	}
	s.runs = nil
	s.sources = nil
	s.buf = nil
}

// --- top-k short circuit ---

// topK implements ORDER BY ... LIMIT k (k = OFFSET+LIMIT) with a
// bounded max-heap of the k best rows seen so far — ranked by input
// sequence number, so on equal keys the earlier row wins, matching a
// stable full sort followed by LIMIT. Memory stays at k rows no matter
// the input size, and nothing ever spills. Selected when k rows fit in
// the sort budget and the query has no DISTINCT (which must deduplicate
// before the limit applies).
type topK struct {
	in    input
	rt    *runEnv
	d     *dict.Dict
	keys  []sortKey
	width int
	k     int
	stats *SortStats

	arena    rowArena
	heap     rowHeap // max-heap: the kept row to evict first at the root
	idx      int
	out      *batch
	capacity int
}

func (t *topK) next() (*batch, error) {
	if t.out == nil { // first pull
		if err := t.build(); err != nil {
			return nil, err
		}
		t.capacity = min(batchRows, max(len(t.heap.items), 1))
		t.out = t.rt.newBatch(t.width, identitySlots(t.width), t.capacity)
	}
	out := t.out
	for out.n = 0; t.idx < len(t.heap.items) && out.n < t.capacity; t.idx++ {
		out.put(t.heap.items[t.idx].row)
	}
	if out.n == 0 {
		return nil, nil
	}
	return out, nil
}

// build drains the input through the bounded heap, then sorts the k
// survivors for in-order emission.
func (t *topK) build() error {
	t.arena.width = t.width
	before := func(a, b sortItem) bool { return rankedBefore(t.d, t.keys, a, b) }
	t.heap.less = func(a, b sortItem) bool { return before(b, a) }
	h := &t.heap
	cand := sortItem{row: make(Row, t.width)}
	for t.k > 0 {
		b, err := t.in.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.n; i++ {
			cand.ord++
			b.row(i, cand.row)
			if len(h.items) < t.k {
				kept := sortItem{row: t.arena.take(min(b.n-i, t.k-len(h.items))), ord: cand.ord}
				copy(kept.row, cand.row)
				h.push(kept)
			} else if before(cand, h.items[0]) {
				// The candidate beats the kept worst: take over its storage.
				copy(h.items[0].row, cand.row)
				h.items[0].ord = cand.ord
				h.siftDown(0)
			}
		}
	}
	sort.Slice(h.items, func(i, j int) bool { return before(h.items[i], h.items[j]) })
	t.stats.PeakBytes = int64(len(h.items)) * rowFootprint(t.width)
	return nil
}
