package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/store"
)

// Morsel-driven parallelism (Leis et al.): a hash-join build side that
// is a plain scan over a positional source is split into fixed-size
// morsels of the sorted relation; workers claim morsels via an atomic
// cursor and scan each straight into its own chunk of the build table's
// columnar arena. Morsel i is chunk i whichever worker scans it and the
// hash chains list rows in ascending order, so the table — and
// therefore join output — is byte-for-byte deterministic regardless of
// scheduling.

const (
	// morselRows is the number of relation rows one worker claims at a
	// time: large enough to amortise claiming, small enough to balance.
	// It is also the batch capacity of every operator.
	morselRows = 8192
	// minParallelRows is the build size below which partitioning costs
	// more than it saves; smaller builds run sequentially.
	minParallelRows = 4096
)

// MorselSource is implemented by substrates whose scans are positional
// ranges over a sorted relation and can therefore be split into
// independently scannable morsels (the column store; the compressed
// B+-tree substrate streams pages and stays sequential).
type MorselSource interface {
	Source
	// ScanRange returns the half-open row bounds of the scan of o
	// matching prefix.
	ScanRange(o store.Ordering, prefix []dict.ID) (lo, hi int)
	// ScanSlice streams rows [lo, hi) of ordering o, permuted like Scan.
	ScanSlice(o store.Ordering, lo, hi int) TripleIter
}

// parallelBuild returns the build function running the partitioned
// build of a scan without repeated-variable checks (so every morsel
// fills its arena chunk) over the run's MorselSource. keys is nil for
// key-less builds (cross products and disconnected OPTIONALs). sm, when
// non-nil, receives the scan's observed row count and wall time (the
// build bypasses the scan's own input handle, so nothing else counts
// these rows).
func (s *scanOp) parallelBuild(rt *runEnv, keys []int, sm *OpMetrics) buildFn {
	return func() (*buildTable, error) {
		start := time.Now()
		o := s.s.Ordering
		prefix, ok, err := resolvePrefix(rt, s.prefix, s.holes)
		if err != nil {
			return nil, err
		}
		lo, hi := 0, 0
		if ok { // else a bound term is absent from the data: the build side is empty
			lo, hi = rt.msrc.ScanRange(o, prefix)
		}
		if hi-lo < minParallelRows {
			// Too small to be worth partitioning.
			var op operator = stub{}
			if hi > lo {
				op = s.newScan(rt, rt.msrc.ScanSlice(o, lo, hi), hi-lo)
			}
			return seqBuild(input{op: op, rt: rt, m: sm}, s.bound, keys)()
		}
		nm := (hi - lo + morselRows - 1) / morselRows
		t := &buildTable{chunks: make([]*batch, nm), n: hi - lo, keys: keys}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := min(rt.opts.Parallelism, nm); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rt.acquire() {
					i := int(cursor.Add(1)) - 1
					if i >= nm {
						rt.release()
						return
					}
					// Morsel i is arena chunk i.
					mLo := lo + i*morselRows
					mHi := min(mLo+morselRows, hi)
					t.chunks[i] = rt.newBatch(s.width, s.bound, morselRows)
					sc := scan{in: rt.msrc.ScanSlice(o, mLo, mHi), out: t.chunks[i], slotOf: s.slotOf, checkSlot: s.checkSlot}
					sc.fill(mHi - mLo)
					rt.release()
				}
			}()
		}
		wg.Wait()
		if rt.cancelled() {
			return nil, errClosed
		}
		if sm != nil {
			atomic.AddInt64(&sm.Rows, int64(t.n))
			sm.Wall += time.Since(start)
			sm.Parallel = true
		}
		return t, t.index()
	}
}
