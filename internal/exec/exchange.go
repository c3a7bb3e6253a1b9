package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sparql-hsp/hsp/internal/algebra"
)

// DefaultExchangeThreshold is the minimum base-scan row count (after
// prefix restriction) at which a parallel run scatters a pipeline over
// exchange workers. Below it the chain runs sequentially: worker
// startup, batch hand-over and gather reordering would cost more than one
// core saves on so little input.
const DefaultExchangeThreshold = 4096

// scatterOp describes the parallel decomposition of one morsel-shardable
// pipeline chain: a positional scan over a MorselSource partitioned into
// morsels, and the stage operators (filters, projections, hash-join
// probes) every worker replays over its own morsels. The stages hold the
// original compiled operators — each worker instantiates its own
// operator state from them once and re-drains it morsel after morsel,
// while hash tables are built once and shared read-only across workers.
type scatterOp struct {
	base   *morselScan
	stages []physOp // bottom-up: stages[0] consumes the scan
}

// gatherOp is the exchange operator the placement pass inserts at the
// root of a shardable chain: it scatters the base scan across workers
// (scatterOp) and merges their per-morsel outputs back into a single
// stream in morsel-index order, so a parallel run emits byte-identical
// rows in the same order as the sequential run. inner is the original
// chain root, used verbatim when the run is sequential or the input is
// below the exchange threshold.
type gatherOp struct {
	inner   physOp
	scatter *scatterOp
}

func (o *gatherOp) logical() algebra.Node { return o.inner.logical() }
func (o *gatherOp) slots() []int          { return o.inner.slots() }

// stageFn instantiates one worker-side stage operator over its input.
type stageFn func(in input) input

func (o *gatherOp) open(rt *runEnv) input {
	if rt.opts.Parallelism <= 1 {
		return o.inner.open(rt)
	}
	s := o.scatter.base.s
	prefix, ok, err := resolveParams(rt, s.prefix, s.params)
	if err != nil {
		return rt.in(o.logical(), stub{err})
	}
	lo, hi := 0, 0
	if ok {
		lo, hi = o.scatter.base.src.ScanRange(s.s.Ordering, prefix)
	}
	threshold := rt.opts.ExchangeThreshold
	if threshold <= 0 {
		threshold = DefaultExchangeThreshold
	}
	if hi-lo < threshold {
		return o.inner.open(rt)
	}
	stages, resolves, err := o.buildStages(rt)
	if err != nil {
		return rt.in(o.logical(), stub{err})
	}
	nm := (hi - lo + morselRows - 1) / morselRows
	workers := min(rt.opts.Parallelism, nm)
	st := &ExchangeStats{
		Label:      s.s.Label(),
		Workers:    workers,
		Morsels:    nm,
		WorkerRows: make([]int64, workers),
	}
	rt.exchanges = append(rt.exchanges, st)
	scanM := rt.metric(s.s)
	if scanM != nil {
		scanM.Parallel = true
	}
	return rt.in(o.logical(), &gather{
		rt:       rt,
		sc:       o.scatter,
		lo:       lo,
		hi:       hi,
		nm:       nm,
		workers:  workers,
		stages:   stages,
		resolves: resolves,
		scanM:    scanM,
		st:       st,
	})
}

// buildStages lowers the chain's stage operators into per-worker
// operator constructors, resolving everything that must happen once per
// run — parameter bindings, hash-table builds — on the open path.
// Builds start asynchronously here and are shared across all workers
// (memoBuild); the returned resolves block until every table is ready.
func (o *gatherOp) buildStages(rt *runEnv) ([]stageFn, []func() error, error) {
	stages := make([]stageFn, len(o.scatter.stages))
	var resolves []func() error
	for i, op := range o.scatter.stages {
		// Stage counters are shared across workers and only ever receive
		// atomic row-count increments — timing would race. The chain
		// root has none: the gather's own consumer counts its rows.
		var m *OpMetrics
		if i < len(o.scatter.stages)-1 {
			if m = rt.metric(op.logical()); m != nil {
				m.Parallel = true
			}
		}
		switch op := op.(type) {
		case *filterOp:
			proto, err := op.newFilter(rt, input{})
			if err != nil {
				return nil, nil, err
			}
			stages[i] = func(in input) input {
				f := *proto
				f.in = in
				return input{op: &f, rt: rt, m: m}
			}
		case *projectOp:
			stages[i] = func(in input) input { return input{op: op.newProject(in), rt: rt, m: m} }
		case *hashJoinOp:
			shared := memoBuild(asyncBuild(rt, op.openBuild(rt)))
			resolves = append(resolves, func() error {
				_, err := shared()
				return err
			})
			stages[i] = func(in input) input { return input{op: op.newProbe(rt, shared, in), rt: rt, m: m} }
		default:
			return nil, nil, fmt.Errorf("exec: internal: %T cannot run inside an exchange", op)
		}
	}
	return stages, resolves, nil
}

// memoBuild shares one build result across every worker sub-pipeline:
// the underlying build runs once, concurrent callers block until it is
// ready, and the resulting table is immutable thereafter.
func memoBuild(f buildFn) buildFn {
	var (
		once sync.Once
		t    *buildTable
		err  error
	)
	return func() (*buildTable, error) {
		once.Do(func() { t, err = f() })
		return t, err
	}
}

// morselOut is one morsel's fully-processed output, sent from a worker
// to the gather: whole batches, cloned off the worker's own.
type morselOut struct {
	idx     int
	batches []*batch
	err     error
}

// gather merges worker outputs back into one deterministic stream.
//
// Scheduling: workers claim morsels from a shared atomic cursor, run the
// whole stage chain over each morsel, and deliver the result's batches.
// The gather releases results strictly in morsel-index order, holding
// out-of-order arrivals in a pending map, and recycles each batch to
// the run's free list once its consumer has moved past it. A credit
// window of 2×workers bounds the morsels in flight (buffered, pending
// or in the channel), so gather memory stays proportional to workers ×
// morsel output, not to the input size. Workers take rt.sem only while
// computing a morsel — never while blocked on a credit, a build, or a
// delivery — so exchanges sharing the run's semaphore with morsel builds
// and sibling exchanges cannot deadlock.
type gather struct {
	rt       *runEnv
	sc       *scatterOp
	lo, hi   int
	nm       int
	workers  int
	stages   []stageFn
	resolves []func() error
	scanM    *OpMetrics
	st       *ExchangeStats

	cursor  atomic.Int64
	out     chan morselOut
	credits chan struct{}
	pending map[int][]*batch
	nextIdx int
	queue   []*batch // the current morsel's batches not yet served
	cur     *batch   // the batch the consumer is reading
}

// start resolves every shared hash-table build, then launches the
// workers. It runs on the consumer goroutine, which holds no semaphore
// slot — so the builds it waits on can use the run's full parallelism.
func (g *gather) start() error {
	for _, res := range g.resolves {
		if err := res(); err != nil {
			g.rt.noteErr(err)
			return err
		}
	}
	window := 2 * g.workers
	// Both channels hold one entry per credit: a worker can always
	// deliver the morsel its credit paid for.
	g.out = make(chan morselOut, window)
	g.credits = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		g.credits <- struct{}{}
	}
	g.pending = make(map[int][]*batch, window)
	for w := 0; w < g.workers; w++ {
		g.rt.wg.Add(1)
		go g.worker(w)
	}
	return nil
}

// worker instantiates the chain once — a scan it re-aims at each morsel
// it claims, and the stages above it — and drains it per morsel.
// Operators end a stream without latching, so the chain yields the next
// morsel's rows as soon as the scan has a new range.
func (g *gather) worker(w int) {
	defer g.rt.wg.Done()
	s := g.sc.base.s
	sc := s.newScan(g.rt, nil, morselRows)
	top := input{op: sc, rt: g.rt, m: g.scanM}
	for _, stage := range g.stages {
		top = stage(top)
	}
	for {
		select {
		case <-g.credits:
		case <-g.rt.done:
			return
		}
		i := int(g.cursor.Add(1)) - 1
		if i >= g.nm || !g.rt.acquire() {
			return
		}
		mLo := g.lo + i*morselRows
		sc.in = g.sc.base.src.ScanSlice(s.s.Ordering, mLo, min(mLo+morselRows, g.hi))
		m := morselOut{idx: i}
		for {
			var b *batch
			b, m.err = top.next()
			if b == nil {
				break
			}
			m.batches = append(m.batches, g.rt.clone(b))
			atomic.AddInt64(&g.st.WorkerRows[w], int64(b.n))
		}
		g.rt.release()
		g.rt.noteErr(m.err)
		select {
		case g.out <- m:
		case <-g.rt.done:
			return
		}
		if m.err != nil {
			return
		}
	}
}

func (g *gather) next() (*batch, error) {
	if g.out == nil { // first pull
		if err := g.start(); err != nil {
			return nil, err
		}
	}
	if g.cur != nil {
		g.rt.recycle(g.cur)
		g.cur = nil
	}
	for len(g.queue) == 0 {
		if g.nextIdx >= g.nm {
			return nil, nil
		}
		if bs, ok := g.pending[g.nextIdx]; ok {
			delete(g.pending, g.nextIdx)
			g.nextIdx++
			g.queue = bs
			// Hand the consumed morsel's credit back so a worker can
			// claim the next one. Token conservation keeps the channel
			// under capacity; the default arm is a safety net only.
			select {
			case g.credits <- struct{}{}:
			default:
			}
			continue
		}
		select {
		case m := <-g.out:
			if m.err != nil {
				return nil, m.err
			}
			g.pending[m.idx] = m.batches
		case <-g.rt.done:
			return nil, errClosed
		}
	}
	g.cur, g.queue = g.queue[0], g.queue[1:]
	return g.cur, nil
}

// ExchangeStats reports one exchange's scatter/gather execution: how
// many workers ran, how many morsels the base scan split into, and the
// per-worker output row counts the skew ratio derives from. Counters
// are complete once the run is exhausted or closed.
type ExchangeStats struct {
	// Label is the base scan's label, identifying which pipeline chain
	// the exchange parallelised.
	Label string
	// Workers is the number of worker goroutines the gather launched
	// (min of the run's Parallelism and the morsel count).
	Workers int
	// Morsels is the number of morsels the base scan was split into.
	Morsels int
	// WorkerRows is the output row count per worker. Read with
	// atomic.LoadInt64 while the run is live.
	WorkerRows []int64
}

// Rows returns the exchange's total output row count.
func (st *ExchangeStats) Rows() int64 {
	var n int64
	for i := range st.WorkerRows {
		n += atomic.LoadInt64(&st.WorkerRows[i])
	}
	return n
}

// Skew returns the load imbalance across workers: the busiest worker's
// row count over the mean (1.0 = perfectly balanced). Exchanges that
// emitted no rows report 1.0.
func (st *ExchangeStats) Skew() float64 {
	total := st.Rows()
	if total == 0 || len(st.WorkerRows) == 0 {
		return 1
	}
	var max int64
	for i := range st.WorkerRows {
		if v := atomic.LoadInt64(&st.WorkerRows[i]); v > max {
			max = v
		}
	}
	return float64(max) * float64(len(st.WorkerRows)) / float64(total)
}

// ExchangeStats returns the scatter/gather statistics of the run's
// exchange operators, in open order; empty when the run was sequential
// or every chain fell below the exchange threshold. Counters are
// complete once the run is exhausted or closed.
func (r *Run) ExchangeStats() []*ExchangeStats { return r.rt.exchanges }

// --- placement ---

// placeExchanges walks a compiled operator tree and wraps every maximal
// morsel-shardable chain — a MorselSource scan feeding filters,
// projections and keyed hash-join probe sides — in a gatherOp, the
// compile-time half of exchange placement. Whether an exchange actually
// runs is decided per run: Options.Parallelism gates it entirely and
// Options.ExchangeThreshold skips inputs too small to amortise worker
// startup, so one compiled plan serves every provisioning tier.
func placeExchanges(op physOp) physOp {
	if base, stages, ok := chainOf(op); ok && worthExchanging(stages) {
		// Build sides hang off the chain sideways; they may contain
		// shardable chains of their own.
		for _, st := range stages {
			if hj, isJoin := st.(*hashJoinOp); isJoin {
				hj.build = placeExchanges(hj.build)
			}
		}
		return &gatherOp{inner: op, scatter: &scatterOp{base: base, stages: stages}}
	}
	switch o := op.(type) {
	case *mergeJoinOp:
		o.l = placeExchanges(o.l)
		o.r = placeExchanges(o.r)
	case *hashJoinOp:
		o.build = placeExchanges(o.build)
		o.probe = placeExchanges(o.probe)
	case *filterOp:
		o.in = placeExchanges(o.in)
	case *projectOp:
		o.in = placeExchanges(o.in)
	case *sortOp:
		o.in = placeExchanges(o.in)
	}
	return op
}

// chainOf reports whether op roots a morsel-shardable chain, returning
// the base scan and the stage operators bottom-up. Hash joins join a
// chain through their probe side only, and only when keyed: key-less
// builds (cross products, disconnected OPTIONALs) multiply every probe
// morsel by the whole build side, which would break the gather's
// per-morsel memory bound.
func chainOf(op physOp) (*morselScan, []physOp, bool) {
	switch o := op.(type) {
	case *scanOp:
		if src, ok := o.src.(MorselSource); ok {
			return &morselScan{s: o, src: src}, nil, true
		}
	case *filterOp:
		if base, stages, ok := chainOf(o.in); ok {
			return base, append(stages, o), true
		}
	case *projectOp:
		if base, stages, ok := chainOf(o.in); ok {
			return base, append(stages, o), true
		}
	case *hashJoinOp:
		if len(o.keys) == 0 {
			break
		}
		if base, stages, ok := chainOf(o.probe); ok {
			return base, append(stages, o), true
		}
	}
	return nil, nil, false
}

// worthExchanging requires the chain to contain real per-row compute (a
// filter or a join probe). A bare scan→project chain is copy-dominated:
// scattering it buys no speedup and pays the gather's buffering.
func worthExchanging(stages []physOp) bool {
	for _, st := range stages {
		switch st.(type) {
		case *filterOp, *hashJoinOp:
			return true
		}
	}
	return false
}
