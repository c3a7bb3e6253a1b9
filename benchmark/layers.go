package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/cdp"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/sqlopt"
	"github.com/sparql-hsp/hsp/internal/stats"
	"github.com/sparql-hsp/hsp/internal/store"
)

// The layer probes: each times the driver's own calls into one
// module's public entry points, on instances of its own. The front-end
// probes are fed the workload's own request texts; the executor,
// storage, write-path and server probes always run the paper's queries,
// the serve-read requests and the live-rw write batches, so their
// numbers compare across workloads.

// probeShare is the share of the run's window that one front-end
// probe may spend repeating itself: passes over the inputs repeat until
// that budget is spent (at least one pass, at most 16).
const probeShare = 64

func timed(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// layers is the state the probes share: the facade's datasets and the
// driver's own copies of their stores.
type layers struct {
	e        *env
	m        *metricSet
	sp, yg   *hsp.DB
	spS, ygS *store.Snapshot
	memos    [2]*stats.Memo // statistics memo per dataset, as the facade keeps one per DB
	budget   time.Duration  // what one front-end probe may spend repeating itself
}

func (l *layers) memo(yago bool) *stats.Memo {
	if yago {
		return l.memos[1]
	}
	return l.memos[0]
}

func (l *layers) snap(yago bool) *store.Snapshot {
	if yago {
		return l.ygS
	}
	return l.spS
}

func (l *layers) db(yago bool) *hsp.DB {
	if yago {
		return l.yg
	}
	return l.sp
}

func (l *layers) setNS(name string, samples []float64, unit time.Duration) {
	l.m.set(name, median(samples)/float64(unit))
}

// frontEnd times parse → parameterize → rewrite → plan → compile per
// request (the stepper's replay, read back from its spans), the
// facade's Prepare over the same text, and a plan-cache hit; then the
// three comparison planners on the same parsed queries.
func (l *layers) frontEnd(ctx context.Context, reqs []request) error {
	var prepare, hit, hybrid, cdpT, sqlT []float64
	tr := newTracer()
	fired := 0
	start := time.Now()
	for pass := 0; pass < 16 && (pass == 0 || time.Since(start) < l.budget); pass++ {
		for _, r := range reqs {
			sd, err := (&stepper{snap: l.snap(r.yago)}).frontEnd(tr, 0, len(prepare)+1, r.text, true)
			if err != nil {
				return err
			}
			fired += sd.fired
			prepare = append(prepare, timed(func() {
				var st *hsp.Stmt
				if st, err = l.db(r.yago).Prepare(ctx, r.text); err == nil {
					st.Close()
				}
			}))
			if err != nil {
				return err
			}
		}
	}
	// Per step, one sample per request; PushFilters is the rewrite
	// pass's plan-level half and is charged to rewrite.
	steps := map[string][]float64{}
	for _, name := range []string{"sparql.parse", "sparql.parameterize", "rewrite.apply", "core.plan", "exec.compile"} {
		steps[name] = make([]float64, len(prepare))
	}
	self := append([]float64(nil), prepare...)
	for _, s := range tr.spans {
		name := s.Name
		if name == "rewrite.pushfilters" {
			name = "rewrite.apply"
		}
		steps[name][s.Req-1] += float64(s.dur())
		// Prepare without a plan cache does not template the query, so
		// Parameterize is not among the steps it is charged with.
		if name != "sparql.parameterize" {
			self[s.Req-1] -= float64(s.dur())
		}
	}
	for _, r := range reqs {
		for i := 0; i < 2; i++ { // the second Prepare of a text is a hit
			var err error
			t := timed(func() {
				var st *hsp.Stmt
				if st, err = l.db(r.yago).Prepare(ctx, r.text, hsp.WithPlanCache(planCacheSize)); err == nil {
					st.Close()
				}
			})
			if err != nil {
				return err
			}
			if i == 1 {
				hit = append(hit, t)
			}
		}
	}

	// The comparison planners see what HSP saw: the rewritten query's
	// branches. CDP refuses cross products; those samples are skipped.
	start = time.Now()
	for pass := 0; pass < 16 && (pass == 0 || time.Since(start) < l.budget); pass++ {
		for _, r := range reqs {
			snap := l.snap(r.yago)
			q, err := sparql.Parse(r.text)
			if err != nil {
				return err
			}
			q, _ = rewrite.Apply(q, rewrite.All())
			est := func() *stats.Estimator { return stats.NewShared(snap.Store(), l.memo(r.yago)) }
			run := func(planOne func(*sparql.Query) error) (float64, bool) {
				ok := true
				t := timed(func() {
					for _, br := range q.Branches() {
						if planOne(br) != nil {
							ok = false
							return
						}
					}
				})
				return t, ok
			}
			if t, ok := run(func(br *sparql.Query) error {
				_, err := core.NewPlannerWith(core.Options{Stats: est()}).PlanDetailed(br)
				return err
			}); ok {
				hybrid = append(hybrid, t)
			}
			if t, ok := run(func(br *sparql.Query) error {
				_, err := cdp.New(est(), cdp.Options{UseAggregatedIndexes: true}).Plan(br)
				return err
			}); ok {
				cdpT = append(cdpT, t)
			}
			if t, ok := run(func(br *sparql.Query) error {
				_, err := sqlopt.New(est()).Plan(br)
				return err
			}); ok {
				sqlT = append(sqlT, t)
			}
		}
	}

	l.setNS("sparql.parse_us", steps["sparql.parse"], time.Microsecond)
	l.setNS("sparql.parameterize_us", steps["sparql.parameterize"], time.Microsecond)
	l.setNS("rewrite.apply_us", steps["rewrite.apply"], time.Microsecond)
	l.m.set("rewrite.rules_fired_per_query", ratio(float64(fired), float64(len(prepare))))
	l.setNS("core.plan_us", steps["core.plan"], time.Microsecond)
	l.setNS("core.hybrid_plan_us", hybrid, time.Microsecond)
	l.setNS("cdp.plan_us", cdpT, time.Microsecond)
	l.setNS("sqlopt.plan_us", sqlT, time.Microsecond)
	l.setNS("exec.compile_us", steps["exec.compile"], time.Microsecond)
	l.setNS("exec.plancache.hit_us", hit, time.Microsecond)
	l.setNS("hsp.prepare_us", prepare, time.Microsecond)
	l.setNS("hsp.prepare_self_us", self, time.Microsecond)
	return nil
}

// opKind files an operator label of the public OpStats sink under the
// executor's operator kinds.
func opKind(label string) string {
	switch {
	case strings.HasPrefix(label, "scan(") || strings.HasPrefix(label, "σ("):
		return "scan"
	case strings.HasPrefix(label, "⋈mj"):
		return "mergejoin"
	case strings.HasPrefix(label, "⋈hj") || strings.HasPrefix(label, "×") || strings.HasPrefix(label, "⟕"):
		return "hashjoin"
	case strings.HasPrefix(label, "π"):
		return "project"
	case strings.HasPrefix(label, "sort") || strings.HasPrefix(label, "exchange"):
		return "other"
	}
	return "filter"
}

// opTotal sums one operator kind's counters over a pass.
type opTotal struct {
	rows, build int64
	wall, bwall time.Duration
}

// opTotals are one pass of operator counters by kind, and the result
// rows the pass returned.
type opTotals struct {
	kind    map[string]*opTotal
	results int64
}

func (t opTotals) of(kind string) opTotal {
	if k := t.kind[kind]; k != nil {
		return *k
	}
	return opTotal{}
}

// rangeFilter is the one statement of the operator pass that is not in
// the paper: HSP folds every FILTER of the paper's queries into a
// pattern, so without it the filter operator would never run.
var rangeFilter = paperQuery{name: "range-filter", text: `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?article ?yr
WHERE { ?article rdf:type bench:Article .
        ?article dcterms:issued ?yr .
        FILTER (?yr > "1955") }`}

// paperOps runs queries once under a planner with the per-operator
// sink attached.
func (l *layers) paperOps(ctx context.Context, planner hsp.Planner, queries []paperQuery) (opTotals, error) {
	t := opTotals{kind: map[string]*opTotal{}}
	sink := func(s hsp.OpStats) {
		k := t.kind[opKind(s.Op)]
		if k == nil {
			k = &opTotal{}
			t.kind[opKind(s.Op)] = k
		}
		k.rows += s.Rows
		k.wall += s.Wall
		k.build += s.Build
		k.bwall += s.BuildWall
	}
	for _, q := range queries {
		res, err := l.db(q.yago).QueryContext(ctx, q.text, hsp.WithPlanner(planner), hsp.WithMetricsSink(sink))
		if err != nil {
			return t, fmt.Errorf("%s under %s: %w", q.name, planner, err)
		}
		t.results += int64(res.Len())
	}
	return t, nil
}

// paperCycle measures the executor and the decode above it over one
// cycle of the paper's queries.
func (l *layers) paperCycle(ctx context.Context) error {
	type prepared struct {
		sd *stepped
		st *hsp.Stmt
	}
	var qs []prepared
	for _, q := range paperQueries() {
		sd, err := (&stepper{snap: l.snap(q.yago)}).frontEnd(nil, 0, 0, q.text, false)
		if err != nil {
			return err
		}
		st, err := l.db(q.yago).Prepare(ctx, q.text)
		if err != nil {
			return err
		}
		defer st.Close()
		qs = append(qs, prepared{sd: sd, st: st})
	}
	// Per query: the ID-row run through Compiled.ExecuteContext and the
	// facade's Stream drained through Rows.Row, alternating; the decode
	// cost is the difference of the two medians, query by query, which
	// keeps one noisy query (Y4 allocates heavily) from drowning the rest.
	const reps = 7
	var runMS, decodeNS float64
	var rows, terms int64
	var mallocs uint64
	for _, q := range qs {
		var runs, streams []float64
		var qRows, qTerms int64
		for rep := 0; rep < reps; rep++ {
			var m0, m1 runtime.MemStats
			var err error
			runtime.ReadMemStats(&m0)
			runs = append(runs, timed(func() { qRows, _, err = q.sd.run(ctx, nil, 0, 0, nil, false, false) }))
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			if rep == 0 {
				mallocs += m1.Mallocs - m0.Mallocs
			}
			streams = append(streams, timed(func() {
				var rs *hsp.Rows
				if rs, err = q.st.Stream(ctx); err != nil {
					return
				}
				vars := int64(len(rs.Vars()))
				var n int
				n, err = drain(rs)
				qTerms = int64(n) * vars
			}))
			if err != nil {
				return err
			}
		}
		runMS += median(runs) / float64(time.Millisecond)
		decodeNS += median(streams) - median(runs)
		rows += qRows
		terms += qTerms
	}
	l.m.set("exec.run_ms", runMS)
	l.m.set("exec.allocs_per_row", ratio(float64(mallocs), float64(rows)))
	l.m.set("hsp.decode_ns_per_term", ratio(decodeNS, float64(terms)))

	ops, err := l.paperOps(ctx, hsp.PlannerHSP, append(paperQueries(), rangeFilter))
	if err != nil {
		return err
	}
	for _, kind := range []string{"scan", "mergejoin", "filter"} {
		l.m.set("exec."+kind+".rows", float64(ops.of(kind).rows))
		l.m.set("exec."+kind+".ms", ms(ops.of(kind).wall))
	}
	hj := ops.of("hashjoin")
	l.m.set("exec.hashjoin.build_rows", float64(hj.build))
	l.m.set("exec.hashjoin.build_ms", ms(hj.bwall))
	l.m.set("exec.hashjoin.probe_rows", float64(hj.rows))
	l.m.set("exec.hashjoin.ms", ms(hj.wall))
	l.m.set("exec.project.ms", ms(ops.of("project").wall))

	// The three-planner comparison leaves SP4a out: CDP refuses it and
	// the SQL planner's Cartesian plan does not terminate, as in the paper.
	comparable := slices.DeleteFunc(paperQueries(), func(q paperQuery) bool { return q.name == "SP4a" })
	for _, p := range []struct {
		name    string
		planner hsp.Planner
	}{{"core", hsp.PlannerHSP}, {"cdp", hsp.PlannerCDP}, {"sqlopt", hsp.PlannerSQL}} {
		t, err := l.paperOps(ctx, p.planner, comparable)
		if err != nil {
			return err
		}
		l.m.set(p.name+".join_rows_per_result", ratio(float64(t.of("mergejoin").rows+t.of("hashjoin").rows), float64(t.results)))
	}
	merge, all := 0, 0
	for _, q := range paperQueries() {
		p, err := l.db(q.yago).Plan(q.text, hsp.PlannerHSP)
		if err != nil {
			return err
		}
		merge += p.MergeJoins()
		all += p.MergeJoins() + p.HashJoins()
	}
	l.m.set("core.merge_join_share", ratio(float64(merge), float64(all)))
	return nil
}

// drainTimes streams and drains the named paper queries reps times and
// returns each repetition's wall time.
func (l *layers) drainTimes(ctx context.Context, names []string, reps int, opts ...hsp.ExecOption) ([]float64, error) {
	var stmts []*hsp.Stmt
	for _, q := range paperQueries() {
		for _, n := range names {
			if q.name != n {
				continue
			}
			st, err := l.db(q.yago).Prepare(ctx, q.text, opts...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.name, err)
			}
			defer st.Close()
			stmts = append(stmts, st)
		}
	}
	var out []float64
	for rep := 0; rep < reps; rep++ {
		var err error
		out = append(out, timed(func() {
			for _, st := range stmts {
				var rs *hsp.Rows
				if rs, err = st.Stream(ctx); err != nil {
					return
				}
				if _, err = drain(rs); err != nil {
					return
				}
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// engines measures what sits beside the default executor: the exchange
// operators at parallelism 2, a raw store scan, and the rdf3x substrate
// with its index rebuild after a commit. It commits to the SP²Bench
// dataset, so it runs last.
func (l *layers) engines(ctx context.Context) error {
	heavy := []string{"SP2a", "SP4a"}
	p1, err := l.drainTimes(ctx, heavy, 5)
	if err != nil {
		return err
	}
	p2, err := l.drainTimes(ctx, heavy, 5, hsp.WithParallelism(2))
	if err != nil {
		return err
	}
	l.m.set("exec.exchange.speedup_p2", ratio(median(p1), median(p2)))

	src := exec.ColumnSource{St: l.spS.Store()}
	var scans []float64
	for rep := 0; rep < 5; rep++ {
		n := 0
		t := timed(func() {
			for it := src.Scan(store.SPO, nil); ; n++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		})
		scans = append(scans, t/float64(n))
	}
	l.m.set("store.scan_ns_per_triple", median(scans))

	// rdf3x: the paper cycle under CDP plans (Table 7's middle column),
	// without SP4a, which CDP refuses.
	var cdpCycle []string
	for _, q := range paperQueries() {
		if q.name != "SP4a" {
			cdpCycle = append(cdpCycle, q.name)
		}
	}
	rx := []hsp.ExecOption{hsp.WithPlanner(hsp.PlannerCDP), hsp.WithEngine(hsp.EngineRDF3X)}
	cycles, err := l.drainTimes(ctx, cdpCycle, 3, rx...)
	if err != nil {
		return err
	}
	l.setNS("rdf3x.run_ms", cycles, time.Millisecond)

	// The first rdf3x query after a commit rebuilds the whole index set;
	// the same query again does not.
	txn, err := l.sp.Update(ctx)
	if err != nil {
		return err
	}
	if err := txn.Insert(hsp.Triple{S: hsp.IRI("http://localhost/live/rebuild"), P: hsp.IRI(livePredicate), O: hsp.Literal("x")}); err != nil {
		return err
	}
	if _, err := txn.Commit(ctx); err != nil {
		return err
	}
	var after [2]float64
	for i := range after {
		after[i] = timed(func() { _, err = l.sp.QueryContext(ctx, sp2bench.SP6, rx...) })
		if err != nil {
			return err
		}
	}
	l.m.set("rdf3x.rebuild_ms", (after[0]-after[1])/float64(time.Millisecond))
	return nil
}

// bind measures what binding a parameter costs the facade: the point
// lookup executed with a bound $title against the same statement
// prepared with the title inline.
func (l *layers) bind(ctx context.Context) error {
	// The first journal: the merge join over the journals finds it at
	// once, so the execution is a few microseconds and does not bury the
	// bind under its own noise.
	title := journalTitle(0)
	bound, err := l.sp.Prepare(ctx, pointQuery)
	if err != nil {
		return err
	}
	defer bound.Close()
	inline, err := l.sp.Prepare(ctx, strings.Replace(pointQuery, "$title", `"`+title+`"`, 1))
	if err != nil {
		return err
	}
	defer inline.Close()
	b := hsp.Bind("title", hsp.Literal(title))
	// The difference is about a microsecond, less than timing single
	// calls resolves, so the two statements alternate in batches.
	const rounds, batch = 11, 1000
	var withBind, without []float64
	for i := 0; i < rounds; i++ {
		withBind = append(withBind, timed(func() {
			for k := 0; k < batch && err == nil; k++ {
				_, err = bound.Query(ctx, b)
			}
		})/batch)
		without = append(without, timed(func() {
			for k := 0; k < batch && err == nil; k++ {
				_, err = inline.Query(ctx)
			}
		})/batch)
		if err != nil {
			return err
		}
	}
	l.m.set("hsp.bind_us", (median(withBind)-median(without))/float64(time.Microsecond))
	return nil
}

// serving measures the protocol layer against an in-process server:
// each request kind over loopback, into a recorder (the handler path
// without the network) and as the bare statement stream under it.
func (l *layers) serving(ctx context.Context) (err error) {
	sr := &serveRead{}
	defer func() { err = errors.Join(err, sr.close()) }()
	if err := sr.setup(ctx, l.e); err != nil {
		return err
	}
	if err := sr.trace(ctx, nil); err != nil { // prepares the replay statements
		return err
	}
	type kindTimes struct{ round, rec, stream []float64 }
	measure := func(r httpReq, reps int) (kindTimes, int, error) {
		var kt kindTimes
		bytes := 0
		for i := 0; i < reps; i++ {
			var err error
			kt.round = append(kt.round, timed(func() { _, err = sr.fetch(r.url) }))
			if err != nil {
				return kt, 0, err
			}
			kt.rec = append(kt.rec, timed(func() {
				rec, rerr := sr.recorded(strings.TrimPrefix(r.url, sr.base))
				if err = rerr; err == nil {
					bytes = rec.Body.Len()
				}
			}))
			if err != nil {
				return kt, 0, err
			}
			kt.stream = append(kt.stream, timed(func() {
				var rs *hsp.Rows
				if rs, err = sr.scanStmt[r.kind].Stream(ctx, r.binds...); err == nil {
					_, err = drain(rs)
				}
			}))
			if err != nil {
				return kt, 0, err
			}
		}
		return kt, bytes, nil
	}
	point, _, err := measure(sr.points[0], 300)
	if err != nil {
		return err
	}
	tsv, tsvBytes, err := measure(sr.scanTSV, 20)
	if err != nil {
		return err
	}
	js, jsBytes, err := measure(sr.scanJSON, 20)
	if err != nil {
		return err
	}
	l.m.set("hspserve.point_self_us", (median(point.rec)-median(point.stream))/float64(time.Microsecond))
	l.m.set("hspserve.net_us", (median(point.round)-median(point.rec))/float64(time.Microsecond))
	l.m.set("hspserve.json_ns_per_row", ratio(median(js.rec)-median(js.stream), float64(sr.scanJSON.rows)))
	l.m.set("hspserve.tsv_ns_per_row", ratio(median(tsv.rec)-median(tsv.stream), float64(sr.scanTSV.rows)))
	l.m.set("hspserve.json_bytes_per_row", ratio(float64(jsBytes), float64(sr.scanJSON.rows)))
	l.m.set("hspserve.tsv_bytes_per_row", ratio(float64(tsvBytes), float64(sr.scanTSV.rows)))
	l.setNS("hspserve.point.p50_ms", point.round, time.Millisecond)
	l.setNS("hspserve.scan_tsv.p50_ms", tsv.round, time.Millisecond)
	l.setNS("hspserve.scan_json.p50_ms", js.round, time.Millisecond)
	st := sr.srv.Stats()
	l.m.set("hspserve.registry.hit_ratio", ratio(float64(st.Registry.Hits), float64(st.Registry.Hits+st.Registry.Misses)))
	l.m.set("hspserve.admission.queued", float64(st.Admission.Waiting))
	l.m.set("hspserve.admission.rejected", float64(st.Admission.Rejected))
	return nil
}

// commitLayers reports the commit path's layers from the spans of a
// live-rw replay: sequential commits, each replayed stepwise.
func (l *layers) commitLayers(sum traceSummary) {
	l.m.set("wal.encode_us", us(sum.mean("wal.encode")))
	l.m.set("wal.append_us", us(sum.mean("wal.append")))
	l.m.set("wal.sync_us", us(sum.mean("wal.sync")))
	l.m.set("store.apply_ms", ms(sum.mean("store.apply")))
	l.m.set("hsp.commit_ms", ms(sum.mean("hsp.commit")))
	// wal.encode spans carry the payload size, the others the triples.
	l.m.set("wal.bytes_per_triple", ratio(float64(sum.rowsByName["wal.encode"]), float64(sum.rowsByName["wal.append"])))
	l.m.set("hsp.commit_self_ms", ratio(float64(sum.selfByName["hsp.commit"]), float64(sum.nByName["hsp.commit"]))/float64(time.Millisecond))
}

// writeSide reports what a live window and the reopen after it
// observed of the write side under load.
func writeSide(e *env, m *metricSet, ls *liveStats) {
	m.set("e2e.commit_p50_ms", pct(e, "commit latency", ls.commitLat, 50))
	m.set("e2e.commit_p95_ms", pct(e, "commit latency", ls.commitLat, 95))
	m.set("e2e.write_amp", ratio(ls.written, ls.userBytes))
	m.set("e2e.recover_s", ls.recover.Seconds())
	m.set("loadgen.writer_late_p95_ms", pct(e, "writer lateness", ls.late, 95))
	m.set("wal.syncs_per_commit", ratio(float64(ls.dur1.Syncs-ls.dur0.Syncs), float64(ls.dur1.Commits-ls.dur0.Commits)))
	m.set("wal.compactions", float64(ls.dur1.Compactions-ls.dur0.Compactions))
	m.set("wal.segments_retired", float64(ls.dur1.SegmentsRetired-ls.dur0.SegmentsRetired))
	m.set("wal.commit_stall_max_ms", ls.stallMax)
	m.set("wal.compact_ms", ms(ls.compact))
	m.set("wal.replay_ms_per_commit", ms(ls.recover-ls.baseOpen)/tailCommits)
	m.set("store.retained_mb_max", ls.retainedMax)
	m.set("store.live_snapshots_max", float64(ls.snapsMax))
}

// ownLive runs the write side on a live-rw instance of the probes' own:
// a window on a collected heap, then the replay whose spans
// commitLayers reads.
func (l *layers) ownLive(ctx context.Context, d time.Duration) (win *window, spans []span, err error) {
	lw := &liveRW{}
	defer func() { err = errors.Join(err, lw.close()) }()
	if err := lw.setup(ctx, l.e); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	if win, err = lw.window(ctx, d); err != nil {
		return nil, nil, err
	}
	wt := newTracer()
	err = lw.trace(ctx, wt)
	return win, wt.spans, err
}

// probeWindow is the share of the run's window that the probes' own
// live window lasts, on the workloads that never commit: long enough
// for a compaction or two, short enough that the traced run stays
// within the harness's budget.
const probeWindow = 4

// run measures every layer once, whatever the workload: the harness
// wants every per-layer metric from every traced run. reqs feed the
// front-end probes. live and writeSpans are live-rw's own window and
// replay; the other workloads never commit and pass a nil live, and the
// write path is then measured on a live-rw instance of the probes' own.
// It returns what that instance's window attempted and failed.
func (l *layers) run(ctx context.Context, reqs []request, live *liveStats, writeSpans []span, d time.Duration) (attempted, failed int64, err error) {
	// The write path goes first, on as empty a heap as the run can
	// offer: a live window allocates a whole snapshot per commit, and
	// every dataset still reachable makes the collector's cycles longer
	// and the writer later.
	if live == nil {
		win, spans, err := l.ownLive(ctx, d/probeWindow)
		if err != nil {
			return 0, 0, fmt.Errorf("write-path probes: %w", err)
		}
		live, writeSpans = win.live, spans
		attempted, failed = win.attempted, win.failed
	}
	l.commitLayers(summarize(writeSpans))
	writeSide(l.e, l.m, live)
	l.budget = d / probeShare

	l.sp, l.yg = hsp.GenerateSP2Bench(l.e.scale, l.e.seed), hsp.GenerateYAGO(l.e.scale, l.e.seed)
	l.spS, l.ygS = replayStores(l.e)
	l.memos = [2]*stats.Memo{stats.NewMemo(), stats.NewMemo()}
	if err := l.frontEnd(ctx, reqs); err != nil {
		return 0, 0, fmt.Errorf("front-end probes: %w", err)
	}
	if err := l.paperCycle(ctx); err != nil {
		return 0, 0, fmt.Errorf("executor probes: %w", err)
	}
	if err := l.bind(ctx); err != nil {
		return 0, 0, fmt.Errorf("bind probe: %w", err)
	}
	if err := l.serving(ctx); err != nil {
		return 0, 0, fmt.Errorf("server probes: %w", err)
	}
	if err := l.engines(ctx); err != nil {
		return 0, 0, fmt.Errorf("engine probes: %w", err)
	}
	return attempted, failed, nil
}
