package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/wal"
)

const (
	commitPeriod  = 50 * time.Millisecond // open loop: 20 commits/s
	insertsPerTxn = 256
	deletesPerTxn = 64
	deleteLag     = 10 // a commit deletes from the batch inserted this many commits earlier
	warmCommits   = 12 // past deleteLag, so the window starts in the insert+delete steady state
	tailCommits   = 32 // committed after the final Compact, so the reopen replays a WAL tail
	livePredicate = "http://localhost/vocabulary/bench/live"
)

// liveStats is what the write side of a live window observed.
type liveStats struct {
	commitLat   []float64 // ms from the commit's due time to its acknowledgement
	late        []float64 // ms the writer started a commit after it was due
	stallMax    float64   // ms, the longest single Commit call
	commits     int64
	userBytes   float64 // N-Triples bytes of the committed deltas
	written     float64 // bytes passed to write syscalls during the window
	dur0, dur1  hsp.DurabilityStats
	retainedMax float64 // MiB
	snapsMax    int
	compact     time.Duration // the final db.Compact
	baseOpen    time.Duration // a re-Open that loads the base and replays nothing
	recover     time.Duration // the re-Open that loads the base and replays tailCommits
}

// liveRW is the durable dataset under writes beside reads: one writer
// committing on a fixed schedule, one reader running query texts
// through the plan cache. Every commit moves the epoch, so the reader
// sees invalidations, MVCC retention and compaction stalls.
type liveRW struct {
	e     *env
	dir   string
	db    *hsp.DB
	reads []request
	next  int // number of the next commit

	step    *stepper
	stepped map[string]*stepped
}

func liveOpen(dir string) (*hsp.DB, error) {
	return hsp.Open(dir, hsp.WithSyncPolicy(hsp.SyncAlways), hsp.WithSegmentBytes(256<<10), hsp.WithCompactionThreshold(1<<20))
}

func (w *liveRW) setup(ctx context.Context, e *env) error {
	w.e = e
	mem := hsp.GenerateSP2Bench(e.scale, e.seed)
	rng := rand.New(rand.NewSource(e.seed))
	titles := spread(rng, journals(e.scale), 7)
	for i, q := range paperQueries() {
		if q.yago {
			continue
		}
		point := strings.Replace(pointQuery, "$title", `"`+journalTitle(titles[i%len(titles)])+`"`, 1)
		for _, r := range []request{{name: q.name, text: q.text}, {name: "point", text: point}} {
			var err error
			if r.rows, r.hash, err = reference(ctx, mem, hsp.PlannerCDP, r.text, nil); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			w.reads = append(w.reads, r)
		}
	}

	// Preload: the generated dataset saved as the directory's epoch-0
	// base snapshot, which Open then recovers from.
	dir, err := os.MkdirTemp(e.tmp, "live-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := mem.SaveFile(filepath.Join(dir, fmt.Sprintf("base-%016d.hsp", 0))); err != nil {
		return err
	}
	if w.db, err = liveOpen(dir); err != nil {
		return err
	}
	if w.db.NumTriples() != mem.NumTriples() {
		return fmt.Errorf("preload: durable dataset has %d triples, generated %d", w.db.NumTriples(), mem.NumTriples())
	}
	for i := 0; i < warmCommits; i++ {
		if err := w.commit(ctx, nil); err != nil {
			return err
		}
	}
	for i := range w.reads {
		st, err := w.db.Prepare(ctx, w.reads[i].text, hsp.WithPlanCache(planCacheSize))
		if err != nil {
			return err
		}
		err = checkFull(ctx, w.reads[i], st)
		st.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// liveTriple is the j-th triple of commit c's insert batch. The
// subjects and the predicate occur nowhere in the generated data, so
// the reads' reference answers hold at every epoch.
func (w *liveRW) liveTriple(c, j int) hsp.Triple {
	return hsp.Triple{
		S: hsp.IRI(fmt.Sprintf("http://localhost/live/s%d/c%d/%d", w.e.seed, c, j)),
		P: hsp.IRI(livePredicate),
		O: hsp.Literal(fmt.Sprintf("v%d.%d", c, j)),
	}
}

// batch returns the next commit's inserts and deletes.
func (w *liveRW) batch() (ins, del []hsp.Triple) {
	c := w.next
	w.next++
	for j := 0; j < insertsPerTxn; j++ {
		ins = append(ins, w.liveTriple(c, j))
	}
	if c >= deleteLag {
		for j := 0; j < deletesPerTxn; j++ {
			del = append(del, w.liveTriple(c-deleteLag, j))
		}
	}
	return ins, del
}

func ntBytes(ts []hsp.Triple) (n float64) {
	for _, t := range ts {
		n += float64(len(t.S.String()) + len(t.P.String()) + len(t.O.String()) + 4)
	}
	return n
}

// commit applies the next batch in one transaction; stats, when
// non-nil, accumulates the committed user bytes.
func (w *liveRW) commit(ctx context.Context, stats *liveStats) error {
	ins, del := w.batch()
	return w.commitBatch(ctx, ins, del, stats)
}

func (w *liveRW) commitBatch(ctx context.Context, ins, del []hsp.Triple, stats *liveStats) error {
	txn, err := w.db.Update(ctx)
	if err != nil {
		return err
	}
	for _, t := range ins {
		if err == nil {
			err = txn.Insert(t)
		}
	}
	for _, t := range del {
		if err == nil {
			err = txn.Delete(t)
		}
	}
	var cs hsp.CommitStats
	if err == nil {
		cs, err = txn.Commit(ctx)
	}
	if err != nil {
		return errors.Join(err, txn.Rollback())
	}
	if cs.Inserted != len(ins) || cs.Deleted != len(del) {
		return fmt.Errorf("commit at epoch %d applied %d inserts and %d deletes, sent %d and %d", cs.Epoch, cs.Inserted, cs.Deleted, len(ins), len(del))
	}
	if stats != nil {
		stats.commits++
		stats.userBytes += ntBytes(ins) + ntBytes(del)
	}
	return nil
}

// read runs one query text the way a client without prepared
// statements does: through the plan cache, streamed and drained.
func (w *liveRW) read(ctx context.Context, r request) (int, error) {
	st, err := w.db.Prepare(ctx, r.text, hsp.WithPlanCache(planCacheSize))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	rows, err := st.Stream(ctx)
	if err != nil {
		return 0, err
	}
	return drain(rows)
}

func (w *liveRW) window(ctx context.Context, d time.Duration) (*window, error) {
	stats := &liveStats{dur0: w.db.DurabilityStats()}
	written0, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	var rd, wr window
	var wg sync.WaitGroup
	u0 := usageNow()
	deadline := u0.t.Add(d)

	wg.Add(2)
	go func() { // the writer: open loop, one commit every commitPeriod
		defer wg.Done()
		for i := 0; ; i++ {
			due := u0.t.Add(time.Duration(i) * commitPeriod)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			began := time.Now()
			err := w.commit(ctx, stats)
			done := time.Now()
			wr.attempted++
			if err != nil {
				wr.failed++
				w.e.logf("  commit failed: %v\n", err)
			}
			stats.late = append(stats.late, ms(began.Sub(due)))
			stats.commitLat = append(stats.commitLat, ms(done.Sub(due)))
			stats.stallMax = max(stats.stallMax, ms(done.Sub(began)))
			ss := w.db.StoreStats()
			stats.retainedMax = max(stats.retainedMax, float64(ss.RetainedBytes)/(1<<20))
			stats.snapsMax = max(stats.snapsMax, ss.LiveSnapshots)
		}
	}()
	go func() { // the reader: closed loop
		defer wg.Done()
		for k := 0; time.Now().Before(deadline); k++ {
			r := w.reads[k%len(w.reads)]
			t0 := time.Now()
			n, err := w.read(ctx, r)
			rd.record(t0, n, r.rows, err)
		}
	}()
	wg.Wait()

	win := &window{lat: rd.lat, rows: rd.rows, attempted: rd.attempted + wr.attempted, failed: rd.failed + wr.failed, live: stats}
	if err := win.since(u0); err != nil {
		return nil, err
	}
	written1, err := writtenBytes()
	if err != nil {
		return nil, err
	}
	stats.written = written1 - written0
	stats.dur1 = w.db.DurabilityStats()

	// The reopen check counts as one more attempted operation.
	win.attempted++
	if err := w.reopen(ctx, stats); err != nil {
		win.failed++
		w.e.logf("  reopen check failed: %v\n", err)
	}
	return win, nil
}

// probe is the multiset of live triples, the part of the dataset the
// window changed.
func (w *liveRW) probe(ctx context.Context) (int, uint64, error) {
	rows, err := w.db.StreamContext(ctx, "SELECT ?s ?v WHERE { ?s <"+livePredicate+"> ?v }")
	if err != nil {
		return 0, 0, err
	}
	return drainHashed(rows)
}

// reopen is the durability check, run with the writer quiesced: fold
// the log, commit a tail that stays in the WAL, close, recover, and
// compare epoch, size and the probe's multiset with the values before
// the close.
func (w *liveRW) reopen(ctx context.Context, stats *liveStats) error {
	t0 := time.Now()
	if err := w.db.Compact(ctx); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	stats.compact = time.Since(t0)
	// A first close and re-Open with an empty log times the base load
	// alone, so the second one's excess is the WAL replay.
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	t0 = time.Now()
	db, err := liveOpen(w.dir)
	stats.baseOpen = time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen after compaction: %w", err)
	}
	w.db = db
	for i := 0; i < tailCommits; i++ {
		if err := w.commit(ctx, nil); err != nil {
			return err
		}
	}
	epoch, triples := w.db.Epoch(), w.db.NumTriples()
	n, hash, err := w.probe(ctx)
	if err != nil {
		return err
	}
	if err := w.db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	t0 = time.Now()
	w.db, err = liveOpen(w.dir)
	stats.recover = time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	n2, hash2, err := w.probe(ctx)
	if err != nil {
		return err
	}
	if w.db.Epoch() != epoch || w.db.NumTriples() != triples || n2 != n || hash2 != hash {
		return fmt.Errorf("recovered epoch %d with %d triples and %d live rows (hash %x); before the close: epoch %d, %d triples, %d rows (hash %x)",
			w.db.Epoch(), w.db.NumTriples(), n2, hash2, epoch, triples, n, hash)
	}
	return nil
}

func (w *liveRW) requests() []request { return w.reads }

func (w *liveRW) cacheStats() (hsp.PlanCacheStats, uint64) {
	return w.db.PlanCacheStats(), w.db.Epoch()
}

func (w *liveRW) close() error {
	var err error
	if w.step != nil {
		err = w.step.log.Close()
	}
	if w.db != nil {
		err = errors.Join(err, w.db.Close())
	}
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir), os.RemoveAll(w.dir+"-replay"))
	}
	return err
}

// traceCommits is how many commits (each followed by one cycle of
// reads) a traced pass replays.
const traceCommits = 12

func (w *liveRW) trace(ctx context.Context, tr *tracer) error {
	if w.step == nil {
		if err := os.MkdirAll(w.dir+"-replay", 0o777); err != nil {
			return err
		}
		log, err := wal.Open(w.dir+"-replay", wal.Options{Sync: wal.SyncNone, SegmentBytes: 256 << 10})
		if err != nil {
			return err
		}
		w.step = &stepper{snap: store.NewSnapshot(sp2bench.Generate(w.e.scale, w.e.seed), 0), log: log}
		w.stepped = map[string]*stepped{}
		for _, r := range w.reads {
			if w.stepped[r.text], err = w.step.frontEnd(nil, 0, 0, r.text, true); err != nil {
				return err
			}
		}
		// Bring the replay store to where the durable one is.
		replay := &liveRW{e: w.e}
		for replay.next < w.next {
			ins, del := replay.batch()
			if err := w.step.commit(ctx, nil, 0, 0, ins, del); err != nil {
				return err
			}
		}
	}
	req := 0
	for c := 0; c < traceCommits; c++ {
		req++
		ins, del := w.batch()
		root := tr.start(0, req, "hsp.commit")
		err := w.commitBatch(ctx, ins, del, nil)
		tr.end(root, int64(len(ins)+len(del)))
		if err != nil {
			return err
		}
		if err := w.step.commit(ctx, tr, root, req, ins, del); err != nil {
			return err
		}
		for _, r := range w.reads {
			req++
			misses := w.db.PlanCacheStats().Misses
			root := tr.start(0, req, "hsp.prepare_stream")
			n, err := w.read(ctx, r)
			tr.end(root, int64(n))
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			// A miss (the commit invalidated the entry) replays the
			// front end too; a hit only the execution.
			if w.db.PlanCacheStats().Misses > misses {
				if w.stepped[r.text], err = w.step.frontEnd(tr, root, req, r.text, true); err != nil {
					return err
				}
			}
			got, _, err := w.stepped[r.text].run(ctx, tr, root, req, nil, true, true)
			if err != nil {
				return err
			}
			if int(got) != n {
				return fmt.Errorf("%s: stepwise replay returned %d rows, the facade %d", r.name, got, n)
			}
		}
	}
	return nil
}
