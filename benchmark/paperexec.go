package main

import (
	"context"
	"fmt"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup generates the data, prepares statements and servers,
	// computes reference answers and warms up with full output checks.
	setup(ctx context.Context, e *env) error
	// window runs the measured loop for about d.
	window(ctx context.Context, d time.Duration) (*window, error)
	// trace replays a fixed request count, each request whole (a root
	// span) and then stepwise through the modules' entry points (child
	// spans). A nil tracer runs the same calls unrecorded.
	trace(ctx context.Context, tr *tracer) error
	// requests lists the reads the read-side layer probes are fed.
	requests() []request
	// cacheStats reports the plan cache and commit counters of the
	// dataset the workload's requests go through.
	cacheStats() (hsp.PlanCacheStats, uint64)
	// close releases servers, durable directories and goroutines.
	close() error
}

// paperExec is Tables 7–8: statements prepared once, then streamed and
// drained round-robin by one client. Only exec, store and term decode
// work inside the window.
type paperExec struct {
	e        *env
	sp, yago *hsp.DB
	reqs     []request
	stmts    []*hsp.Stmt

	steps []*stepped // trace only: the same statements compiled stepwise
}

func (w *paperExec) setup(ctx context.Context, e *env) error {
	w.e = e
	w.sp = hsp.GenerateSP2Bench(e.scale, e.seed)
	w.yago = hsp.GenerateYAGO(e.scale, e.seed)
	for _, q := range paperQueries() {
		db := w.sp
		if q.yago {
			db = w.yago
		}
		rows, hash, err := reference(ctx, db, hsp.PlannerCDP, q.text, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		st, err := db.Prepare(ctx, q.text)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		r := request{name: q.name, yago: q.yago, text: q.text, rows: rows, hash: hash}
		if err := checkFull(ctx, r, st); err != nil {
			return err
		}
		w.reqs = append(w.reqs, r)
		w.stmts = append(w.stmts, st)
	}
	return nil
}

func (w *paperExec) window(ctx context.Context, d time.Duration) (*window, error) {
	win := &window{}
	u0 := usageNow()
	// Whole cycles only, so every run measures the same statement mix.
	for deadline := u0.t.Add(d); time.Now().Before(deadline); {
		for i, st := range w.stmts {
			t0 := time.Now()
			rows, err := st.Stream(ctx)
			n := 0
			if err == nil {
				n, err = drain(rows)
			}
			win.record(t0, n, w.reqs[i].rows, err)
		}
	}
	return win, win.since(u0)
}

func (w *paperExec) requests() []request { return w.reqs }

func (w *paperExec) cacheStats() (hsp.PlanCacheStats, uint64) {
	return w.sp.PlanCacheStats(), w.sp.Epoch()
}

func (w *paperExec) close() error {
	for _, st := range w.stmts {
		st.Close()
	}
	return nil
}

// replayStores generates the driver's own copies of the two datasets
// for stepwise replays: same generator, scale and seed as the facade's.
func replayStores(e *env) (sp, yg *store.Snapshot) {
	return store.NewSnapshot(sp2bench.Generate(e.scale, e.seed), 0),
		store.NewSnapshot(yago.Generate(e.scale, e.seed), 0)
}

// traceCycles is how many round-robin cycles a traced pass replays.
const traceCycles = 5

func (w *paperExec) trace(ctx context.Context, tr *tracer) error {
	if w.steps == nil {
		sp, yg := replayStores(w.e)
		for _, q := range paperQueries() {
			s := &stepper{snap: sp}
			if q.yago {
				s.snap = yg
			}
			sd, err := s.frontEnd(nil, 0, 0, q.text, false)
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			w.steps = append(w.steps, sd)
		}
	}
	req := 0
	for c := 0; c < traceCycles; c++ {
		for i, st := range w.stmts {
			req++
			root := tr.start(0, req, "hsp.stream")
			rows, err := st.Stream(ctx)
			n := 0
			if err == nil {
				n, err = drain(rows)
			}
			tr.end(root, int64(n))
			if err != nil {
				return fmt.Errorf("%s: %w", w.reqs[i].name, err)
			}
			got, _, err := w.steps[i].run(ctx, tr, root, req, nil, true, true)
			if err != nil {
				return fmt.Errorf("%s: %w", w.reqs[i].name, err)
			}
			if int(got) != n {
				return fmt.Errorf("%s: stepwise replay returned %d rows, the facade %d", w.reqs[i].name, got, n)
			}
		}
	}
	return nil
}
