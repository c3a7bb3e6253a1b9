package main

import (
	"context"
	"fmt"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
)

// planCacheSize is the server's default plan-cache capacity; the
// corpus is four times larger, so the cache never helps.
const planCacheSize = 1024

// planCold prepares and runs a corpus of distinct query templates in
// order through the plan cache: every request misses, so sparql,
// rewrite, core and exec.Compile do the work and the executor idles.
type planCold struct {
	e      *env
	size   int // corpus size: corpusSize, smaller only at toy scale
	db     *hsp.DB
	corpus *corpus
	refs   []request // one per instance: the reference answer
	next   int       // next template of the cycle

	step *stepper
}

func (w *planCold) setup(ctx context.Context, e *env) error {
	w.e = e
	w.db = hsp.GenerateSP2Bench(e.scale, e.seed)
	c, err := buildCorpus(e.scale, e.seed, w.size)
	if err != nil {
		return err
	}
	w.corpus = c
	for _, in := range c.instances {
		rows, hash, err := reference(ctx, w.db, hsp.PlannerSQL, in.canonical, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", in.intent, err)
		}
		w.refs = append(w.refs, request{name: in.intent, text: in.canonical, rows: rows, hash: hash})
	}
	// Warm-up runs every template once with the full hash check, which
	// is also the proof that all spellings of an instance agree. It
	// leaves the cache holding the corpus's tail, so the window, which
	// starts at the head, misses from its first request.
	for _, t := range c.templates {
		st, err := w.db.Prepare(ctx, t.text, hsp.WithPlanCache(planCacheSize))
		if err != nil {
			return fmt.Errorf("%s: %w\n%s", w.refs[t.instance].name, err, t.text)
		}
		r := w.refs[t.instance]
		r.text = t.text
		err = checkFull(ctx, r, st)
		st.Close()
		if err != nil {
			return fmt.Errorf("%w\n%s", err, t.text)
		}
	}
	return nil
}

// one prepares and runs template i the way a client without prepared
// statements does, returning the row count.
func (w *planCold) one(ctx context.Context, i int) (int, error) {
	st, err := w.db.Prepare(ctx, w.corpus.templates[i].text, hsp.WithPlanCache(planCacheSize))
	if err != nil {
		return 0, err
	}
	defer st.Close()
	res, err := st.Query(ctx)
	if err != nil {
		return 0, err
	}
	return res.Len(), nil
}

func (w *planCold) window(ctx context.Context, d time.Duration) (*window, error) {
	win := &window{}
	u0 := usageNow()
	for deadline := u0.t.Add(d); time.Now().Before(deadline); {
		i := w.next
		w.next = (w.next + 1) % len(w.corpus.templates)
		t0 := time.Now()
		n, err := w.one(ctx, i)
		win.record(t0, n, w.refs[w.corpus.templates[i].instance].rows, err)
	}
	return win, win.since(u0)
}

// requests feeds the layer probes a slice of the corpus.
func (w *planCold) requests() []request {
	n := min(256, len(w.corpus.templates))
	out := make([]request, n)
	for i := range out {
		t := w.corpus.templates[i]
		out[i] = w.refs[t.instance]
		out[i].text = t.text
	}
	return out
}

func (w *planCold) cacheStats() (hsp.PlanCacheStats, uint64) {
	return w.db.PlanCacheStats(), w.db.Epoch()
}

func (w *planCold) close() error { return nil }

func (w *planCold) trace(ctx context.Context, tr *tracer) error {
	if w.step == nil {
		w.step = &stepper{snap: store.NewSnapshot(sp2bench.Generate(w.e.scale, w.e.seed), 0)}
	}
	// Every pass replays the corpus's first half; its second half goes
	// through first and flushes the cache, so every pass sees only misses.
	n := len(w.corpus.templates)
	for i := n / 2; i < n; i++ {
		if _, err := w.one(ctx, i); err != nil {
			return err
		}
	}
	for i := 0; i < n/2; i++ {
		req := i + 1
		root := tr.start(0, req, "hsp.prepare_query")
		rows, err := w.one(ctx, i)
		tr.end(root, int64(rows))
		if err != nil {
			return err
		}
		sd, err := w.step.frontEnd(tr, root, req, w.corpus.templates[i].text, true)
		if err != nil {
			return err
		}
		got, _, err := sd.run(ctx, tr, root, req, nil, false, false)
		if err != nil {
			return err
		}
		if int(got) != rows {
			return fmt.Errorf("template %d: stepwise replay returned %d rows, the facade %d", i, got, rows)
		}
	}
	return nil
}
