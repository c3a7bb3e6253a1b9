package main

import (
	"context"
	"errors"
	"fmt"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/core"
	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/exec"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/rewrite"
	"github.com/sparql-hsp/hsp/internal/sparql"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/wal"
)

// stepper replays what the facade does for one request through the
// modules' public entry points, one span per call. It works on its own
// copy of the dataset (generated from the same scale and seed), because
// the facade does not expose the store it serves.
type stepper struct {
	snap *store.Snapshot
	log  *wal.Log // write replays only: a SyncNone log in the scratch directory
}

// stepped is a query taken through the front end: the compiled
// branches plus what an execution needs to bind.
type stepped struct {
	compiled []*exec.Compiled
	rename   map[string]string   // caller's placeholder names → template names
	lifted   map[string]rdf.Term // constants the template lifted out of the text
	fired    int                 // rewrite notes: rules that changed the query or plan
}

// frontEnd replays Prepare's cache-miss path: parse, template
// normalisation (only when the facade runs with a plan cache), rewrite,
// HSP planning, filter pushdown and compilation.
func (s *stepper) frontEnd(tr *tracer, parent, req int, text string, templated bool) (*stepped, error) {
	id := tr.start(parent, req, "sparql.parse")
	q, err := sparql.Parse(text)
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	out := &stepped{}
	if templated {
		id = tr.start(parent, req, "sparql.parameterize")
		tpl := sparql.Parameterize(q)
		tr.end(id, 0)
		q, out.rename, out.lifted = tpl.Query, tpl.Rename, tpl.Binds
	}
	id = tr.start(parent, req, "rewrite.apply")
	q, notes := rewrite.Apply(q, rewrite.All())
	tr.end(id, 0)
	out.fired = len(notes)

	var plans []*algebra.Plan
	id = tr.start(parent, req, "core.plan")
	for _, branch := range q.Branches() {
		res, perr := core.NewPlanner().PlanDetailed(branch)
		if perr != nil {
			err = perr
			break
		}
		plans = append(plans, res.Plan)
	}
	tr.end(id, 0)
	if err != nil {
		return nil, err
	}
	id = tr.start(parent, req, "rewrite.pushfilters")
	for _, pl := range plans {
		root, ns := rewrite.PushFilters(pl.Root)
		pl.Root = root
		out.fired += len(ns)
	}
	tr.end(id, 0)

	eng := exec.NewAt(exec.ColumnSource{St: s.snap.Store()}, s.snap.Epoch())
	id = tr.start(parent, req, "exec.compile")
	for _, pl := range plans {
		c, cerr := eng.Compile(pl)
		if cerr != nil {
			err = cerr
			break
		}
		out.compiled = append(out.compiled, c)
	}
	tr.end(id, 0)
	return out, err
}

// internalTerm converts a public term the way the facade does.
func internalTerm(t hsp.Term) rdf.Term {
	switch t.Kind {
	case "literal":
		return rdf.NewLiteral(t.Value)
	case "blank":
		return rdf.NewBlank(t.Value)
	default:
		return rdf.NewIRI(t.Value)
	}
}

// run replays the execution as ID rows (exec.run) and then the term
// decode the facade performs per delivered row (hsp.decode). Streamed
// replays pull the rows one by one through Compiled.RunContext, as
// Stmt.Stream does; the others materialise through ExecuteContext, as
// Stmt.Query does. It returns the row and decoded-term counts.
func (sd *stepped) run(ctx context.Context, tr *tracer, parent, req int, binds []hsp.Binding, streamed, decode bool) (rows, terms int64, err error) {
	var eb map[string]rdf.Term
	if len(binds)+len(sd.lifted) > 0 {
		eb = make(map[string]rdf.Term, len(binds)+len(sd.lifted))
		for name, t := range sd.lifted {
			eb[name] = t
		}
		for _, b := range binds {
			name := b.Name
			if canon, ok := sd.rename[name]; ok {
				name = canon
			}
			eb[name] = internalTerm(b.Value)
		}
	}
	opts := exec.Options{Binds: eb}
	// One entry per compiled branch: the copied ID rows of a streamed
	// replay, or the materialised result.
	type branch struct {
		c    *exec.Compiled
		rows []exec.Row
		res  *exec.Result
	}
	var branches []branch
	id := tr.start(parent, req, "exec.run")
	for _, c := range sd.compiled {
		b := branch{c: c}
		if streamed {
			run := c.RunContext(ctx, opts)
			for run.Next() {
				b.rows = append(b.rows, append(exec.Row(nil), run.Row()...))
			}
			err = errors.Join(run.Err(), run.Close())
			rows += int64(len(b.rows))
		} else if b.res, err = c.ExecuteContext(ctx, opts); err == nil {
			rows += int64(b.res.Len())
		}
		if err != nil {
			break
		}
		branches = append(branches, b)
	}
	tr.end(id, rows)
	if err != nil || !decode {
		return rows, 0, err
	}
	public := func(row map[sparql.Var]rdf.Term) {
		out := make(map[string]hsp.Term, len(row))
		for v, t := range row {
			switch t.Kind {
			case rdf.Literal:
				out[string(v)] = hsp.Literal(t.Value)
			case rdf.Blank:
				out[string(v)] = hsp.Blank(t.Value)
			default:
				out[string(v)] = hsp.IRI(t.Value)
			}
		}
		terms += int64(len(out))
	}
	id = tr.start(parent, req, "hsp.decode")
	for _, b := range branches {
		for _, r := range b.rows {
			public(b.c.DecodeRow(r))
		}
		for i := 0; b.res != nil && i < b.res.Len(); i++ {
			public(b.res.Terms(i))
		}
	}
	tr.end(id, rows)
	return rows, terms, nil
}

// commit replays Txn.Commit's layers on the stepper's own snapshot and
// log: the WAL append (its record encoding as a nested span), the
// fsync, and the snapshot merge. Building the record and the delta is
// the facade's own work and gets no span.
func (s *stepper) commit(ctx context.Context, tr *tracer, parent, req int, inserts, deletes []hsp.Triple) error {
	d := s.snap.Store().Dict()
	rec := &wal.Commit{Epoch: s.snap.Epoch() + 1}
	termIx := map[rdf.Term]uint64{}
	addTerm := func(t rdf.Term) uint64 {
		ix, ok := termIx[t]
		if !ok {
			ix = uint64(len(rec.Terms))
			termIx[t] = ix
			rec.Terms = append(rec.Terms, t)
		}
		return ix
	}
	var delta store.Delta
	for _, tr3 := range inserts {
		t := rdf.Triple{S: internalTerm(tr3.S), P: internalTerm(tr3.P), O: internalTerm(tr3.O)}
		sID, pID, oID := d.EncodeTriple(t)
		delta.Inserts = append(delta.Inserts, store.Triple{sID, pID, oID})
		rec.Inserts = append(rec.Inserts, [3]uint64{addTerm(t.S), addTerm(t.P), addTerm(t.O)})
	}
	for _, tr3 := range deletes {
		t := rdf.Triple{S: internalTerm(tr3.S), P: internalTerm(tr3.P), O: internalTerm(tr3.O)}
		var ids [3]dict.ID
		known := true
		for i, tm := range []rdf.Term{t.S, t.P, t.O} {
			if ids[i], known = d.Lookup(tm); !known {
				break
			}
		}
		if known {
			delta.Deletes = append(delta.Deletes, store.Triple(ids))
			rec.Deletes = append(rec.Deletes, [3]uint64{addTerm(t.S), addTerm(t.P), addTerm(t.O)})
		}
	}
	n := int64(len(inserts) + len(deletes))

	// AppendCommit encodes the record itself; the nested span times the
	// same encoding on its own so the append's self time is the framing
	// and the buffered write.
	app := tr.start(parent, req, "wal.append")
	err := s.log.AppendCommit(rec)
	tr.end(app, n)
	if err != nil {
		return fmt.Errorf("replaying wal append: %w", err)
	}
	id := tr.start(app, req, "wal.encode")
	payload := wal.EncodeCommit(rec)
	tr.end(id, int64(len(payload)))

	id = tr.start(parent, req, "wal.sync")
	err = s.log.Sync()
	tr.end(id, 0)
	if err != nil {
		return fmt.Errorf("replaying wal sync: %w", err)
	}

	id = tr.start(parent, req, "store.apply")
	next, _, err := s.snap.Apply(ctx, delta)
	tr.end(id, n)
	if err != nil {
		return fmt.Errorf("replaying snapshot apply: %w", err)
	}
	s.snap = next
	return nil
}
