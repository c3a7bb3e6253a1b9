// Transactional updates: the write path of the live dataset API.
//
// db.Update(ctx) opens the DB's single write transaction; Insert,
// Delete and LoadNTriples buffer operations without touching the served
// data; Commit merges the buffered delta into all six sorted orderings
// (appending new terms to the shared dictionary, k-way merging delta
// runs into each ordering) and atomically publishes the successor
// snapshot under the next epoch. Readers keep the snapshot they
// started with — in-flight runs, streams, prepared statements and
// plans are never disturbed. Cached HSP plans read no statistics and
// stay valid (later requests run them on the new snapshot); cached
// plans of the planners that read statistics are invalidated lazily on
// their next lookup.

package hsp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/wal"
)

// ErrTxnDone is returned by every method of a Txn after Commit has
// published (or Rollback has discarded) the transaction.
var ErrTxnDone = errors.New("hsp: transaction already finished")

// Txn is an open write transaction on a DB: a buffered set of insert
// and delete operations, applied atomically by Commit. A DB allows one
// transaction at a time (Update blocks until the slot frees); a Txn is
// intended for a single goroutine. Readers are never blocked by an
// open transaction — they keep the snapshot they pinned until Commit
// publishes a successor, and even then only new reads see it.
//
// Within one transaction the last operation on a triple wins: deleting
// a previously inserted triple removes the pending insert and vice
// versa. Inserting a triple already present, or deleting one absent,
// is a no-op — reported in CommitStats, never an error.
type Txn struct {
	db *DB
	// pending maps each touched triple to its last operation:
	// true = insert, false = delete.
	pending map[rdf.Triple]bool
	done    bool
}

// Update opens a write transaction on the DB. At most one transaction
// is open at a time: Update blocks until the current one commits or
// rolls back, or until ctx is cancelled (returning its error). Every
// returned transaction must be finished with Commit or Rollback, or
// the DB accepts no further writers.
func (db *DB) Update(ctx context.Context) (*Txn, error) {
	select {
	case db.writer <- struct{}{}:
		return &Txn{db: db, pending: map[rdf.Triple]bool{}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// guard validates the transaction is still open.
func (t *Txn) guard() error {
	if t.done {
		return ErrTxnDone
	}
	return nil
}

// Insert buffers one triple for insertion. It returns an error for
// triples violating the RDF data model (literal subjects, non-IRI
// predicates, zero terms) and after Commit/Rollback.
func (t *Txn) Insert(tr Triple) error {
	if err := t.guard(); err != nil {
		return err
	}
	r := rdf.Triple{S: tr.S.internal(), P: tr.P.internal(), O: tr.O.internal()}
	if !r.Valid() {
		return fmt.Errorf("hsp: invalid triple %s", r)
	}
	t.pending[r] = true
	return nil
}

// Delete buffers one triple for removal. Deleting a triple absent from
// the dataset is a no-op at commit time, not an error.
func (t *Txn) Delete(tr Triple) error {
	if err := t.guard(); err != nil {
		return err
	}
	r := rdf.Triple{S: tr.S.internal(), P: tr.P.internal(), O: tr.O.internal()}
	if !r.Valid() {
		return fmt.Errorf("hsp: invalid triple %s", r)
	}
	t.pending[r] = false
	return nil
}

// LoadNTriples buffers every statement of an N-Triples stream for
// insertion. A parse error leaves the transaction open with nothing
// from this stream buffered.
func (t *Txn) LoadNTriples(r io.Reader) error {
	if err := t.guard(); err != nil {
		return err
	}
	ts, err := rdf.NewReader(r).ReadAll()
	if err != nil {
		return err
	}
	for _, tr := range ts {
		t.pending[tr] = true
	}
	return nil
}

// Pending returns the number of buffered insert and delete operations.
func (t *Txn) Pending() (inserts, deletes int) {
	for _, ins := range t.pending {
		if ins {
			inserts++
		} else {
			deletes++
		}
	}
	return inserts, deletes
}

// CommitStats reports what a Commit changed.
type CommitStats struct {
	// Epoch is the version of the snapshot serving after the commit:
	// the predecessor's epoch plus one, or unchanged for a commit with
	// no effect.
	Epoch uint64
	// Inserted is the number of triples that were genuinely new;
	// Deleted the number that were present and removed. Buffered no-ops
	// (inserts already present, deletes of absent triples) appear in
	// neither.
	Inserted, Deleted int
	// Triples is the dataset size after the commit.
	Triples int
	// Wall is the time the merge and publish took.
	Wall time.Duration
}

// Commit merges the transaction's buffered operations into the dataset
// and atomically publishes the successor snapshot at the next epoch:
// new terms append to the shared dictionary (concurrent readers are
// never blocked), the delta runs k-way merge into all six sorted
// orderings concurrently, the statistics memo carries over every entry
// the delta cannot have touched, and the new snapshot replaces the
// served one in a single atomic swap. In-flight reads and previously
// prepared statements keep their pinned snapshot; plan-cache entries of
// planners that read statistics (CDP, SQL, hybrid) from older epochs
// are invalidated lazily, while HSP entries serve the new epoch as
// they are. A commit whose operations all reduce to no-ops publishes
// nothing and keeps the current epoch. On a DB opened with Open, the
// commit's delta is appended to the write-ahead log and synced per the
// configured policy before the snapshot is published: an acknowledged
// commit is as durable as the sync policy promises, while a WAL failure
// leaves the served dataset untouched and the transaction open.
//
// Cancelling ctx aborts the merge, leaves the served dataset untouched
// and keeps the transaction open — Commit may be retried or the
// transaction rolled back. (One deliberate asymmetry: terms of the
// buffered inserts are interned into the shared dictionary before the
// merge, and the dictionary is append-only — truncating it would race
// the wait-free readers — so a cancelled or rolled-back commit leaves
// those terms interned. They reference no triples, and a retry reuses
// them; only repeatedly abandoning large novel-term batches grows
// memory.) On success the transaction is finished and the writer slot
// released.
func (t *Txn) Commit(ctx context.Context) (CommitStats, error) {
	var cs CommitStats
	if err := t.guard(); err != nil {
		return cs, err
	}
	if err := ctx.Err(); err != nil {
		return cs, err
	}
	start := time.Now()
	// The writer slot is held, so no other goroutine can swap the state
	// under us: this capture is the transaction's base snapshot.
	state := t.db.loadState()
	d := state.snap.Store().Dict()

	// On a durable DB the same loop also builds the commit's WAL
	// record: a self-contained, term-level delta (record-local term
	// table plus index triplets), so replay re-interns through the live
	// dictionary instead of trusting dictionary IDs that drift with
	// cancelled transactions and base snapshots.
	var rec *wal.Commit
	var termIx map[rdf.Term]uint64
	if t.db.dur != nil {
		rec = &wal.Commit{}
		termIx = make(map[rdf.Term]uint64)
	}
	addTerm := func(tm rdf.Term) uint64 {
		ix, ok := termIx[tm]
		if !ok {
			ix = uint64(len(rec.Terms))
			termIx[tm] = ix
			rec.Terms = append(rec.Terms, tm)
		}
		return ix
	}

	var delta store.Delta
	// The inserts' terms intern in one batch: one dictionary write lock
	// and one published header for the whole commit.
	var insTerms []rdf.Term
	for tr, ins := range t.pending {
		if ins {
			insTerms = append(insTerms, tr.S, tr.P, tr.O)
			if rec != nil {
				rec.Inserts = append(rec.Inserts, [3]uint64{addTerm(tr.S), addTerm(tr.P), addTerm(tr.O)})
			}
			continue
		}
		// Deletes only look terms up: a component absent from the
		// dictionary means the triple cannot be present.
		s, okS := d.Lookup(tr.S)
		p, okP := d.Lookup(tr.P)
		o, okO := d.Lookup(tr.O)
		if okS && okP && okO {
			delta.Deletes = append(delta.Deletes, store.Triple{s, p, o})
			if rec != nil {
				rec.Deletes = append(rec.Deletes, [3]uint64{addTerm(tr.S), addTerm(tr.P), addTerm(tr.O)})
			}
		}
	}
	ids := d.EncodeAll(insTerms)
	delta.Inserts = make([]store.Triple, len(ids)/3)
	for i := range delta.Inserts {
		delta.Inserts[i] = store.Triple(ids[3*i : 3*i+3])
	}

	next, stats, err := state.snap.Apply(ctx, delta)
	if err != nil {
		return cs, err
	}
	if stats.Changed() {
		// Durability barrier: the record must be sealed on disk (per
		// the sync policy) before the snapshot becomes visible. A WAL
		// failure leaves the served dataset untouched and the
		// transaction open — retry or roll back.
		if rec != nil {
			rec.Epoch = next.Epoch()
			if err := t.db.logCommit(rec); err != nil {
				return CommitStats{}, fmt.Errorf("hsp: commit not made durable: %w", err)
			}
		}
		t.db.state.Store(newState(next, state.memo.CarryOver(delta.Inserts, delta.Deletes)))
		t.db.trackSnapshot(next)
	}
	cs = CommitStats{
		Epoch:    next.Epoch(),
		Inserted: stats.Inserted,
		Deleted:  stats.Deleted,
		Triples:  next.NumTriples(),
		Wall:     time.Since(start),
	}
	t.finish()
	return cs, nil
}

// Rollback discards the transaction's buffered operations and releases
// the writer slot. Rolling back a finished transaction returns
// ErrTxnDone.
func (t *Txn) Rollback() error {
	if err := t.guard(); err != nil {
		return err
	}
	t.finish()
	return nil
}

// finish marks the transaction done and frees the DB's writer slot.
func (t *Txn) finish() {
	t.done = true
	t.pending = nil
	<-t.db.writer
}
