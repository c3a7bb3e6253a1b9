// Durable datasets: hsp.Open, crash recovery and compaction.
//
// Open(dir) turns a directory into a durable DB: commits append their
// delta to a write-ahead log (internal/wal) and sync it per the
// configured policy *before* the atomic snapshot publish, so an
// acknowledged commit survives a crash. Reopening the directory
// recovers by loading the newest valid base snapshot (base-<epoch>.hsp)
// and replaying the sealed commits after it — landing on exactly the
// last durably sealed epoch, never a partial commit. A background
// compactor folds the log into a fresh base snapshot once it outgrows
// a threshold, then retires the covered segments and obsolete bases.
//
// See docs/DURABILITY.md for the record format, the sync-policy
// trade-offs, the recovery procedure and the compaction lifecycle.

package hsp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
	"weak"

	"github.com/sparql-hsp/hsp/internal/dict"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/store"
	"github.com/sparql-hsp/hsp/internal/wal"
)

// SyncPolicy decides when a commit's WAL record is forced to stable
// storage; it trades commit latency against the window of acknowledged
// commits a crash can lose. The zero value is SyncAlways.
type SyncPolicy struct{ p wal.SyncPolicy }

// SyncAlways fsyncs every commit before acknowledging it: a crash
// never loses an acknowledged commit. The durable default.
var SyncAlways = SyncPolicy{wal.SyncAlways}

// SyncNone hands commit records to the OS without explicit fsync:
// fastest, but a crash may lose recently acknowledged commits (the
// dataset still recovers consistently to an earlier epoch).
var SyncNone = SyncPolicy{wal.SyncNone}

// SyncInterval fsyncs on a background timer: a crash loses at most the
// last d of acknowledged commits.
func SyncInterval(d time.Duration) SyncPolicy { return SyncPolicy{wal.SyncInterval(d)} }

// String renders the policy ("always", "none", "interval:1s").
func (p SyncPolicy) String() string { return p.p.String() }

// DefaultCompactBytes is the WAL size at which the background
// compactor folds the log into a fresh base snapshot, unless
// WithCompactionThreshold overrides it.
const DefaultCompactBytes int64 = 64 << 20

// OpenOption configures Open.
type OpenOption func(*openConfig)

type openConfig struct {
	sync         SyncPolicy
	compactAt    int64
	segmentBytes int64
	injector     wal.Injector
}

// WithSyncPolicy selects the WAL sync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) OpenOption {
	return func(c *openConfig) { c.sync = p }
}

// WithCompactionThreshold sets the WAL size (bytes) past which the
// background compactor folds the log into a new base snapshot.
// 0 restores DefaultCompactBytes; negative disables auto-compaction
// (Compact still folds on demand).
func WithCompactionThreshold(bytes int64) OpenOption {
	return func(c *openConfig) { c.compactAt = bytes }
}

// WithSegmentBytes sets the WAL segment rotation threshold (default
// wal.DefaultSegmentBytes, 16 MiB).
func WithSegmentBytes(bytes int64) OpenOption {
	return func(c *openConfig) { c.segmentBytes = bytes }
}

// withWALInjector routes the log's physical writes through inj — the
// crash-injection seam, for tests.
func withWALInjector(inj wal.Injector) OpenOption {
	return func(c *openConfig) { c.injector = inj }
}

// durability is the DB's attachment to its directory: the WAL, the
// newest base snapshot's coordinates, and the compactor lifecycle.
type durability struct {
	dir    string
	log    *wal.Log
	cancel context.CancelFunc // stops the compactor goroutine
	closed atomic.Bool

	// baseEpoch is the epoch covered by the newest base snapshot file;
	// segments at or below it are retirable.
	baseEpoch atomic.Uint64
}

// baseName returns the base-snapshot file name covering epoch.
func baseName(epoch uint64) string { return fmt.Sprintf("base-%016d.hsp", epoch) }

// Open opens (creating if needed) a durable dataset in dir and
// recovers it to the last durably sealed epoch: the newest valid base
// snapshot is loaded, the write-ahead log's torn tail is truncated,
// and every sealed commit after the base is replayed. Commits on the
// returned DB are logged and synced per the policy before they are
// published. Close the DB to stop its background goroutines and flush
// the log tail.
func Open(dir string, opts ...OpenOption) (*DB, error) {
	cfg := openConfig{sync: SyncAlways, compactAt: DefaultCompactBytes}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.compactAt == 0 {
		cfg.compactAt = DefaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("hsp: creating data directory: %w", err)
	}
	snap, err := loadNewestBase(dir)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(dir, wal.Options{
		Sync:         cfg.sync.p,
		SegmentBytes: cfg.segmentBytes,
		Injector:     cfg.injector,
	})
	if err != nil {
		return nil, err
	}
	//hsp:lint-allow ctxflow recovery replay runs before the DB exists; no caller context to thread
	ctx := context.Background()
	cur, err := replayWAL(ctx, log, snap)
	if err != nil {
		log.Close() //nolint:errcheck // the replay error is the one to report
		return nil, err
	}
	db := newDBAt(cur)
	dur := &durability{dir: dir, log: log}
	dur.baseEpoch.Store(snap.Epoch())
	db.dur = dur
	//hsp:lint-allow ctxflow the compactor's lifetime is the DB's, ended by Close; no caller context outlives Open
	cctx, cancel := context.WithCancel(context.Background())
	dur.cancel = cancel
	threshold := cfg.compactAt
	if threshold < 0 {
		threshold = 0 // registered for Compact, never auto-kicked
	}
	log.AutoCompact(cctx, threshold, db.foldBase)
	return db, nil
}

// loadNewestBase loads the newest valid base-<epoch>.hsp in dir,
// falling back to older bases when the newest is corrupt (a crash
// mid-fold leaves only a .tmp, but a torn disk can corrupt anything);
// with no loadable base the dataset starts empty at epoch 0.
func loadNewestBase(dir string) (*store.Snapshot, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hsp: listing %s: %w", dir, err)
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "base-") && strings.HasSuffix(n, ".hsp") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var firstErr error
	for _, name := range names {
		snap, err := loadBaseFile(filepath.Join(dir, name))
		if err == nil {
			return snap, nil
		}
		if !errors.Is(err, store.ErrCorruptSnapshot) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if len(names) > 0 && firstErr != nil {
		// Every base is corrupt: starting empty would silently replay
		// the WAL against the wrong base. Surface the corruption.
		return nil, fmt.Errorf("hsp: no loadable base snapshot: %w", firstErr)
	}
	return store.NewSnapshot(store.NewBuilder(nil).Build(), 0), nil
}

// loadBaseFile loads one base snapshot file.
func loadBaseFile(path string) (*store.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hsp: opening base snapshot: %w", err)
	}
	defer f.Close()
	snap, err := store.LoadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("hsp: base snapshot %s: %w", filepath.Base(path), err)
	}
	return snap, nil
}

// replayWAL applies every sealed commit after the base snapshot's
// epoch, in order, and returns the recovered snapshot. Commits at or
// below the base epoch are already folded in and skipped; a gap in the
// epoch sequence means a base/WAL mismatch and fails recovery.
func replayWAL(ctx context.Context, log *wal.Log, base *store.Snapshot) (*store.Snapshot, error) {
	cur := base
	var pending *wal.Commit
	err := log.Replay(func(rec wal.Record) error {
		switch rec.Type {
		case wal.TypeCommit:
			c, err := wal.DecodeCommit(rec.Payload)
			if err != nil {
				return err
			}
			pending = c
		case wal.TypeSeal:
			epoch, err := wal.DecodeSeal(rec.Payload)
			if err != nil {
				return err
			}
			if pending == nil || pending.Epoch != epoch {
				// A seal with no matching commit seals nothing.
				pending = nil
				return nil
			}
			c := pending
			pending = nil
			switch {
			case c.Epoch <= cur.Epoch():
				// Already folded into the base snapshot.
			case c.Epoch == cur.Epoch()+1:
				next, err := replayCommit(ctx, cur, c)
				if err != nil {
					return err
				}
				cur = next
			default:
				return fmt.Errorf("hsp: recovery gap: log commit at epoch %d but dataset is at %d", c.Epoch, cur.Epoch())
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// replayCommit applies one logged commit to the snapshot. The record
// is term-level: insert terms re-intern through the live dictionary
// exactly as the original commit did (in one batch), delete terms only
// look up (an unknown term means the triple cannot be present).
func replayCommit(ctx context.Context, snap *store.Snapshot, c *wal.Commit) (*store.Snapshot, error) {
	d := snap.Store().Dict()
	var delta store.Delta
	insTerms := make([]rdf.Term, 0, 3*len(c.Inserts))
	for _, tr := range c.Inserts {
		for _, ix := range tr {
			insTerms = append(insTerms, c.Terms[ix])
		}
	}
	insIDs := d.EncodeAll(insTerms)
	delta.Inserts = make([]store.Triple, len(c.Inserts))
	for i := range delta.Inserts {
		delta.Inserts[i] = store.Triple(insIDs[3*i : 3*i+3])
	}
	ids := make([]dict.ID, len(c.Terms)) // delete-term lookups, memoised
	for _, tr := range c.Deletes {
		var t store.Triple
		known := true
		for j, ix := range tr {
			id := ids[ix]
			if id == dict.Invalid {
				id, known = d.Lookup(c.Terms[ix])
				if !known {
					break
				}
				ids[ix] = id
			}
			t[j] = id
		}
		if known {
			delta.Deletes = append(delta.Deletes, t)
		}
	}
	next, _, err := snap.Apply(ctx, delta)
	if err != nil {
		return nil, fmt.Errorf("hsp: replaying commit for epoch %d: %w", c.Epoch, err)
	}
	if next.Epoch() != c.Epoch {
		return nil, fmt.Errorf("hsp: replayed commit for epoch %d produced epoch %d (log/base mismatch)", c.Epoch, next.Epoch())
	}
	return next, nil
}

// logCommit makes one commit durable before it is published. Called by
// Txn.Commit with the writer slot held; a nil db.dur (in-memory DB)
// logs nothing.
func (db *DB) logCommit(c *wal.Commit) error {
	if db.dur == nil {
		return nil
	}
	return db.dur.log.AppendCommit(c)
}

// foldBase materialises the current snapshot as a new base file, then
// retires the WAL segments and older bases it covers. It is the
// compactor's fold callback and the body of Compact.
func (db *DB) foldBase(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dur := db.dur
	snap := db.loadState().snap
	epoch := snap.Epoch()
	if epoch <= dur.baseEpoch.Load() {
		return nil // nothing sealed since the last fold
	}
	name := baseName(epoch)
	path := filepath.Join(dur.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("hsp: creating base snapshot: %w", err)
	}
	if err := snap.Save(f); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("hsp: writing base snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("hsp: syncing base snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("hsp: closing base snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("hsp: publishing base snapshot: %w", err)
	}
	if err := syncDir(dur.dir); err != nil {
		return err
	}
	// The base is durable: note it in the log, retire covered segments
	// and drop superseded bases. Failures past this point leave extra
	// files behind, never an unrecoverable directory.
	if err := dur.log.AppendNote(epoch, name); err != nil {
		return err
	}
	prev := dur.baseEpoch.Swap(epoch)
	if err := dur.log.Retire(epoch); err != nil {
		return err
	}
	if prev != epoch {
		if err := os.Remove(filepath.Join(dur.dir, baseName(prev))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("hsp: removing superseded base: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("hsp: opening directory for sync: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("hsp: syncing directory: %w", err)
	}
	return nil
}

// Compact folds the WAL into a fresh base snapshot now, regardless of
// the auto-compaction threshold. It returns an error on in-memory DBs
// (no durability directory).
func (db *DB) Compact(ctx context.Context) error {
	if db.dur == nil {
		return errors.New("hsp: durability not enabled (DB was not opened with Open)")
	}
	return db.dur.log.CompactNow(ctx)
}

// Close stops the DB's durability goroutines (interval flusher,
// compactor), flushes and fsyncs the WAL tail, and closes the log.
// Reads keep working against the last published snapshot; commits fail
// once the log is closed. Closing an in-memory DB, or closing twice,
// is a no-op.
func (db *DB) Close() error {
	if db.dur == nil || !db.dur.closed.CompareAndSwap(false, true) {
		return nil
	}
	db.dur.cancel()
	return db.dur.log.Close()
}

// DurabilityStats is a point-in-time snapshot of the durability
// subsystem's counters, zero-valued (Enabled false) for in-memory DBs.
// Served by /metrics on the HTTP server.
type DurabilityStats struct {
	// Enabled reports whether the DB was opened with Open.
	Enabled bool `json:"enabled"`
	// Dir is the data directory.
	Dir string `json:"dir,omitempty"`
	// Segments and WALBytes describe the live log; LastEpoch is the
	// highest durably sealed epoch.
	Segments  int    `json:"segments"`
	WALBytes  int64  `json:"wal_bytes"`
	LastEpoch uint64 `json:"last_epoch"`
	// Commits, Syncs and Appends count operations since Open.
	Commits int64 `json:"commits"`
	Syncs   int64 `json:"syncs"`
	Appends int64 `json:"appends"`
	// BaseEpoch is the epoch covered by the newest base snapshot;
	// Compactions the folds completed; SegmentsRetired the WAL segment
	// files deleted after folding.
	BaseEpoch       uint64 `json:"base_epoch"`
	Compactions     int64  `json:"compactions"`
	SegmentsRetired int64  `json:"segments_retired"`
	// SyncPolicy names the active policy ("always", "none", "interval:…").
	SyncPolicy string `json:"sync_policy,omitempty"`
}

// DurabilityStats reports the WAL and compaction counters of a durable
// DB; the zero value for in-memory DBs.
func (db *DB) DurabilityStats() DurabilityStats {
	if db.dur == nil {
		return DurabilityStats{}
	}
	s := db.dur.log.Stats()
	return DurabilityStats{
		Enabled:         true,
		Dir:             db.dur.dir,
		Segments:        s.Segments,
		WALBytes:        s.Bytes,
		LastEpoch:       s.LastEpoch,
		Commits:         s.Commits,
		Syncs:           s.Syncs,
		Appends:         s.Appends,
		BaseEpoch:       db.dur.baseEpoch.Load(),
		Compactions:     s.Compactions,
		SegmentsRetired: s.Retired,
		SyncPolicy:      db.dur.log.SyncPolicy().String(),
	}
}

// StoreStats accounts for the MVCC snapshots a DB retains: every
// commit publishes a successor, and superseded snapshots stay alive
// exactly as long as a reader (stream, statement, plan) still pins
// them. The DB tracks published snapshots through weak pointers, so
// the accounting itself never retains anything.
type StoreStats struct {
	// LiveSnapshots is the number of published snapshots not yet
	// collected — the currently served one plus any still pinned.
	LiveSnapshots int `json:"live_snapshots"`
	// RetainedBytes approximates the memory those snapshots hold in
	// their six sorted orderings (the shared dictionary is not counted).
	RetainedBytes int64 `json:"retained_bytes"`
}

// StoreStats reports how many published snapshots remain live and the
// memory they retain. Superseded snapshots become collectable as soon
// as their last reader drops them; a LiveSnapshots that keeps growing
// means something is pinning old epochs.
func (db *DB) StoreStats() StoreStats {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	var out StoreStats
	kept := db.snaps[:0]
	for _, wp := range db.snaps {
		snap := wp.Value()
		if snap == nil {
			continue
		}
		kept = append(kept, wp)
		out.LiveSnapshots++
		out.RetainedBytes += snap.Store().ApproxBytes()
	}
	db.snaps = kept
	return out
}

// trackSnapshot registers a published snapshot for StoreStats, weakly.
func (db *DB) trackSnapshot(snap *store.Snapshot) {
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	db.snaps = append(db.snaps, weak.Make(snap))
}
