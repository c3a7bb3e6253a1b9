package hsp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp/internal/store"
)

// nthTriple is the distinct triple commit n inserts in these tests:
// one new triple per commit, so a consistent dataset always satisfies
// NumTriples == Epoch.
func nthTriple(n int) Triple {
	return Triple{
		S: IRI(fmt.Sprintf("http://e/s%d", n)),
		P: IRI("http://e/p"),
		O: Literal(fmt.Sprintf("v%d", n)),
	}
}

// commitNth commits the nth triple and returns the commit error.
func commitNth(ctx context.Context, db *DB, n int) error {
	txn, err := db.Update(ctx)
	if err != nil {
		return err
	}
	if err := txn.Insert(nthTriple(n)); err != nil {
		txn.Rollback() //nolint:errcheck
		return err
	}
	if _, err := txn.Commit(ctx); err != nil {
		txn.Rollback() //nolint:errcheck
		return err
	}
	return nil
}

func TestOpenCommitReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := t.Context()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 5 || re.NumTriples() != 5 {
		t.Fatalf("recovered epoch %d with %d triples, want 5/5", re.Epoch(), re.NumTriples())
	}
	for i := 1; i <= 5; i++ {
		ok, err := prepare(t, re, fmt.Sprintf(`ASK { <http://e/s%d> <http://e/p> ?o }`, i)).Ask(context.Background())
		if err != nil || !ok {
			t.Fatalf("triple %d missing after recovery (%v)", i, err)
		}
	}
	// Recovery continues the lineage: the next commit lands at epoch 6.
	if err := commitNth(ctx, re, 6); err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != 6 {
		t.Fatalf("epoch after post-recovery commit = %d, want 6", re.Epoch())
	}
}

func TestOpenRecoversDeletes(t *testing.T) {
	dir := t.TempDir()
	ctx := t.Context()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := txn.Insert(nthTriple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	txn, err = db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Delete(nthTriple(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 2 || re.NumTriples() != 2 {
		t.Fatalf("recovered epoch %d with %d triples, want 2/2", re.Epoch(), re.NumTriples())
	}
	if ok, _ := prepare(t, re, `ASK { <http://e/s2> <http://e/p> ?o }`).Ask(context.Background()); ok {
		t.Fatal("deleted triple resurfaced after recovery")
	}
}

// failAfter is a wal.Injector simulating a crash at a byte budget: the
// write that crosses the limit lands only partially and errors — as a
// power cut mid-write would leave it — and syncs past the limit fail.
type failAfter struct {
	mu      sync.Mutex
	limit   int64
	written int64
}

var errInjected = errors.New("injected crash")

func (fa *failAfter) Write(f *os.File, p []byte) (int, error) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	remain := fa.limit - fa.written
	if remain >= int64(len(p)) {
		n, err := f.Write(p)
		fa.written += int64(n)
		return n, err
	}
	n := 0
	if remain > 0 {
		n, _ = f.Write(p[:remain])
		fa.written += int64(n)
	}
	return n, errInjected
}

func (fa *failAfter) Sync(f *os.File) error {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.written >= fa.limit {
		return errInjected
	}
	return f.Sync()
}

// TestCrashInjectionRecovery is the tentpole guarantee, table-driven
// over EVERY byte budget: however the committing write is torn, the
// reopened dataset is exactly consistent (NumTriples == Epoch) and its
// epoch is the last acknowledged one — or one more, when the crash hit
// between the write landing and the ack (a commit may be durable
// without having been acknowledged, never the reverse under
// SyncAlways).
func TestCrashInjectionRecovery(t *testing.T) {
	ctx := t.Context()
	// Probe run, no injection: the WAL byte positions after each commit.
	probe := t.TempDir()
	db, err := Open(probe)
	if err != nil {
		t.Fatal(err)
	}
	const commits = 4
	var sizes []int64
	for i := 1; i <= commits; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, db.DurabilityStats().WALBytes)
	}
	db.Close() //nolint:errcheck
	total := sizes[commits-1]

	for limit := int64(0); limit <= total; limit++ {
		dir := t.TempDir()
		inj := &failAfter{limit: limit}
		db, err := Open(dir, withWALInjector(inj))
		if err != nil {
			t.Fatalf("limit %d: Open: %v", limit, err)
		}
		acked := 0
		for i := 1; i <= commits; i++ {
			if err := commitNth(ctx, db, i); err != nil {
				break
			}
			acked = i
		}
		db.Close() //nolint:errcheck

		re, err := Open(dir)
		if err != nil {
			t.Fatalf("limit %d: recovery Open: %v", limit, err)
		}
		epoch := int(re.Epoch())
		if epoch != acked && epoch != acked+1 {
			t.Fatalf("limit %d: recovered epoch %d, acked %d", limit, epoch, acked)
		}
		if re.NumTriples() != epoch {
			t.Fatalf("limit %d: %d triples at epoch %d — partial commit visible", limit, re.NumTriples(), epoch)
		}
		re.Close() //nolint:errcheck
	}
}

// TestWALFailureLeavesTxnOpen: a commit whose WAL append fails must
// not publish, and the transaction stays open for rollback.
func TestWALFailureLeavesTxnOpen(t *testing.T) {
	ctx := t.Context()
	db, err := Open(t.TempDir(), withWALInjector(&failAfter{limit: 0}))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	txn, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Insert(nthTriple(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Commit(ctx); err == nil {
		t.Fatal("commit succeeded through a failing WAL")
	}
	if db.Epoch() != 0 || db.NumTriples() != 0 {
		t.Fatalf("failed commit published: epoch %d, %d triples", db.Epoch(), db.NumTriples())
	}
	if err := txn.Rollback(); err != nil {
		t.Fatalf("transaction not open after WAL failure: %v", err)
	}
	// The writer slot is free again.
	txn2, err := db.Update(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestPowerCutChild is the writer half of TestPowerCut: it runs only
// in the child process (guarded by HSP_POWERCUT_DIR) and commits
// distinct triples forever until the parent kills it mid-commit.
func TestPowerCutChild(t *testing.T) {
	dir := os.Getenv("HSP_POWERCUT_DIR")
	if dir == "" {
		t.Skip("helper for TestPowerCut, runs in a child process")
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; ; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPowerCut kills a child writer process mid-commit with SIGKILL —
// a real power cut as far as the WAL is concerned — and recovers its
// directory: the dataset must be exactly consistent with whatever
// epoch survived.
func TestPowerCut(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestPowerCutChild$")
	cmd.Env = append(os.Environ(), "HSP_POWERCUT_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Let a batch of commits land, then cut the power.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var walBytes int64
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if info, err := os.Stat(p); err == nil {
				walBytes += info.Size()
			}
		}
		if walBytes > 2000 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
			t.Fatal("child never wrote commits")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	db, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery after power cut: %v", err)
	}
	defer db.Close()
	epoch := int(db.Epoch())
	if epoch < 1 {
		t.Fatal("no commits survived the power cut")
	}
	if db.NumTriples() != epoch {
		t.Fatalf("%d triples at epoch %d — partial commit visible after power cut", db.NumTriples(), epoch)
	}
	for i := 1; i <= epoch; i++ {
		ok, err := prepare(t, db, fmt.Sprintf(`ASK { <http://e/s%d> <http://e/p> ?o }`, i)).Ask(context.Background())
		if err != nil || !ok {
			t.Fatalf("triple %d missing after power cut recovery (%v)", i, err)
		}
	}
}

func TestCompactionFoldsAndRetires(t *testing.T) {
	dir := t.TempDir()
	ctx := t.Context()
	db, err := Open(dir, WithSegmentBytes(256), WithCompactionThreshold(512))
	if err != nil {
		t.Fatal(err)
	}
	const commits = 30
	for i := 1; i <= commits; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.DurabilityStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compactor never folded")
		}
		time.Sleep(time.Millisecond)
	}
	st := db.DurabilityStats()
	if st.BaseEpoch == 0 {
		t.Fatal("fold did not advance the base epoch")
	}
	if st.SegmentsRetired == 0 {
		t.Fatal("fold retired no segments")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Only after Close (which waits out any in-flight fold) is the base
	// count stable: each fold removes the base it supersedes.
	bases, err := filepath.Glob(filepath.Join(dir, "base-*.hsp"))
	if err != nil || len(bases) != 1 {
		t.Fatalf("want exactly 1 base snapshot, got %v (%v)", bases, err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != commits || re.NumTriples() != commits {
		t.Fatalf("recovered epoch %d with %d triples after compaction, want %d/%d", re.Epoch(), re.NumTriples(), commits, commits)
	}
}

func TestManualCompact(t *testing.T) {
	dir := t.TempDir()
	ctx := t.Context()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	st := db.DurabilityStats()
	if st.BaseEpoch != 5 || st.Compactions != 1 {
		t.Fatalf("after Compact: base epoch %d, %d compactions", st.BaseEpoch, st.Compactions)
	}
	if _, err := os.Stat(filepath.Join(dir, "base-0000000000000005.hsp")); err != nil {
		t.Fatalf("base snapshot missing: %v", err)
	}
	// A second fold supersedes the first base and removes it.
	for i := 6; i <= 7; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "base-0000000000000005.hsp")); !os.IsNotExist(err) {
		t.Fatalf("superseded base not removed: %v", err)
	}
	// Compacting with nothing new is a no-op, not an error.
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 7 || re.NumTriples() != 7 {
		t.Fatalf("recovered %d/%d, want 7/7", re.Epoch(), re.NumTriples())
	}
}

func TestCorruptBaseFailsOpen(t *testing.T) {
	dir := t.TempDir()
	ctx := t.Context()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := commitNth(ctx, db, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base-0000000000000001.hsp")
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(base, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("Open succeeded over a corrupt base with no fallback")
	}
	if !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Fatalf("error not tagged ErrCorruptSnapshot: %v", err)
	}
}

func TestCompactDisabledWithoutDurability(t *testing.T) {
	db := NewDataset().Build()
	if err := db.Compact(t.Context()); err == nil {
		t.Fatal("Compact on an in-memory DB should error")
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close on an in-memory DB should be a no-op: %v", err)
	}
	if st := db.DurabilityStats(); st.Enabled {
		t.Fatal("in-memory DB reports durability enabled")
	}
}

// TestStoreStatsRetirement closes the PR 5 leftover: superseded
// snapshots are weakly tracked, so StoreStats reports them only while
// something still pins them.
func TestStoreStatsRetirement(t *testing.T) {
	db := NewDataset().Build()
	ctx := t.Context()
	for i := 1; i <= 8; i++ {
		if err := commitNth(ctx, db, i); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.StoreStats(); st.LiveSnapshots < 1 || st.RetainedBytes <= 0 {
		t.Fatalf("implausible stats right after commits: %+v", st)
	}
	// With no readers pinning old epochs, the superseded snapshots
	// become collectable; only the served one must survive.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		st := db.StoreStats()
		if st.LiveSnapshots <= 2 {
			if st.LiveSnapshots < 1 {
				t.Fatalf("served snapshot was collected: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("superseded snapshots never collected: %+v", db.StoreStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
