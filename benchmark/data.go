package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/yago"
)

// env is what every workload is built from: the dataset scale, the
// seed that drives generators, corpus, bind rotation and schedules, a
// scratch directory inside the checkout, and the human-readable report.
type env struct {
	scale int
	seed  int64
	tmp   string
	out   io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

// request is one read operation with its reference answer, computed in
// set-up through a different path than the one measured.
type request struct {
	name  string
	yago  bool // asks the YAGO dataset, not SP²Bench
	text  string
	binds []hsp.Binding
	rows  int    // reference row count
	hash  uint64 // reference order-insensitive row hash
}

// paperQuery is one statement of the paper's Tables 7–8.
type paperQuery struct {
	name, text string
	yago       bool
}

// paperQueries is the warm-run workload of Tables 7–8: the SP²Bench
// joins and the large selection, then the four YAGO queries.
func paperQueries() []paperQuery {
	return []paperQuery{
		{"SP2a", sp2bench.SP2a, false},
		{"SP2b", sp2bench.SP2b, false},
		{"SP3a", sp2bench.SP3a, false},
		{"SP3b", sp2bench.SP3b, false},
		{"SP4a", sp2bench.SP4a, false},
		{"SP4b", sp2bench.SP4b, false},
		{"SP6", sp2bench.SP6, false},
		{"Y1", yago.Y1, true},
		{"Y2", yago.Y2, true},
		{"Y3", yago.Y3, true},
		{"Y4", yago.Y4, true},
	}
}

// pointQuery is the parameterized journal lookup (SP1's shape): one
// row per bound title.
const pointQuery = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?jrnl ?yr
WHERE { ?jrnl rdf:type bench:Journal .
        ?jrnl dc:title $title .
        ?jrnl dcterms:issued ?yr . }`

// journalTitle is the title the SP²Bench generator gives its j-th
// journal; each identifies exactly one journal.
func journalTitle(j int) string {
	return fmt.Sprintf("Journal %d (%d)", j/25+1, year(j))
}

// journals is how many journals the generator emits at a scale.
func journals(scale int) int { return max(1, scale/24) }

// spread returns n indexes (fewer when the pool is smaller) spaced
// evenly over [0, pool) from a seeded offset. Every seed covers the
// pool alike, so a cost that depends on where an entity sorts — a point
// lookup's merge join walks the journals up to its match — does not
// move with the seed.
func spread(rng *rand.Rand, pool, n int) []int {
	n = min(n, pool)
	off := rng.Intn(pool)
	out := make([]int, n)
	for i := range out {
		out[i] = (off + i*pool/n) % pool
	}
	return out
}

// cellHash hashes one binding by variable name and the term's
// N-Triples rendering — the form both result serialisations and the
// facade can be reduced to.
func cellHash(v, rendered string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v))
	h.Write([]byte{0})
	h.Write([]byte(rendered))
	return h.Sum64()
}

// mixRow finalises a row's summed cell hashes so that a multiset of
// rows can again be summed without rows cancelling cell-wise.
func mixRow(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// rowHash is order-insensitive over the row's variables.
func rowHash(row map[string]hsp.Term) uint64 {
	var h uint64
	for v, t := range row {
		h += cellHash(v, t.String())
	}
	return mixRow(h)
}

// reference answers a query through a path the measured runs do not
// take — one of the cost-based comparison planners, materialised — and
// returns the row count and multiset hash. CDP refuses queries it sees
// a cross product in (SP4a, patterns without variables); those fall
// back to HSP with the rewrite pass off.
func reference(ctx context.Context, db *hsp.DB, planner hsp.Planner, text string, binds []hsp.Binding) (int, uint64, error) {
	st, err := db.Prepare(ctx, text, hsp.WithPlanner(planner))
	if err != nil {
		st, err = db.Prepare(ctx, text, hsp.WithRewrites())
		if err != nil {
			return 0, 0, fmt.Errorf("reference: %w", err)
		}
	}
	defer st.Close()
	res, err := st.Query(ctx, binds...)
	if err != nil {
		return 0, 0, fmt.Errorf("reference: %w", err)
	}
	var h uint64
	for i := 0; i < res.Len(); i++ {
		h += rowHash(res.Row(i))
	}
	return res.Len(), h, nil
}

// drain pulls every row of a stream through Rows.Row — what a client
// of the facade does — and returns the row count.
func drain(rows *hsp.Rows) (int, error) {
	n := 0
	for rows.Next() {
		_ = rows.Row()
		n++
	}
	return n, rows.Close()
}

// drainHashed is drain with the full multiset hash, for warm-up checks.
func drainHashed(rows *hsp.Rows) (int, uint64, error) {
	n := 0
	var h uint64
	for rows.Next() {
		h += rowHash(rows.Row())
		n++
	}
	return n, h, rows.Close()
}

// checkFull runs one request's stream with the full hash check.
func checkFull(ctx context.Context, r request, st *hsp.Stmt) error {
	rows, err := st.Stream(ctx, r.binds...)
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	n, h, err := drainHashed(rows)
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	if n != r.rows || h != r.hash {
		return fmt.Errorf("%s: warm-up mismatch: %d rows hash %x, reference %d rows hash %x", r.name, n, h, r.rows, r.hash)
	}
	return nil
}

// window is what one measured run observed.
type window struct {
	elapsed           time.Duration
	lat               []float64 // client-observed latency per read, ms
	rows              int64     // result rows delivered
	attempted, failed int64     // reads and commits together
	mallocs, bytes    uint64
	cpu               time.Duration
	peakRSS           float64    // MiB, the process's high-water mark when the window ended
	live              *liveStats // write-side observations, live-rw only
}

// record books one finished read: its latency since t0, its rows, and a
// failure when it erred or returned another row count than the
// reference.
func (w *window) record(t0 time.Time, rows, want int, err error) {
	w.lat = append(w.lat, ms(time.Since(t0)))
	w.attempted++
	w.rows += int64(rows)
	if err != nil || rows != want {
		w.failed++
	}
}

// clientSide sets the client-observed numbers of the window that the
// sandbox does not repeat well enough to gate.
func (w *window) clientSide(e *env, m *metricSet) {
	ops := float64(len(w.lat))
	m.set("e2e.alloc_bytes_per_op", float64(w.bytes)/ops)
	m.set("e2e.peak_rss_mb", w.peakRSS)
	m.set("e2e.qps", ops/w.elapsed.Seconds())
	m.set("e2e.rows_per_s", float64(w.rows)/w.elapsed.Seconds())
	m.set("e2e.lat_p50_ms", pct(e, "latency", w.lat, 50))
	m.set("e2e.lat_p95_ms", pct(e, "latency", w.lat, 95))
	m.set("e2e.cpu_s_per_kop", w.cpu.Seconds()/ops*1000)
	if supported(len(w.lat), 99) {
		p99, _ := percentile(w.lat, 99)
		e.logf("  %-40s %16.4f ms (printed, not a declared metric)\n", "lat_p99_ms", p99)
	}
}

// usage is a resource reading taken at a window's edges.
type usage struct {
	t              time.Time
	mallocs, bytes uint64
	cpu            time.Duration
}

func usageNow() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{t: time.Now(), mallocs: m.Mallocs, bytes: m.TotalAlloc, cpu: cpuTime()}
}

// since closes the window: it fills the resource deltas from a reading
// taken at the window's start, and the peak memory so far — read here,
// not at the end of the run, so that what a workload checks after its
// window (live-rw's compaction and two reopens add 80 to 140 MiB of
// collector luck) stays out of it.
func (w *window) since(u0 usage) error {
	u1 := usageNow()
	w.elapsed = u1.t.Sub(u0.t)
	w.mallocs = u1.mallocs - u0.mallocs
	w.bytes = u1.bytes - u0.bytes
	w.cpu = u1.cpu - u0.cpu
	var err error
	w.peakRSS, err = peakRSSMiB()
	return err
}
