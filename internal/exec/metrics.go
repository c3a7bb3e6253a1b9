package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sparql-hsp/hsp/internal/algebra"
)

// OpMetrics holds the runtime statistics of one operator during one
// run, the per-node annotations of EXPLAIN ANALYZE.
type OpMetrics struct {
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Wall is the cumulative wall time spent producing the operator's
	// batches, children included, clocked once per batch (parallel
	// build-side work is accounted to the join's BuildWall instead).
	Wall time.Duration
	// Build is the number of rows materialised on a join's build side
	// (hash table or cross-product buffer); zero for streaming operators.
	Build int64
	// BuildWall is the wall time of the build phase, for joins.
	BuildWall time.Duration
	// Parallel reports whether the operator's build ran on morsel
	// workers.
	Parallel bool
	// SpilledRuns counts sorted runs the operator wrote to temp files
	// (external sort only; zero for every other operator).
	SpilledRuns int64
	// SpilledBytes counts bytes the operator spilled to temp files.
	SpilledBytes int64
}

// Metrics maps plan nodes to their observed runtime statistics.
type Metrics map[algebra.Node]*OpMetrics

// Cardinalities converts observed row counts to the algebra package's
// annotation map (the paper's plan-figure numbers).
func (m Metrics) Cardinalities() algebra.Cardinalities {
	cards := algebra.Cardinalities{}
	for n, om := range m {
		cards[n] = int(atomic.LoadInt64(&om.Rows))
	}
	return cards
}

// annotation renders one operator's EXPLAIN ANALYZE suffix.
func (m *OpMetrics) annotation() string {
	s := fmt.Sprintf("(rows=%d time=%s", atomic.LoadInt64(&m.Rows), fmtDuration(m.Wall))
	if b := atomic.LoadInt64(&m.Build); b > 0 || m.BuildWall > 0 {
		s += fmt.Sprintf(" build=%d build_time=%s", b, fmtDuration(m.BuildWall))
		if m.Parallel {
			s += " parallel"
		}
	}
	return s + ")"
}

// fmtDuration trims a duration to three significant sub-unit digits so
// analyze output stays readable.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}

// OpStat is one operator's observed counters in exported form: the same
// numbers EXPLAIN ANALYZE prints, for programmatic consumers (metrics
// sinks) that should not parse strings.
type OpStat struct {
	// Op is the operator's label, as printed in the EXPLAIN ANALYZE tree
	// (e.g. "⋈mj ?jrnl", "σ(POS) [tp0] …", "sort ?yr desc").
	Op string
	// Rows is the number of rows the operator emitted.
	Rows int64
	// Wall is the cumulative wall time spent producing the operator's
	// batches.
	Wall time.Duration
	// Build and BuildWall report a join's build side (rows materialised,
	// build wall time); Parallel marks a morsel-parallel build.
	Build     int64
	BuildWall time.Duration
	Parallel  bool
	// SpilledRuns and SpilledBytes report the external sort's disk use.
	SpilledRuns  int64
	SpilledBytes int64
	// Workers, Skew and WorkerRows report an exchange entry's
	// scatter/gather execution: worker count, load-imbalance ratio
	// (busiest worker over mean, 1.0 = balanced) and per-worker output
	// row counts. Zero-valued for every other operator.
	Workers    int
	Skew       float64
	WorkerRows []int64
}

// OpStats returns the per-operator statistics of an analyze run, plan
// tree pre-order with the synthesized operators first: the sort (when
// present), then one "exchange" entry per scatter/gather the run
// executed. It returns nil for runs without Options.Analyze. Only valid
// after the run is exhausted or closed.
func (r *Run) OpStats() []OpStat {
	m := r.rt.metrics
	if m == nil {
		return nil
	}
	var out []OpStat
	if sm := r.rt.sortM; sm != nil {
		label := "sort"
		if op := r.c.sortRoot(); op != nil {
			label += " " + op.label
		}
		out = append(out, opStatOf(label, sm))
	}
	for _, ex := range r.rt.exchanges {
		out = append(out, OpStat{
			Op:         "exchange " + ex.Label,
			Rows:       ex.Rows(),
			Parallel:   true,
			Workers:    ex.Workers,
			Skew:       ex.Skew(),
			WorkerRows: append([]int64(nil), ex.WorkerRows...),
		})
	}
	var walk func(n algebra.Node)
	walk = func(n algebra.Node) {
		if om, ok := m[n]; ok {
			out = append(out, opStatOf(n.Label(), om))
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(r.c.plan.Root)
	return out
}

func opStatOf(label string, m *OpMetrics) OpStat {
	return OpStat{
		Op:           label,
		Rows:         atomic.LoadInt64(&m.Rows),
		Wall:         m.Wall,
		Build:        atomic.LoadInt64(&m.Build),
		BuildWall:    m.BuildWall,
		Parallel:     m.Parallel,
		SpilledRuns:  m.SpilledRuns,
		SpilledBytes: m.SpilledBytes,
	}
}
