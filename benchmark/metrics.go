package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric, its unit and the share of the median by
// which it may worsen or spread before it counts as moved (0: reported
// without a bound). BENCHMARK.json repeats names, units and the
// end-to-end bounds; bench_test.go keeps the two identical.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the metrics every workload's untraced run emits and the
// harness gates: the set-up time it demands and the one cost that
// repeats on every workload in the reference sandbox. The timings and
// the memory volumes do not (see README, Repeatability) and are the
// e2e.* entries of perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"allocs_per_op", "count", 0.02},
}

// perLayer are the metrics of the traced run. The prefix is the module
// (layer) name; e2e.* are the client-observed numbers of the workload's
// own unrecorded window, with the bounds -repeat judges them by.
var perLayer = []metricDef{
	{"e2e.alloc_bytes_per_op", "B", 0.02},
	{"e2e.peak_rss_mb", "MiB", 0.10},
	{"e2e.qps", "1/s", 0.08},
	{"e2e.rows_per_s", "1/s", 0.08},
	{"e2e.lat_p50_ms", "ms", 0.08},
	{"e2e.lat_p95_ms", "ms", 0.10},
	{"e2e.cpu_s_per_kop", "s", 0.08},
	{"e2e.commit_p50_ms", "ms", 0.10},
	{"e2e.commit_p95_ms", "ms", 0.10},
	{"e2e.write_amp", "ratio", 0.05},
	{"e2e.recover_s", "s", 0.10},
	{"sparql.parse_us", "us", 0},
	{"sparql.parameterize_us", "us", 0},
	{"rewrite.apply_us", "us", 0},
	{"rewrite.rules_fired_per_query", "count", 0},
	{"core.plan_us", "us", 0},
	{"core.hybrid_plan_us", "us", 0},
	{"cdp.plan_us", "us", 0},
	{"sqlopt.plan_us", "us", 0},
	{"core.join_rows_per_result", "ratio", 0},
	{"cdp.join_rows_per_result", "ratio", 0},
	{"sqlopt.join_rows_per_result", "ratio", 0},
	{"core.merge_join_share", "ratio", 0},
	{"exec.compile_us", "us", 0},
	{"exec.plancache.hit_ratio", "ratio", 0},
	{"exec.plancache.hit_us", "us", 0},
	{"exec.plancache.invalidations_per_commit", "ratio", 0},
	{"exec.run_ms", "ms", 0},
	{"exec.allocs_per_row", "count", 0},
	{"exec.scan.rows", "count", 0},
	{"exec.scan.ms", "ms", 0},
	{"exec.mergejoin.rows", "count", 0},
	{"exec.mergejoin.ms", "ms", 0},
	{"exec.hashjoin.build_rows", "count", 0},
	{"exec.hashjoin.build_ms", "ms", 0},
	{"exec.hashjoin.probe_rows", "count", 0},
	{"exec.hashjoin.ms", "ms", 0},
	{"exec.filter.rows", "count", 0},
	{"exec.filter.ms", "ms", 0},
	{"exec.project.ms", "ms", 0},
	{"exec.exchange.speedup_p2", "ratio", 0},
	{"store.scan_ns_per_triple", "ns", 0},
	{"store.apply_ms", "ms", 0},
	{"store.retained_mb_max", "MiB", 0},
	{"store.live_snapshots_max", "count", 0},
	{"wal.encode_us", "us", 0},
	{"wal.bytes_per_triple", "B", 0},
	{"wal.append_us", "us", 0},
	{"wal.sync_us", "us", 0},
	{"wal.syncs_per_commit", "ratio", 0},
	{"wal.compactions", "count", 0},
	{"wal.segments_retired", "count", 0},
	{"wal.compact_ms", "ms", 0},
	{"wal.commit_stall_max_ms", "ms", 0},
	{"wal.replay_ms_per_commit", "ms", 0},
	{"hsp.prepare_us", "us", 0},
	{"hsp.prepare_self_us", "us", 0},
	{"hsp.bind_us", "us", 0},
	{"hsp.decode_ns_per_term", "ns", 0},
	{"hsp.commit_ms", "ms", 0},
	{"hsp.commit_self_ms", "ms", 0},
	{"hspserve.point_self_us", "us", 0},
	{"hspserve.json_ns_per_row", "ns", 0},
	{"hspserve.tsv_ns_per_row", "ns", 0},
	{"hspserve.json_bytes_per_row", "B", 0},
	{"hspserve.tsv_bytes_per_row", "B", 0},
	{"hspserve.net_us", "us", 0},
	{"hspserve.registry.hit_ratio", "ratio", 0},
	{"hspserve.admission.queued", "count", 0},
	{"hspserve.admission.rejected", "count", 0},
	{"hspserve.point.p50_ms", "ms", 0},
	{"hspserve.scan_tsv.p50_ms", "ms", 0},
	{"hspserve.scan_json.p50_ms", "ms", 0},
	{"rdf3x.run_ms", "ms", 0},
	{"rdf3x.rebuild_ms", "ms", 0},
	{"loadgen.writer_late_p95_ms", "ms", 0},
	{"trace.child_coverage", "ratio", 0},
	{"trace.plan_share", "ratio", 0},
	{"trace.overhead_share", "ratio", 0},
}

// metric is one reported value in the result line's format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against a declared list: every
// declared name must be set exactly once, with a finite value.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
	errs   []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metric{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name != name {
			continue
		}
		if _, dup := m.values[name]; dup {
			m.errs = append(m.errs, "metric set twice: "+name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.errs = append(m.errs, fmt.Sprintf("metric %s is not finite: %v", name, v))
		}
		m.values[name] = metric{Value: v, Unit: d.unit}
		return
	}
	m.errs = append(m.errs, "undeclared metric: "+name)
}

// check reports every declaration the run violated.
func (m *metricSet) check() error {
	errs := m.errs
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			errs = append(errs, "metric never set: "+d.name)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("metrics: %s", strings.Join(errs, "; "))
	}
	return nil
}

// rank is the nearest-rank position (1-based) of the p-th percentile
// (0 < p < 100) in a sample of n; n − rank samples lie beyond it.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n))))
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	r := rank(len(sorted), p)
	return sorted[r-1], len(sorted) - r
}

// supported is the percentile rule: a percentile is reported as
// reliable only with at least ten samples beyond it.
func supported(n int, p float64) bool { return n-rank(n, p) >= 10 }

// pct sorts xs in place and returns its p-th percentile, noting on the
// report when the sample is too small for the percentile rule.
func pct(e *env, what string, xs []float64, p float64) float64 {
	sort.Float64s(xs)
	v, beyond := percentile(xs, p)
	if beyond < 10 {
		e.logf("  note: %s p%g rests on %d samples (%d beyond it; the rule wants 10)\n", what, p, len(xs), beyond)
	}
	return v
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty base, so counters of layers a
// workload never enters read as zero instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one "Key: value" line of a /proc/self file.
func procField(file, key string) (float64, error) {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/%s has no %s line", file, key)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	kb, err := procField("status", "VmHWM")
	return kb / 1024, err
}

// writtenBytes is the bytes the process has passed to write syscalls.
func writtenBytes() (float64, error) { return procField("io", "wchar") }
