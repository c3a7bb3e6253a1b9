// Command benchmark is the engine's one benchmark driver: it runs one
// named workload from a seed, checks the outputs against reference
// answers, and prints every metric by name with its unit. A plain run
// (-trace 0) reports the end-to-end metrics that repeat well enough to
// gate on; a traced run (-trace 1) measures the same window for the
// client-observed timings, replays the workload's requests whole and
// then stepwise through each module's public entry points, recording a
// span per call, and reports the per-layer metrics. BENCHMARK.json at
// the repository root declares the workloads, metrics and regression
// bounds; README.md in this directory explains them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	scale    int
	tmp      string
	spans    string
}

// setupRuns is how many times a plain run sets its workload up;
// setup_s is their median. The harness that gates on setup_s asks for
// several set-ups per run, and one set-up's time swings by a tenth.
const setupRuns = 5

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-exec, plan-cold, serve-read or live-rw")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the data generators, the corpus, bind rotation and the request schedule")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times (child processes) and print each metric's spread against its bound")
	fs.IntVar(&o.scale, "scale", 100000, "dataset scale passed to the SP²Bench and YAGO generators")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for durable datasets and span files")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1: where to write the span file (default <tmp>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || o.scale < 24 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive, -scale at least 24, -trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(o.tmp, 0o777); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ctx := context.Background()
	if o.repeat > 0 {
		if err := repeatRuns(ctx, o, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	res, err := runOnce(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workloadMaker returns the constructor of the named workload.
func workloadMaker(name string, scale int) (func() workload, error) {
	switch name {
	case "paper-exec":
		return func() workload { return &paperExec{} }, nil
	case "plan-cold":
		// The full corpus at the benchmark's scale; toy scales have too
		// few entities to spell that many distinct templates.
		return func() workload { return &planCold{size: min(corpusSize, max(48, scale/8))} }, nil
	case "serve-read":
		return func() workload { return &serveRead{} }, nil
	case "live-rw":
		return func() workload { return &liveRW{} }, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-exec, plan-cold, serve-read or live-rw)", name)
}

func runOnce(ctx context.Context, o options, report io.Writer) (*result, error) {
	e := &env{scale: o.scale, seed: o.seed, tmp: o.tmp, out: report}
	mk, err := workloadMaker(o.workload, o.scale)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return runTraced(ctx, e, o, mk, d)
	}
	return runPlain(ctx, e, o, mk, d)
}

// setUp builds a workload instance on a collected heap — so that what an
// earlier instance left behind is gone before this one grows, and the
// peak memory is a set-up's or a window's, not an accident of collector
// timing between them — and returns it with the set-up's duration.
func setUp(ctx context.Context, e *env, mk func() workload) (workload, time.Duration, error) {
	runtime.GC()
	w := mk()
	t0 := time.Now()
	if err := w.setup(ctx, e); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), w.close())
	}
	took := time.Since(t0)
	runtime.GC()
	return w, took, nil
}

// measure runs the workload's window on a fresh instance, as both kinds
// of run do, with nothing recorded.
func measure(ctx context.Context, w workload, d time.Duration) (*window, error) {
	win, err := w.window(ctx, d)
	if err := errors.Join(err, w.close()); err != nil {
		return nil, err
	}
	if len(win.lat) == 0 {
		return nil, errors.New("the window completed no operation")
	}
	return win, nil
}

// runPlain is the -trace 0 run: set-up, several times over, then the
// window on the last instance.
func runPlain(ctx context.Context, e *env, o options, mk func() workload, d time.Duration) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if w, took, err = setUp(ctx, e, mk); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	win, err := measure(ctx, w, d)
	if err != nil {
		return nil, err
	}
	e.logf("%s: seed %d, scale %d, %d query operations in %.2fs, %d attempted, %d failed\n",
		o.workload, o.seed, o.scale, len(win.lat), win.elapsed.Seconds(), win.attempted, win.failed)
	ops := float64(len(win.lat))
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("allocs_per_op", float64(win.mallocs)/ops)
	printMetrics(e, m)
	e.logf("what the traced run emits from the same window (the sandbox does not repeat these well enough to gate):\n")
	t := newMetricSet(perLayer)
	win.clientSide(e, t)
	if win.live != nil {
		writeSide(e, t, win.live)
	}
	printMetrics(e, t)
	if err := m.check(); err != nil {
		return nil, err
	}
	return &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: m.values}, nil
}

func printMetrics(e *env, m *metricSet) {
	for _, d := range m.defs {
		if v, ok := m.values[d.name]; ok {
			e.logf("  %-40s %16.4f %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// frontEndSpans are the span names that make up planning in the wide
// sense: everything between the query text and a runnable plan.
var frontEndSpans = []string{"sparql.parse", "sparql.parameterize", "rewrite.apply", "core.plan", "rewrite.pushfilters", "exec.compile"}

// runTraced is the -trace 1 run: the plain run's window for the
// client-observed timings, then the workload's requests replayed
// unrecorded and recorded on a second instance, then the layer probes.
func runTraced(ctx context.Context, e *env, o options, mk func() workload, d time.Duration) (*result, error) {
	w, _, err := setUp(ctx, e, mk)
	if err != nil {
		return nil, err
	}
	win, err := measure(ctx, w, d)
	if err != nil {
		return nil, err
	}
	m := newMetricSet(perLayer)
	win.clientSide(e, m)

	if w, _, err = setUp(ctx, e, mk); err != nil {
		return nil, err
	}
	tr, reqs, err := replay(ctx, e, o, w, m)
	if err := errors.Join(err, w.close()); err != nil {
		return nil, err
	}

	attempted, failed, err := (&layers{e: e, m: m}).run(ctx, reqs, win.live, tr.spans, d)
	if err != nil {
		return nil, err
	}
	printMetrics(e, m)
	if err := m.check(); err != nil {
		return nil, err
	}
	res := &result{Attempted: win.attempted + attempted, Failed: win.failed + failed, Metrics: m.values}
	for _, s := range tr.spans {
		if s.Parent == 0 {
			res.Attempted++
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// replay runs the workload's fixed request list three times — once to
// build the replay state, once unrecorded, once recorded — writes the
// span file and sets the metrics that come from the workload's own
// replay.
func replay(ctx context.Context, e *env, o options, w workload, m *metricSet) (*tracer, []request, error) {
	if err := w.trace(ctx, nil); err != nil {
		return nil, nil, err
	}
	c0, epoch0 := w.cacheStats()
	t0 := time.Now()
	if err := w.trace(ctx, nil); err != nil {
		return nil, nil, err
	}
	untraced := time.Since(t0)
	tr := newTracer()
	t0 = time.Now()
	if err := w.trace(ctx, tr); err != nil {
		return nil, nil, err
	}
	traced := time.Since(t0)
	c1, epoch1 := w.cacheStats()
	sum := summarize(tr.spans)
	var planning int64
	for _, name := range frontEndSpans {
		planning += sum.durByName[name]
	}
	m.set("trace.overhead_share", float64(traced-untraced)/float64(untraced))
	m.set("trace.child_coverage", ratio(float64(sum.childCover), float64(sum.roots)))
	m.set("trace.plan_share", ratio(float64(planning), float64(sum.roots)))
	lookups := float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses)
	m.set("exec.plancache.hit_ratio", ratio(float64(c1.Hits-c0.Hits), lookups))
	m.set("exec.plancache.invalidations_per_commit", ratio(float64(c1.Invalidations-c0.Invalidations), float64(epoch1-epoch0)))
	spans := o.spans
	if spans == "" {
		spans = filepath.Join(o.tmp, "spans-"+o.workload+".json")
	}
	if err := tr.write(spans); err != nil {
		return nil, nil, err
	}
	e.logf("%s traced: seed %d, scale %d, %d spans in %s; replay %.3fs untraced, %.3fs traced\n",
		o.workload, o.seed, o.scale, len(tr.spans), spans, untraced.Seconds(), traced.Seconds())
	return tr, w.requests(), nil
}

// repeatRuns runs the workload o.repeat times, each in a child process
// so that peak memory and heap state start fresh, and prints for every
// metric the median, the quartiles, and the spread (max−min)/median
// against its bound.
func repeatRuns(ctx context.Context, o options, report io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < o.repeat; i++ {
		cmd := exec.CommandContext(ctx, self,
			"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
			"-scale", strconv.Itoa(o.scale), "-tmp", o.tmp)
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil { // Run waits for the child
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: result line: %w", i+1, err)
		}
		fmt.Fprintf(report, "run %d: %d attempted, %d failed\n", i+1, res.Attempted, res.Failed)
		if !res.Correct {
			return fmt.Errorf("run %d: outputs were not correct", i+1)
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(report, "%-40s %14s %14s %14s %9s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	over := 0
	for _, d := range defs {
		xs := values[d.name]
		sort.Float64s(xs)
		q1, _ := percentile(xs, 25)
		q3, _ := percentile(xs, 75)
		med := median(xs)
		spread := ratio(xs[len(xs)-1]-xs[0], med)
		flag, bound := "", "-"
		if d.bound > 0 {
			bound = strconv.FormatFloat(d.bound, 'g', -1, 64)
			// setup_s is gated on its median only, never on its spread.
			if d.name != "setup_s" && spread > d.bound {
				flag = "  OVER"
				over++
			}
		}
		fmt.Fprintf(report, "%-40s %14.4f %14.4f %14.4f %8.2f%% %7s  %s%s\n", d.name, med, q1, q3, 100*spread, bound, d.unit, flag)
	}
	if over > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound: unresolved at this run length", over)
	}
	return nil
}
