package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// def is one metric as BENCHMARK.json declares it.
type def struct {
	Name, Unit string
	Bound      float64
}

// declared reads what BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer []def) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	for _, w := range mf.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, mf.EndToEnd, mf.PerLayer
}

// TestManifestMatchesDriver keeps BENCHMARK.json and the driver's
// metric lists identical: names, units, order and the end-to-end
// bounds. (The per-layer bounds exist only in the driver; the manifest
// has no place for them.)
func TestManifestMatchesDriver(t *testing.T) {
	_, e2e, layer := declared(t)
	for _, c := range []struct {
		what string
		defs []metricDef
		want []def
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layer}} {
		if len(c.defs) != len(c.want) {
			t.Fatalf("%s: the driver declares %d metrics, BENCHMARK.json %d", c.what, len(c.defs), len(c.want))
		}
		for i, d := range c.defs {
			w := c.want[i]
			if w.Name != d.name || w.Unit != d.unit || (c.what == "end_to_end" && w.Bound != d.bound) {
				t.Errorf("%s[%d]: the driver declares %+v, BENCHMARK.json %+v", c.what, i, d, w)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy scale,
// plain and traced, and checks the result line: exactly the declared
// metrics, each once, finite, well named, with the declared unit.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	workloads, e2e, layer := declared(t)
	if len(workloads) != 4 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 4", len(workloads))
	}
	for _, w := range workloads {
		for trace, want := range map[string][]def{"0": e2e, "1": layer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w, "-seed", "7", "-seconds", "0.1", "-trace", trace,
					"-scale", "1000", "-tmp", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				// A JSON object cannot carry a key twice through a map, so
				// duplicates are looked for in the raw line.
				last := lines[len(lines)-1]
				var res struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(last))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("result line: %v\n%s", err, last)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
					t.Errorf("result line reports a failed or empty run: %s", last)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					name, unit := d.Name, d.Unit
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s: declared, not emitted", name)
					case strings.Count(last, `"`+name+`":`) != 1:
						t.Errorf("%s: emitted %d times", name, strings.Count(last, `"`+name+`":`))
					case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
						t.Errorf("%s: value is not a finite number", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
					case !metricName.MatchString(name):
						t.Errorf("%s: not a well-formed metric name", name)
					}
				}
			})
		}
	}
}

// TestMetricSetRejects checks the emit-exactly-once bookkeeping itself.
func TestMetricSetRejects(t *testing.T) {
	defs := []metricDef{{"a", "ms", 0}, {"b", "count", 0}}
	for name, fill := range map[string]func(*metricSet){
		"missing":    func(m *metricSet) { m.set("a", 1) },
		"twice":      func(m *metricSet) { m.set("a", 1); m.set("a", 2); m.set("b", 3) },
		"undeclared": func(m *metricSet) { m.set("a", 1); m.set("b", 2); m.set("c", 3) },
		"not finite": func(m *metricSet) { m.set("a", math.NaN()); m.set("b", 2) },
	} {
		m := newMetricSet(defs)
		fill(m)
		if m.check() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	m := newMetricSet(defs)
	m.set("a", 1)
	m.set("b", 0)
	if err := m.check(); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
}

// TestPercentileRule: a percentile is reported as reliable only with
// at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 100, 100}, {95, 190, 10}, {99, 198, 2}} {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%g of 1..200 = %g with %d beyond, want %g with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 50, false}, {20, 50, true}, {199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}, {0, 50, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// TestSpanSelfTime: self time is the span minus what its direct
// children cover, capped at the span's own duration.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "child", StartNS: 100, EndNS: 160},
		{ID: 3, Parent: 2, Name: "grandchild", StartNS: 160, EndNS: 170},
		{ID: 4, Parent: 1, Name: "child", StartNS: 170, EndNS: 190},
		{ID: 5, Parent: 0, Name: "root", StartNS: 200, EndNS: 210},
		{ID: 6, Parent: 5, Name: "child", StartNS: 210, EndNS: 240}, // a replay slower than the original
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 50, 3: 10, 4: 20, 5: 0, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if sum.roots != 110 || sum.childCover != 90 {
		t.Errorf("roots %d covered %d, want 110 and 90", sum.roots, sum.childCover)
	}
	if sum.selfByName["child"] != 100 || sum.nByName["child"] != 3 || sum.mean("child") != 110/3 {
		t.Errorf("child: self %d over %d spans, mean %d", sum.selfByName["child"], sum.nByName["child"], sum.mean("child"))
	}
	var nobody *tracer // the untraced pass
	nobody.end(nobody.start(0, 1, "x"), 0)
}

// TestCorpus: deterministic from the seed, pairwise distinct under the
// plan cache's key, and different for another seed.
func TestCorpus(t *testing.T) {
	a, err := buildCorpus(4000, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildCorpus(4000, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildCorpus(4000, 4, 400)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	same := 0
	for i, tpl := range a.templates {
		if tpl.text != b.templates[i].text {
			t.Fatalf("template %d differs between two builds from one seed", i)
		}
		if tpl.text == other.templates[i].text {
			same++
		}
		key, err := cacheKey(tpl.text)
		if err != nil {
			t.Fatal(err)
		}
		if keys[key] {
			t.Fatalf("template %d repeats a plan-cache key:\n%s", i, tpl.text)
		}
		keys[key] = true
	}
	if same > len(a.templates)/10 {
		t.Errorf("%d of %d templates identical under another seed", same, len(a.templates))
	}
}
