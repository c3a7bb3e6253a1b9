package hsp

// Golden EXPLAIN coverage for the rewrite pass: the "rewrite:" note
// lines plus the (deterministic) planned operator trees of queries each
// rewrite rule fires on, compared against files under testdata/.
// Regenerate with:
//
//	go test -run TestRewriteExplainGoldens -update .

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden EXPLAIN files")

func TestRewriteExplainGoldens(t *testing.T) {
	db := GenerateSP2Bench(2000, 1)
	for _, name := range []string{
		"filter-pushdown-below-join",
		"filter-dup-and-pin",
		"filter-range",
		"union-unsat-branch",
		"optional-inner-filter",
	} {
		t.Run(name, func(t *testing.T) {
			p, err := db.Plan(mustComposition(t, name), PlannerHSP)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, n := range p.RewriteNotes() {
				fmt.Fprintf(&b, "rewrite: %s\n", n)
			}
			b.WriteString(p.String())
			got := b.String()
			path := filepath.Join("testdata", "rewrite_"+name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (run go test -run TestRewriteExplainGoldens -update .): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN differs from golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// mustComposition returns the named rewriteCompositions query text.
func mustComposition(t *testing.T, name string) string {
	t.Helper()
	for _, c := range rewriteCompositions {
		if c.Name == name {
			return c.Text
		}
	}
	t.Fatalf("no composition named %q", name)
	return ""
}

// TestExplainAnalyzeRewriteLines checks the executed EXPLAIN ANALYZE
// path surfaces the applied rules: one "rewrite:" line per note ahead
// of the operator trees, and none when the pass is disabled.
func TestExplainAnalyzeRewriteLines(t *testing.T) {
	db := GenerateSP2Bench(2000, 1)
	text := mustComposition(t, "filter-pushdown-below-join")
	out, err := prepare(t, db, text).ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rewrite: ") {
		t.Fatalf("EXPLAIN ANALYZE missing rewrite: lines:\n%s", out)
	}
	if strings.Index(out, "rewrite: ") > strings.Index(out, "rows=") {
		t.Errorf("rewrite: lines must precede the operator trees:\n%s", out)
	}
	off, err := prepare(t, db, text, WithRewrites()).ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "rewrite: ") {
		t.Errorf("disabled pass still reports rewrite: lines:\n%s", off)
	}
}
