// Package rewrite implements the algebraic rewrite pass that runs
// between parsing and heuristic planning: constant folding of FILTER
// expressions, H1-guided join-input reordering of basic graph patterns,
// and FILTER pushdown toward the scans that bind the filter's
// variables. The query-level rules (Apply) transform the parsed query
// before any planner sees it; the plan-level rule (PushFilters) sinks
// residual filters through the join tree every planner produces. All
// rules are pure: inputs are never mutated, and each rule is
// individually toggleable through Config so the differential
// equivalence harness can prove every rule changes nothing but cost.
//
// Soundness follows Schmidt et al., "Foundations of SPARQL Query
// Optimization": filters push through inner joins into whichever input
// binds all their variables, into the required (left) side of an
// OPTIONAL's left join but never into the optional (right) side, and
// UNION branches fold independently. Constant folding replicates the
// executor's exact comparison semantics — term identity (kind and
// value) for = and !=, codepoint order on the value string for the
// ordering operators — and removes a tautology only when its variable
// is certainly bound (by a required pattern), since an unbound-variable
// comparison rejects the row. See docs/REWRITES.md for the rule
// catalogue.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sparql-hsp/hsp/internal/algebra"
	"github.com/sparql-hsp/hsp/internal/heuristics"
	"github.com/sparql-hsp/hsp/internal/rdf"
	"github.com/sparql-hsp/hsp/internal/sparql"
)

// Rule names, as reported in EXPLAIN ANALYZE rewrite: lines, accepted
// by hsp.WithRewrites, and encoded into plan-cache keys.
const (
	NameConstFold = "constfold"
	NamePushdown  = "pushdown"
	NameReorder   = "reorder"
)

// Config selects which rewrite rules run. The zero value disables the
// whole pass.
type Config struct {
	// ConstFold folds constant FILTER comparisons: duplicate filters,
	// tautologies and contradictions over a variable compared with
	// itself, and filters decided by an equality pin on the same
	// variable; unsatisfiable UNION branches are pruned.
	ConstFold bool
	// Pushdown sinks residual filters through the planned join tree
	// toward the scans binding their variables (never into the optional
	// side of a left join).
	Pushdown bool
	// Reorder stable-sorts each basic graph pattern by HEURISTIC 1 rank
	// before planning, so every planner receives its inputs most
	// selective first.
	Reorder bool
}

// All returns the default configuration with every rule enabled.
func All() Config { return Config{ConstFold: true, Pushdown: true, Reorder: true} }

// Any reports whether at least one rule is enabled.
func (c Config) Any() bool { return c.ConstFold || c.Pushdown || c.Reorder }

// Names returns the enabled rule names in canonical order — the stable
// encoding used in plan-cache keys.
func (c Config) Names() []string {
	var out []string
	if c.ConstFold {
		out = append(out, NameConstFold)
	}
	if c.Pushdown {
		out = append(out, NamePushdown)
	}
	if c.Reorder {
		out = append(out, NameReorder)
	}
	return out
}

// Key renders the enabled rule set as a comma-joined string for cache
// keying ("" when the pass is fully disabled). Every rule set's key is
// rendered once, up front, so keying a request allocates nothing.
func (c Config) Key() string { return configKeys[c.index()] }

// index numbers the rule sets: one bit per rule.
func (c Config) index() int {
	i := 0
	for bit, on := range [...]bool{c.ConstFold, c.Pushdown, c.Reorder} {
		if on {
			i |= 1 << bit
		}
	}
	return i
}

// configKeys holds Key for every rule set, by index.
var configKeys = func() (keys [8]string) {
	for i := range keys {
		c := Config{ConstFold: i&1 != 0, Pushdown: i&2 != 0, Reorder: i&4 != 0}
		keys[c.index()] = strings.Join(c.Names(), ",")
	}
	return keys
}()

// Apply runs the query-level rules (constant folding, then reordering)
// over every UNION branch and OPTIONAL group, returning the rewritten
// query and one note per rule application. The input query is never
// modified; when no enabled rule applies, the original query is
// returned unchanged with no notes.
func Apply(q *sparql.Query, cfg Config) (*sparql.Query, []string) {
	if !cfg.ConstFold && !cfg.Reorder {
		return q, nil
	}
	out := q.Clone()
	var notes []string
	if cfg.ConstFold {
		notes = append(notes, constFold(out)...)
	}
	if cfg.Reorder {
		notes = append(notes, reorder(out)...)
	}
	if len(notes) == 0 {
		return q, nil
	}
	return out, notes
}

// --- constant folding ---

// constFold folds the filters of every branch and prunes UNION
// branches proven unsatisfiable. The head branch carries the
// projection and solution modifiers, so it is never pruned — its
// always-false filter simply keeps rejecting every row at run time.
func constFold(q *sparql.Query) []string {
	var notes []string
	if foldBranch(q, 0, &notes) {
		notes = append(notes, "constfold: branch 0 is unsatisfiable (head branch kept)")
	}
	prev := q
	bi := 1
	for b := q.Union; b != nil; b = b.Union {
		if foldBranch(b, bi, &notes) {
			prev.Union = b.Union
			notes = append(notes, fmt.Sprintf("constfold: pruned unsatisfiable UNION branch %d", bi))
		} else {
			prev = b
		}
		bi++
	}
	return notes
}

// foldBranch folds one branch's filters in place and reports whether
// the branch can never produce a row.
func foldBranch(b *sparql.Query, bi int, notes *[]string) bool {
	required := map[sparql.Var]bool{}
	for _, tp := range b.Patterns {
		for _, v := range tp.Vars() {
			required[v] = true
		}
	}
	where := fmt.Sprintf("branch %d", bi)
	var unsat bool
	b.Filters, unsat = foldFilters(b.Filters, required, true, where, notes)
	for gi := range b.Optionals {
		g := &b.Optionals[gi]
		groupBound := map[sparql.Var]bool{}
		for _, v := range g.Vars() {
			groupBound[v] = true
		}
		// A contradiction inside an OPTIONAL means the group matches
		// nothing — the left join then pads every row, which is not
		// emptiness — so groups never report unsat and keep their
		// always-false filters in place.
		g.Filters, _ = foldFilters(g.Filters, groupBound,
			false, fmt.Sprintf("%s optional %d", where, gi), notes)
	}
	return unsat
}

// foldFilters folds one conjunctive filter list: duplicates are
// dropped, self-comparisons resolve to tautologies (dropped when the
// variable is certainly bound) or contradictions, and a constant
// filter on a variable pinned by an equality filter is decided
// statically. allowUnsat permits dropping always-true filters only;
// always-false filters are always kept (they enforce emptiness at run
// time wherever the context cannot prune).
func foldFilters(fs []sparql.Filter, bound map[sparql.Var]bool, allowUnsat bool, where string, notes *[]string) ([]sparql.Filter, bool) {
	if len(fs) == 0 {
		return fs, false
	}
	out := fs[:0]
	seen := map[string]bool{}
	pins := map[sparql.Var]sparql.Filter{}
	unsat := false
	note := func(format string, args ...any) {
		*notes = append(*notes, "constfold: "+fmt.Sprintf(format, args...)+" ["+where+"]")
	}
	for _, f := range fs {
		key := f.String()
		if seen[key] {
			note("drop duplicate %s", f)
			continue
		}
		seen[key] = true
		if f.Right.IsVar() && f.Right.Var == f.Left {
			switch f.Op {
			case sparql.OpEq, sparql.OpLe, sparql.OpGe:
				// True whenever ?v is bound; an unbound ?v (possible only
				// through OPTIONAL) rejects the row, so the filter is a
				// removable tautology only for certainly bound variables.
				if bound[f.Left] {
					note("drop tautology %s", f)
					continue
				}
			case sparql.OpNe, sparql.OpLt, sparql.OpGt:
				// False for every binding (and unbound rejects too).
				unsat = true
				note("%s is always false", f)
			}
			out = append(out, f)
			continue
		}
		if !f.Right.IsVar() && !f.Right.IsParam() {
			if pin, ok := pins[f.Left]; ok {
				if constHolds(f.Op, pin.Right.Term, f.Right.Term) {
					note("drop %s (implied by %s)", f, pin)
					continue
				}
				unsat = true
				note("%s contradicts %s", f, pin)
				out = append(out, f)
				continue
			}
			if f.Op == sparql.OpEq {
				pins[f.Left] = f
			}
		}
		out = append(out, f)
	}
	if !allowUnsat {
		unsat = false
	}
	return out, unsat
}

// constHolds decides a constant comparison exactly as the executor
// would for a row whose variable is pinned to term pin: = and != are
// term identity (kind and value — two terms are equal iff they carry
// the same dictionary ID), the ordering operators compare the value
// strings only, kinds ignored (the executor's strings.Compare on
// Term.Value).
func constHolds(op sparql.CompareOp, pin, rhs rdf.Term) bool {
	switch op {
	case sparql.OpEq:
		return pin == rhs
	case sparql.OpNe:
		return pin != rhs
	}
	c := strings.Compare(pin.Value, rhs.Value)
	switch op {
	case sparql.OpLt:
		return c < 0
	case sparql.OpLe:
		return c <= 0
	case sparql.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// --- join-input reordering ---

// reorder stable-sorts the basic graph pattern of every branch and
// OPTIONAL group by HEURISTIC 1 rank, so planners receive their inputs
// most selective first. A basic graph pattern is an unordered
// conjunction, so any permutation is equivalent; pattern IDs travel
// with their patterns, keeping plans traceable to the original text.
func reorder(q *sparql.Query) []string {
	var notes []string
	for bi, b := range q.Branches() {
		if sortByH1(b.Patterns) {
			notes = append(notes, fmt.Sprintf("reorder: branch %d patterns H1-ordered", bi))
		}
		for gi := range b.Optionals {
			if sortByH1(b.Optionals[gi].Patterns) {
				notes = append(notes, fmt.Sprintf("reorder: branch %d optional %d patterns H1-ordered", bi, gi))
			}
		}
	}
	return notes
}

// sortByH1 stable-sorts patterns by increasing H1 rank in place and
// reports whether the order changed.
func sortByH1(ps []sparql.TriplePattern) bool {
	before := make([]int, len(ps))
	for i, tp := range ps {
		before[i] = tp.ID
	}
	sort.SliceStable(ps, func(i, j int) bool {
		return heuristics.Default.H1Rank(ps[i]) < heuristics.Default.H1Rank(ps[j])
	})
	for i, tp := range ps {
		if tp.ID != before[i] {
			return true
		}
	}
	return false
}

// --- FILTER pushdown ---

// PushFilters sinks every filter of a planned operator tree toward the
// deepest subtree binding all its variables: through inner joins into
// the qualifying input, and into the required (left) side of a left
// join — never the optional side, where a pushed filter would turn
// non-matching rows into padded rows instead of rejecting them. Sinking
// preserves the input's sort order (Filter is order-transparent), so
// merge-join validity is unaffected. The input tree is not modified;
// shared subtrees are rebuilt along the sink path only. One note per
// moved filter is returned.
func PushFilters(root algebra.Node) (algebra.Node, []string) {
	var notes []string
	var walk func(n algebra.Node) algebra.Node
	walk = func(n algebra.Node) algebra.Node {
		switch t := n.(type) {
		case *algebra.Filter:
			in := walk(t.In)
			out, depth := sink(in, t.F)
			if depth > 0 {
				notes = append(notes, fmt.Sprintf("pushdown: %s sunk below %d join(s)", t.F, depth))
			}
			return out
		case *algebra.Join:
			return &algebra.Join{L: walk(t.L), R: walk(t.R), Method: t.Method, On: t.On}
		case *algebra.LeftJoin:
			return &algebra.LeftJoin{L: walk(t.L), R: walk(t.R), On: t.On}
		case *algebra.Project:
			return &algebra.Project{In: walk(t.In), Cols: t.Cols, Aliases: t.Aliases}
		default:
			return n
		}
	}
	return walk(root), notes
}

// sink pushes one filter as deep as variable coverage allows, returning
// the rebuilt subtree and the number of join boundaries crossed (0: the
// filter wraps n itself).
func sink(n algebra.Node, f sparql.Filter) (algebra.Node, int) {
	switch t := n.(type) {
	case *algebra.Join:
		if covers(t.L, f) {
			l, d := sink(t.L, f)
			return &algebra.Join{L: l, R: t.R, Method: t.Method, On: t.On}, d + 1
		}
		if covers(t.R, f) {
			r, d := sink(t.R, f)
			return &algebra.Join{L: t.L, R: r, Method: t.Method, On: t.On}, d + 1
		}
	case *algebra.LeftJoin:
		// Only the required side: a filter over left-side variables
		// commutes with the left outer join (rejected rows produce only
		// rejected output rows), while pushing into the optional side
		// would manufacture padded rows for the matches it removes.
		if covers(t.L, f) {
			l, d := sink(t.L, f)
			return &algebra.LeftJoin{L: l, R: t.R, On: t.On}, d + 1
		}
	case *algebra.Filter:
		in, d := sink(t.In, f)
		if d > 0 {
			return &algebra.Filter{In: in, F: t.F}, d
		}
	}
	return &algebra.Filter{In: n, F: f}, 0
}

// covers reports whether the subtree binds every variable of the
// filter (its left variable, and its right side when that is a
// variable). Constants and parameter placeholders need no binding.
func covers(n algebra.Node, f sparql.Filter) bool {
	need := map[sparql.Var]bool{f.Left: true}
	if f.Right.IsVar() {
		need[f.Right.Var] = true
	}
	for _, v := range n.Vars() {
		delete(need, v)
	}
	return len(need) == 0
}
