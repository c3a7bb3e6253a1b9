// Command hsp-cli loads or generates an RDF dataset and runs a SPARQL
// join query against it with a chosen planner and execution engine.
//
// Usage:
//
//	hsp-cli -data file.nt        -query 'SELECT ...'
//	hsp-cli -data ./dbdir        -update new.nt -sync always
//	hsp-cli -gen sp2bench:100000 -queryfile q.sparql -planner cdp -engine rdf3x -explain
//
// -data accepts either an N-Triples file (loaded into memory) or a
// directory, opened as a durable WAL-backed dataset via hsp.Open
// (created empty if missing, otherwise recovered to the last durably
// committed epoch). In directory mode -update/-delete commits are
// logged to the write-ahead log before they are visible; -sync picks
// the sync policy: always (default), none, or a flush interval such as
// 100ms. See docs/DURABILITY.md.
//
// The -planner flag selects hsp (the paper's heuristic planner, the
// default), cdp (the RDF-3X-style cost-based baseline), sql (the
// left-deep MonetDB/SQL-style baseline) or hybrid (HSP structure with
// statistics-based ordering, the paper's Section 7 proposal). The -engine flag selects monet
// (uncompressed sorted orderings) or rdf3x (compressed indexes).
//
// The -rewrites flag selects the algebraic rewrite rules run between
// parsing and planning: all (default), none, or a comma list of
// constfold, pushdown, reorder. With -plan, applied rules print as
// rewrite: lines ahead of the operator tree.
//
// -stream pulls rows from the running plan instead of materialising the
// result, -parallel N lets the executor use N concurrent workers, and
// -analyze prints an EXPLAIN ANALYZE tree (per-operator row counts,
// wall times and hash-join build sizes) instead of rows. On a parallel
// run, pipelines whose scan meets -exchangethreshold rows scatter
// across the workers, and the -analyze tree grows an exchange: line
// with per-worker row counts and the skew ratio of the partitioning.
//
// Serving-path flags: -timeout bounds the whole run with a context
// deadline (a fired deadline aborts sequential and parallel executions
// mid-pipeline), -plancache N serves the query through an LRU
// compiled-plan cache of capacity N, and -repeat N runs the query N
// times — with -plancache, run 2 onwards skips parsing, planning and
// compilation, and the cache's hit/miss counters are reported.
//
// Queries may hold $name parameter placeholders, bound with repeatable
// -param flags: -param name=value. Values parse as N-Triples-style
// terms: <http://…> is an IRI, _:label a blank node, "text" (or any
// unmarked value) a literal. Parameterized queries are prepared once
// (db.Prepare) and executed with the bindings; -repeat re-executes the
// prepared statement without re-parsing or re-planning.
//
// ORDER BY queries stream through a bounded-memory sort: -sortspill N
// caps the sort buffer at N bytes (spilling sorted runs to temp files
// beyond it; 0 keeps the 64 MiB default) and -tempdir picks where
// spilled runs are written.
//
// Live-dataset flags: -update file.nt inserts the file's statements and
// -delete file.nt removes them, both applied as one transaction before
// the query runs; the commit's new epoch and effective insert/delete
// counts are printed. Combined with -writesnapshot the mutated dataset
// (and its epoch) is persisted. With neither -query nor -queryfile a
// pure mutation run exits after committing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/sparql-hsp/hsp"
)

func main() {
	var (
		data      = flag.String("data", "", "N-Triples file to load, or a directory for a durable WAL-backed dataset (created if missing)")
		syncMode  = flag.String("sync", "always", "WAL sync policy for a -data directory: always, none, or a flush interval like 100ms")
		snapshot  = flag.String("snapshot", "", "binary snapshot file to load (see -writesnapshot)")
		writeSnap = flag.String("writesnapshot", "", "write the loaded dataset to a snapshot file and exit")
		gen       = flag.String("gen", "", "generate a dataset instead: sp2bench:N or yago:N")
		seed      = flag.Int64("seed", 1, "generator seed")
		query     = flag.String("query", "", "SPARQL query text")
		queryFile = flag.String("queryfile", "", "file holding the SPARQL query")
		planner   = flag.String("planner", "hsp", "planner: hsp, cdp, sql or hybrid")
		rewrites  = flag.String("rewrites", "all", "algebraic rewrite rules: all, none, or a comma list of constfold,pushdown,reorder")
		engine    = flag.String("engine", "monet", "engine: monet or rdf3x")
		explain   = flag.Bool("explain", false, "print the plan with observed cardinalities instead of rows")
		analyze   = flag.Bool("analyze", false, "print EXPLAIN ANALYZE (per-operator rows, timings, build sizes) instead of rows")
		plan      = flag.Bool("plan", false, "print the plan without executing")
		stream    = flag.Bool("stream", false, "stream rows instead of materialising the result")
		parallel  = flag.Int("parallel", 1, "number of concurrent executor workers")
		exchRows  = flag.Int("exchangethreshold", 0, "minimum scan rows before a parallel run scatters a pipeline across workers (0 = default 4096)")
		maxRows   = flag.Int("maxrows", 20, "result rows to print (0 = all)")
		timeout   = flag.Duration("timeout", 0, "abort the query after this duration (0 = no deadline)")
		planCache = flag.Int("plancache", 0, "serve through a compiled-plan cache of this capacity (0 = off)")
		repeat    = flag.Int("repeat", 1, "run the query this many times (pairs with -plancache)")
		sortSpill = flag.Int("sortspill", 0, "ORDER BY sort memory budget in bytes; larger inputs spill sorted runs to disk (0 = default 64 MiB)")
		tempDir   = flag.String("tempdir", "", "directory for spilled sort runs (default: the OS temp directory)")
		update    = flag.String("update", "", "N-Triples file whose statements are inserted in a transaction before querying")
		deleteNT  = flag.String("delete", "", "N-Triples file whose statements are deleted in a transaction before querying")
	)
	var params paramFlags
	flag.Var(&params, "param", "bind a query parameter: name=value (repeatable; value is <iri>, _:blank or a literal)")
	flag.Parse()
	if (*plan || *explain) && (*planCache > 0 || *repeat > 1) {
		fail(fmt.Errorf("-plan/-explain do not execute through the serving path; drop -plancache/-repeat"))
	}

	db, err := openDB(*data, *snapshot, *gen, *seed, *syncMode)
	if err != nil {
		fail(err)
	}
	defer db.Close() // flushes the WAL on a durable (directory) dataset
	fmt.Fprintf(os.Stderr, "dataset: %d triples\n", db.NumTriples())

	// Mutations run before -writesnapshot so an updated dataset can be
	// persisted (the snapshot carries the new epoch).
	mutated := false
	if *update != "" || *deleteNT != "" {
		if err := applyMutation(db, *update, *deleteNT); err != nil {
			fail(err)
		}
		mutated = true
	}

	if *writeSnap != "" {
		if err := db.SaveFile(*writeSnap); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *writeSnap)
		return
	}

	text := *query
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fail(err)
		}
		text = string(b)
	}
	if text == "" {
		if mutated {
			return // a pure mutation run needs no query
		}
		fail(fmt.Errorf("no query given (use -query or -queryfile)"))
	}

	// The deadline covers the query, not dataset loading or generation,
	// so start it only once the data is ready.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// runOpts are the execution options every path shares: worker
	// budget, the exchange cutover, the ORDER BY spill configuration
	// and the rewrite-pass selection.
	rwOpts, err := rewriteOpts(*rewrites)
	if err != nil {
		fail(err)
	}
	runOpts := append([]hsp.ExecOption{hsp.WithParallelism(*parallel)}, rwOpts...)
	if *exchRows > 0 {
		runOpts = append(runOpts, hsp.WithExchangeThreshold(*exchRows))
	}
	if *sortSpill > 0 {
		runOpts = append(runOpts, hsp.WithSortSpill(*sortSpill))
	}
	if *tempDir != "" {
		runOpts = append(runOpts, hsp.WithTempDir(*tempDir))
	}

	if len(params) > 0 {
		if *plan || *explain {
			fail(fmt.Errorf("-param requires executing the query; drop -plan/-explain"))
		}
		runPrepared(ctx, db, text, hsp.Planner(*planner), hsp.Engine(*engine), runOpts, params.binds(), *planCache, *repeat, *maxRows, *stream, *analyze)
		return
	}

	if *planCache > 0 || *repeat > 1 {
		serve(ctx, db, text, hsp.Planner(*planner), hsp.Engine(*engine), runOpts, *planCache, *repeat, *maxRows, *stream, *analyze)
		return
	}

	start := time.Now()
	p, err := db.Plan(text, hsp.Planner(*planner), rwOpts...)
	if err != nil {
		fail(err)
	}
	planTime := time.Since(start)
	fmt.Fprintf(os.Stderr, "planner=%s engine=%s: %d merge joins, %d hash joins, %s plan, planned in %v\n",
		p.Planner(), *engine, p.MergeJoins(), p.HashJoins(), p.Shape(), planTime)

	if *plan {
		for _, n := range p.RewriteNotes() {
			fmt.Printf("rewrite: %s\n", n)
		}
		fmt.Print(p.String())
		return
	}
	if *explain {
		out, err := db.ExplainContext(ctx, p, hsp.Engine(*engine))
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		return
	}
	st, err := db.PreparePlan(ctx, p, hsp.Engine(*engine), runOpts...)
	if err != nil {
		fail(err)
	}
	defer st.Close()
	start = time.Now()
	switch {
	case *analyze:
		out, err := st.ExplainAnalyze(ctx)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	case *stream:
		// Rows arrive one at a time and print as they come; memory stays
		// constant no matter how large the result is.
		rows, err := st.Stream(ctx)
		if err != nil {
			fail(err)
		}
		defer rows.Close()
		drainRows(rows, *maxRows, start)
	default:
		res, err := st.Query(ctx)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "executed in %v, %d rows\n", time.Since(start), res.Len())
		printResult(res, *maxRows)
	}
}

// paramFlags collects repeatable -param name=value bindings.
type paramFlags []hsp.Binding

// String implements flag.Value.
func (p *paramFlags) String() string {
	var parts []string
	for _, b := range *p {
		parts = append(parts, b.Name+"="+b.Value.String())
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value: name=value, the value in N-Triples-style
// term syntax (<iri>, _:blank, "literal" or a bare literal).
func (p *paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("bad -param %q (want name=value)", s)
	}
	*p = append(*p, hsp.Bind(name, parseTerm(val)))
	return nil
}

// binds returns the collected bindings.
func (p paramFlags) binds() []hsp.Binding { return p }

// rewriteOpts parses the -rewrites flag: nil for "all" (the default
// pass runs every rule), a disabling WithRewrites() for "none", or the
// named subset of rules.
func rewriteOpts(s string) ([]hsp.ExecOption, error) {
	switch s {
	case "all", "":
		return nil, nil
	case "none":
		return []hsp.ExecOption{hsp.WithRewrites()}, nil
	}
	var rules []hsp.RewriteRule
	for _, raw := range strings.Split(s, ",") {
		r := hsp.RewriteRule(strings.TrimSpace(raw))
		switch r {
		case hsp.RewriteConstFold, hsp.RewritePushdown, hsp.RewriteReorder:
			rules = append(rules, r)
		default:
			return nil, fmt.Errorf("unknown rewrite rule %q (want constfold, pushdown or reorder)", raw)
		}
	}
	return []hsp.ExecOption{hsp.WithRewrites(rules...)}, nil
}

// parseTerm interprets a -param value as an RDF term. Quoted literals
// may carry an @lang or ^^<datatype> suffix, which — matching the
// N-Triples reader and the SPARQL lexer — is kept verbatim in the
// literal value ("chat"@en binds the literal `chat@en`).
func parseTerm(v string) hsp.Term {
	switch {
	case strings.HasPrefix(v, "<") && strings.HasSuffix(v, ">"):
		return hsp.IRI(v[1 : len(v)-1])
	case strings.HasPrefix(v, "_:"):
		return hsp.Blank(v[2:])
	case len(v) >= 2 && strings.HasPrefix(v, `"`):
		if i := strings.LastIndexByte(v[1:], '"'); i >= 0 {
			return hsp.Literal(v[1:1+i] + v[i+2:])
		}
		return hsp.Literal(v)
	default:
		return hsp.Literal(v)
	}
}

// runPrepared executes a parameterized query: the statement is prepared
// once and executed -repeat times with the given bindings, optionally
// streaming or printing EXPLAIN ANALYZE on the last repetition.
func runPrepared(ctx context.Context, db *hsp.DB, text string, planner hsp.Planner, engine hsp.Engine, runOpts []hsp.ExecOption, binds []hsp.Binding, planCache, repeat, maxRows int, stream, analyze bool) {
	opts := append([]hsp.ExecOption{hsp.WithPlanner(planner), hsp.WithEngine(engine)}, runOpts...)
	if planCache > 0 {
		opts = append(opts, hsp.WithPlanCache(planCache))
	}
	start := time.Now()
	st, err := db.Prepare(ctx, text, opts...)
	if err != nil {
		fail(err)
	}
	defer st.Close()
	fmt.Fprintf(os.Stderr, "prepared in %v (parameters: $%s)\n", time.Since(start), strings.Join(st.Params(), ", $"))
	for i := 0; i < repeat; i++ {
		last := i == repeat-1
		start := time.Now()
		switch {
		case analyze:
			out, err := st.ExplainAnalyze(ctx, binds...)
			if err != nil {
				fail(err)
			}
			if last {
				fmt.Print(out)
			}
		case stream && last:
			rows, err := st.Stream(ctx, binds...)
			if err != nil {
				fail(err)
			}
			defer rows.Close()
			drainRows(rows, maxRows, start)
		default:
			res, err := st.Query(ctx, binds...)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "run %d: %v, %d rows\n", i+1, time.Since(start), res.Len())
			if last && !stream {
				printResult(res, maxRows)
			}
		}
	}
	printCacheStats(db, planCache)
}

// printCacheStats reports the plan cache's counters when caching is on.
func printCacheStats(db *hsp.DB, planCache int) {
	if planCache <= 0 {
		return
	}
	s := db.PlanCacheStats()
	fmt.Fprintf(os.Stderr, "plan cache: hits=%d misses=%d template_hits=%d size=%d/%d\n",
		s.Hits, s.Misses, s.TemplateHits, s.Len, s.Cap)
}

// serve runs the query through the serving path: query text in,
// context-bound execution, optionally repeated and served from the
// compiled-plan cache.
func serve(ctx context.Context, db *hsp.DB, text string, planner hsp.Planner, engine hsp.Engine, runOpts []hsp.ExecOption, planCache, repeat, maxRows int, stream, analyze bool) {
	opts := append([]hsp.ExecOption{
		hsp.WithPlanner(planner),
		hsp.WithEngine(engine),
	}, runOpts...)
	if planCache > 0 {
		opts = append(opts, hsp.WithPlanCache(planCache))
	}
	for i := 0; i < repeat; i++ {
		last := i == repeat-1
		start := time.Now()
		switch {
		case analyze:
			st, err := db.Prepare(ctx, text, opts...)
			if err != nil {
				fail(err)
			}
			out, err := st.ExplainAnalyze(ctx)
			st.Close()
			if err != nil {
				fail(err)
			}
			if last {
				fmt.Print(out)
			}
		case stream && last:
			// Only the last repetition prints rows; earlier ones warm the
			// cache materialised, cheaper than decoding terms repeatedly.
			streamQuery(ctx, db, text, opts, maxRows)
		default:
			res, err := db.QueryContext(ctx, text, opts...)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "run %d: %v, %d rows\n", i+1, time.Since(start), res.Len())
			if last && !stream {
				printResult(res, maxRows)
			}
		}
	}
	printCacheStats(db, planCache)
}

// printResult renders a materialised result, truncated to maxRows.
func printResult(res *hsp.Result, maxRows int) {
	fmt.Println(strings.Join(res.Vars(), "\t"))
	n := res.Len()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		row := res.Row(i)
		var cells []string
		for _, v := range res.Vars() {
			cells = append(cells, row[v].String())
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	if n < res.Len() {
		fmt.Printf("... (%d more rows)\n", res.Len()-n)
	}
}

// streamQuery streams a query text through the serving path.
func streamQuery(ctx context.Context, db *hsp.DB, text string, opts []hsp.ExecOption, maxRows int) {
	start := time.Now()
	rows, err := db.StreamContext(ctx, text, opts...)
	if err != nil {
		fail(err)
	}
	defer rows.Close()
	drainRows(rows, maxRows, start)
}

// drainRows prints up to maxRows rows from a stream and reports timing.
func drainRows(rows *hsp.Rows, maxRows int, start time.Time) {
	vars := rows.Vars()
	fmt.Println(strings.Join(vars, "\t"))
	n := 0
	for rows.Next() {
		if maxRows > 0 && n >= maxRows {
			break
		}
		row := rows.Row()
		var cells []string
		for _, v := range vars {
			cells = append(cells, row[v].String())
		}
		fmt.Println(strings.Join(cells, "\t"))
		n++
	}
	if err := rows.Err(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "streamed %d rows in %v\n", n, time.Since(start))
}

// applyMutation applies one transaction before querying: the -update
// file's statements are inserted, the -delete file's removed, and the
// commit's outcome (new epoch, effective insert/delete counts, dataset
// size, merge wall time) is reported.
func applyMutation(db *hsp.DB, updateFile, deleteFile string) error {
	txn, err := db.Update(context.Background())
	if err != nil {
		return err
	}
	defer txn.Rollback() // no-op once committed
	if updateFile != "" {
		f, err := os.Open(updateFile)
		if err != nil {
			return err
		}
		err = txn.LoadNTriples(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-update %s: %w", updateFile, err)
		}
	}
	if deleteFile != "" {
		f, err := os.Open(deleteFile)
		if err != nil {
			return err
		}
		ts, err := hsp.ReadNTriples(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("-delete %s: %w", deleteFile, err)
		}
		for _, tr := range ts {
			if err := txn.Delete(tr); err != nil {
				return err
			}
		}
	}
	ins, dels := txn.Pending()
	cs, err := txn.Commit(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "commit: epoch=%d inserted=%d deleted=%d (requested +%d -%d) triples=%d in %v\n",
		cs.Epoch, cs.Inserted, cs.Deleted, ins, dels, cs.Triples, cs.Wall.Round(time.Microsecond))
	return nil
}

// openDB resolves the mutually exclusive dataset flags. A -data path
// naming a directory (or nothing yet — it is created) opens a durable
// WAL-backed dataset; a -data path naming a file loads N-Triples.
func openDB(data, snapshot, gen string, seed int64, syncMode string) (*hsp.DB, error) {
	n := 0
	for _, s := range []string{data, snapshot, gen} {
		if s != "" {
			n++
		}
	}
	if n > 1 {
		return nil, fmt.Errorf("use only one of -data, -snapshot or -gen")
	}
	switch {
	case data != "":
		if fi, err := os.Stat(data); err == nil && !fi.IsDir() {
			return hsp.OpenNTriplesFile(data)
		}
		pol, err := parseSyncPolicy(syncMode)
		if err != nil {
			return nil, err
		}
		return hsp.Open(data, hsp.WithSyncPolicy(pol))
	case snapshot != "":
		return hsp.OpenSnapshotFile(snapshot)
	case gen != "":
		name, scaleStr, ok := strings.Cut(gen, ":")
		if !ok {
			return nil, fmt.Errorf("bad -gen %q (want sp2bench:N or yago:N)", gen)
		}
		scale, err := strconv.Atoi(scaleStr)
		if err != nil || scale <= 0 {
			return nil, fmt.Errorf("bad -gen scale %q", scaleStr)
		}
		switch name {
		case "sp2bench":
			return hsp.GenerateSP2Bench(scale, seed), nil
		case "yago":
			return hsp.GenerateYAGO(scale, seed), nil
		default:
			return nil, fmt.Errorf("unknown generator %q", name)
		}
	default:
		return nil, fmt.Errorf("no dataset given (use -data or -gen)")
	}
}

// parseSyncPolicy maps the -sync flag to a WAL sync policy: "always",
// "none", or a positive duration for interval (group) fsync.
func parseSyncPolicy(s string) (hsp.SyncPolicy, error) {
	switch s {
	case "", "always":
		return hsp.SyncAlways, nil
	case "none":
		return hsp.SyncNone, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return hsp.SyncPolicy{}, fmt.Errorf("bad -sync %q (want always, none, or a positive duration like 100ms)", s)
	}
	return hsp.SyncInterval(d), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hsp-cli:", err)
	os.Exit(1)
}
