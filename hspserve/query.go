// The query-serving path: SPARQL protocol request parsing (query via
// GET, form-encoded POST, or application/sparql-query POST), Accept
// negotiation, per-request deadlines, and the registry's
// register/execute-by-digest endpoints. Execution always goes through
// hsp.Stmt — one row is primed before the status line is committed so
// pre-stream failures map onto proper statuses (400 parse/bind, 504
// deadline, 500 run), and everything after the first byte streams with
// the mid-stream trailing error marker of the encoders.

package hspserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"
	"time"

	"github.com/sparql-hsp/hsp"
)

// queryText extracts the SPARQL query text from a protocol request,
// writing the error response itself when the request is malformed
// (false return). GET carries ?query=; POST carries either a
// form-encoded query field or a raw application/sparql-query body.
func (s *Server) queryText(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method == http.MethodGet {
		q := r.URL.Query().Get("query")
		if q == "" {
			if r.URL.Query().Get("update") != "" {
				http.Error(w, "hspserve: SPARQL Update is not served here; POST N-Triples to /update", http.StatusBadRequest)
				return "", false
			}
			http.Error(w, "hspserve: missing query parameter", http.StatusBadRequest)
			return "", false
		}
		return q, true
	}
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		http.Error(w, "hspserve: bad Content-Type: "+err.Error(), http.StatusUnsupportedMediaType)
		return "", false
	}
	switch ct {
	case "application/x-www-form-urlencoded":
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
		if err := r.ParseForm(); err != nil {
			http.Error(w, "hspserve: bad form body: "+err.Error(), requestBodyStatus(err))
			return "", false
		}
		q := r.Form.Get("query")
		if q == "" {
			http.Error(w, "hspserve: missing query form field", http.StatusBadRequest)
			return "", false
		}
		return q, true
	case "application/sparql-query":
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
		if err != nil {
			http.Error(w, "hspserve: reading body: "+err.Error(), requestBodyStatus(err))
			return "", false
		}
		if len(body) == 0 {
			http.Error(w, "hspserve: empty query body", http.StatusBadRequest)
			return "", false
		}
		return string(body), true
	default:
		http.Error(w, fmt.Sprintf("hspserve: unsupported Content-Type %q (want application/x-www-form-urlencoded or application/sparql-query)", ct), http.StatusUnsupportedMediaType)
		return "", false
	}
}

// requestBodyStatus maps body-reading failures: over-limit bodies are
// 413, everything else 400.
func requestBodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// negotiate picks the response format: an explicit format parameter
// ("json" or "tsv") wins, then the Accept header, first acceptable
// media range in header order (q-values are ignored). An explicit
// format or Accept naming only unsupported types yields 406.
func negotiate(w http.ResponseWriter, explicit, accept string) (Format, bool) {
	switch explicit {
	case "json":
		return FormatJSON, true
	case "tsv":
		return FormatTSV, true
	case "":
	default:
		http.Error(w, fmt.Sprintf("hspserve: unsupported format %q (want json or tsv)", explicit), http.StatusNotAcceptable)
		return "", false
	}
	if accept == "" {
		return FormatJSON, true
	}
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "application/sparql-results+json", "application/json", "application/*", "*/*":
			return FormatJSON, true
		case "text/tab-separated-values", "text/*":
			return FormatTSV, true
		}
	}
	http.Error(w, "hspserve: no acceptable result format (supported: application/sparql-results+json, text/tab-separated-values)", http.StatusNotAcceptable)
	return "", false
}

// deadline resolves the request's execution deadline: the optional
// ?timeout= duration parameter, capped at Config.MaxQueryTime.
func (s *Server) deadline(w http.ResponseWriter, raw string) (time.Duration, bool) {
	d := s.cfg.MaxQueryTime
	if raw == "" {
		return d, true
	}
	td, err := time.ParseDuration(raw)
	if err != nil {
		http.Error(w, "hspserve: bad timeout parameter: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	if td > 0 && td < d {
		d = td
	}
	return d, true
}

// handleQuery serves the /sparql endpoint: parse, prepare, stream.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	query, ok := s.queryText(w, r)
	if !ok {
		return
	}
	// r.Form is populated for form posts and merges the URL query, so
	// format/timeout parameters work in either position.
	params := r.Form
	if params == nil {
		params = r.URL.Query()
	}
	format, ok := negotiate(w, params.Get("format"), r.Header.Get("Accept"))
	if !ok {
		return
	}
	d, ok := s.deadline(w, params.Get("timeout"))
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	st, err := s.db.Prepare(ctx, query, s.opts...)
	if err != nil {
		s.execError(w, err, http.StatusBadRequest)
		return
	}
	defer st.Close()
	s.streamStmt(ctx, w, st, nil, format)
}

// execError writes an execution failure that occurred before any
// response byte: deadline → 504, client gone → nothing (the connection
// is dead), everything else → fallback (400 for parse/bind stages, 500
// for runs).
func (s *Server) execError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "hspserve: query timed out: "+err.Error(), http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is nobody to answer.
	default:
		http.Error(w, "hspserve: "+err.Error(), fallback)
	}
}

// streamStmt executes a prepared statement and streams the result
// document. ASK statements answer with the boolean form; everything
// else primes one row off the stream before committing the 200 (so a
// failure during planning, binding, sorting or the first pull still
// maps to a real status), then streams the rest with mid-stream errors
// surfacing as the encoder's trailing marker.
func (s *Server) streamStmt(ctx context.Context, w http.ResponseWriter, st *hsp.Stmt, binds []hsp.Binding, format Format) {
	if st.IsAsk() {
		b, err := st.Ask(ctx, binds...)
		if err != nil {
			s.execError(w, err, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", format.contentType())
		w.Header().Set(epochHeader, epochString(st.Epoch()))
		writeBoolean(w, format, b)
		return
	}
	rows, err := st.Stream(ctx, binds...)
	if err != nil {
		s.execError(w, err, http.StatusBadRequest)
		return
	}
	primed := rows.Next()
	if err := rows.Err(); !primed && err != nil {
		rows.Close()
		s.execError(w, err, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", format.contentType())
	w.Header().Set(epochHeader, epochString(st.Epoch()))
	w.WriteHeader(http.StatusOK)
	encodeStream(format, w, rows, primed)
}

// RegisterResult is the /statements response body: the statement's
// digest key and its prepared shape.
type RegisterResult struct {
	// Digest is the statement's registry key (hsp.QueryDigest of the
	// query text) — execute it via /statements/{digest}.
	Digest string `json:"digest"`
	// Params lists the $name placeholders each execution must bind.
	Params []string `json:"params"`
	// Epoch is the dataset version the statement is currently
	// prepared against (re-prepared automatically after commits).
	Epoch uint64 `json:"epoch"`
	// Created reports whether this registration created the entry
	// (false: the digest was already registered).
	Created bool `json:"created"`
}

// handleRegister registers a prepared statement: the query text
// arrives like a POST query (form field or application/sparql-query
// body) and the response carries the digest to execute it by. 201 for
// a new entry, 200 when the digest was already registered.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	query, ok := s.queryText(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxQueryTime)
	defer cancel()
	e, created, err := s.reg.register(ctx, s.db, query, s.opts)
	if err != nil {
		s.execError(w, err, http.StatusBadRequest)
		return
	}
	//hsp:lint-allow closecheck the statement is owned by the registry, which closes it on eviction and shutdown
	st, err := e.statement(ctx, s.db, s.opts, s.reg)
	if err != nil {
		s.execError(w, err, http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(RegisterResult{
		Digest:  e.digest,
		Params:  st.Params(),
		Epoch:   st.Epoch(),
		Created: created,
	})
}

// handleList serves the registry contents, most recently used first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	type item struct {
		Digest string `json:"digest"`
		Query  string `json:"query"`
	}
	items := []item{}
	for _, e := range s.reg.entries() {
		items = append(items, item{Digest: e.digest, Query: e.query})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Statements []item `json:"statements"`
	}{items})
}

// executeBatch is the JSON body of a batched execute-by-digest
// request: one bind set per execution, values in N-Triples syntax.
type executeBatch struct {
	Binds []map[string]string `json:"binds"`
}

// handleExecute runs a registered statement: GET (or form POST) with
// one form field per $name parameter executes once and streams the
// result; POST application/json with {"binds":[{…},…]} executes the
// whole batch through Stmt.QueryMany and returns one result document
// per bind set. Bind values use N-Triples term syntax ("<iri>",
// "\"literal\"", "_:blank"); bare values bind as literals.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	e := s.reg.lookup(digest)
	if e == nil {
		http.Error(w, fmt.Sprintf("hspserve: no statement registered under digest %q", digest), http.StatusNotFound)
		return
	}

	batch := false
	var batchBody executeBatch
	if r.Method == http.MethodPost {
		if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct == "application/json" {
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
			if err := dec.Decode(&batchBody); err != nil {
				http.Error(w, "hspserve: bad batch body: "+err.Error(), requestBodyStatus(err))
				return
			}
			batch = true
		} else {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
			if err := r.ParseForm(); err != nil {
				http.Error(w, "hspserve: bad form body: "+err.Error(), requestBodyStatus(err))
				return
			}
		}
	}
	params := r.Form
	if params == nil {
		params = r.URL.Query()
	}
	format, ok := negotiate(w, params.Get("format"), r.Header.Get("Accept"))
	if !ok {
		return
	}
	d, ok := s.deadline(w, params.Get("timeout"))
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	st, err := e.statement(ctx, s.db, s.opts, s.reg)
	if err != nil {
		s.execError(w, err, http.StatusInternalServerError)
		return
	}

	if batch {
		s.executeMany(ctx, w, st, batchBody)
		return
	}
	var binds []hsp.Binding
	for _, name := range st.Params() {
		if v := params.Get(name); v != "" {
			binds = append(binds, hsp.Bind(name, parseTerm(v)))
		}
	}
	s.streamStmt(ctx, w, st, binds, format)
}

// executeMany runs a JSON bind batch through Stmt.QueryMany and
// returns one SPARQL JSON result document per bind set (batched
// executions are materialised; stream single executions for unbounded
// results).
func (s *Server) executeMany(ctx context.Context, w http.ResponseWriter, st *hsp.Stmt, body executeBatch) {
	batches := make([]hsp.Binds, len(body.Binds))
	for i, set := range body.Binds {
		for name, v := range set {
			batches[i] = append(batches[i], hsp.Bind(name, parseTerm(v)))
		}
	}
	results, err := st.QueryMany(ctx, batches)
	if err != nil {
		s.execError(w, err, http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(epochHeader, epochString(st.Epoch()))
	docs := make([]any, len(results))
	for i, res := range results {
		docs[i] = resultDoc(res)
	}
	json.NewEncoder(w).Encode(struct {
		Results []any `json:"results"`
	}{docs})
}

// jsonTerm is the SPARQL JSON results encoding of one RDF term, as the
// materialised batch documents (executeMany) marshal it.
type jsonTerm struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

// encodeTerm maps a public term to its JSON encoding.
func encodeTerm(t hsp.Term) jsonTerm {
	switch t.Kind {
	case "literal":
		return jsonTerm{Type: "literal", Value: t.Value}
	case "blank":
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "uri", Value: t.Value}
	}
}

// resultDoc renders a materialised result as the SPARQL JSON results
// document structure.
func resultDoc(res *hsp.Result) map[string]any {
	vars := res.Vars()
	if vars == nil {
		vars = []string{}
	}
	bindings := make([]map[string]jsonTerm, res.Len())
	for i := 0; i < res.Len(); i++ {
		row := map[string]jsonTerm{}
		for v, t := range res.Row(i) {
			row[v] = encodeTerm(t)
		}
		bindings[i] = row
	}
	return map[string]any{
		"head":    map[string]any{"vars": vars},
		"results": map[string]any{"bindings": bindings},
	}
}

// parseTerm interprets a bind value as an RDF term using N-Triples
// syntax: <iri>, _:blank, "literal" (with any @lang or ^^<datatype>
// suffix kept verbatim in the literal value, matching the facade's
// representation). Anything else binds as a plain literal.
func parseTerm(v string) hsp.Term {
	switch {
	case strings.HasPrefix(v, "<") && strings.HasSuffix(v, ">") && len(v) > 2:
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
