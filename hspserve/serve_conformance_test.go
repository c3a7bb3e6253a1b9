// SPARQL-protocol conformance suite: every entry point of the
// protocol surface exercised black-box over real HTTP — GET/POST
// parity, golden result bodies, the 400/404/406/413/415/503/504 error
// paths, the registry lifecycle across epochs, and goroutine-leak
// checks around every aborted run.

package hspserve_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/hspserve"
)

var update = flag.Bool("update", false, "rewrite the golden result files")

// testScale is the SP²Bench dataset size the suite serves: small
// enough to generate per run, large enough that unconstrained cross
// joins cannot finish within the test timeouts.
const testScale = 3000

var (
	dbOnce sync.Once
	dbVal  *hsp.DB
)

// testDB returns the shared SP²Bench fixture dataset.
func testDB(t *testing.T) *hsp.DB {
	t.Helper()
	dbOnce.Do(func() { dbVal = hsp.GenerateSP2Bench(testScale, 1) })
	return dbVal
}

// newServer builds a Server (and its httptest front) over the fixture
// dataset. Callers mutate cfg before it is passed on; cfg.DB is set
// here.
func newServer(t *testing.T, cfg hspserve.Config) (*hspserve.Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testDB(t)
	}
	s, err := hspserve.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// awaitGoroutines polls until the goroutine count drops back to base —
// the leak check wrapped around every abort path.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// get issues a request and returns status, body and the response.
func get(t *testing.T, c *http.Client, url string, hdr map[string]string) (int, string, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, string(body), resp
}

const sp1 = `
PREFIX rdf:     <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench:   <http://localhost/vocabulary/bench/>
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?yr ?jrnl
WHERE { ?jrnl rdf:type bench:Journal .
        ?jrnl dc:title "Journal 1 (1940)" .
        ?jrnl dcterms:issued ?yr . }`

const sp5 = `
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
SELECT ?proc ?isbn
WHERE { ?proc swrc:isbn ?isbn . }`

const sp5Ordered = sp5 + `
ORDER BY ?isbn
LIMIT 25`

// optionalAbstract leaves ?ab and ?m unbound on most rows, in varying
// combinations from one row to the next.
const optionalAbstract = `
PREFIX rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX swrc:  <http://swrc.ontoware.org/ontology#>
SELECT ?a ?ab ?m
WHERE { ?a rdf:type bench:Article .
        OPTIONAL { ?a bench:abstract ?ab }
        OPTIONAL { ?a swrc:month ?m } }`

// noSuchJournal matches nothing.
const noSuchJournal = `
PREFIX dc: <http://purl.org/dc/elements/1.1/>
SELECT ?jrnl ?yr
WHERE { ?jrnl dc:title "No such journal" .
        ?jrnl <http://purl.org/dc/terms/issued> ?yr . }`

const askJournal = `
PREFIX rdf:   <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
ASK { ?j rdf:type bench:Journal . }`

// crossJoin cannot finish at testScale within any test deadline — the
// fixture for timeout and slot-holding scenarios.
const crossJoin = `SELECT ?a WHERE { ?a ?b ?c . ?d ?e ?f . }`

// crossJoinSorted additionally sorts, so not even the first row can be
// produced before a deadline fires.
const crossJoinSorted = crossJoin + ` ORDER BY ?a`

// TestGetPostParity: the same query via GET, form-encoded POST and
// application/sparql-query POST returns byte-identical bodies in both
// result formats.
func TestGetPostParity(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	for _, format := range []string{"json", "tsv"} {
		var bodies []string
		var labels []string

		status, body, _ := get(t, ts.Client(), ts.URL+"/sparql?format="+format+"&query="+url.QueryEscape(sp1), nil)
		if status != http.StatusOK {
			t.Fatalf("GET status = %d, body %s", status, body)
		}
		bodies, labels = append(bodies, body), append(labels, "GET")

		form := url.Values{"query": {sp1}, "format": {format}}
		resp, err := ts.Client().Post(ts.URL+"/sparql", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("form POST status = %d, body %s", resp.StatusCode, b)
		}
		bodies, labels = append(bodies, string(b)), append(labels, "form POST")

		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sparql?format="+format, strings.NewReader(sp1))
		req.Header.Set("Content-Type", "application/sparql-query")
		resp, err = ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sparql-query POST status = %d, body %s", resp.StatusCode, b)
		}
		bodies, labels = append(bodies, string(b)), append(labels, "sparql-query POST")

		for i := 1; i < len(bodies); i++ {
			if bodies[i] != bodies[0] {
				t.Errorf("%s: %s body differs from %s:\n%s\nvs\n%s", format, labels[i], labels[0], bodies[i], bodies[0])
			}
		}
	}
}

// checkGolden compares a response body byte for byte with its golden
// file under testdata (rewritten instead under -update).
func checkGolden(t *testing.T, name, body string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run go test ./hspserve -run Golden -update): %v", err)
	}
	if body != string(want) {
		t.Errorf("body differs from golden %s:\ngot:\n%q\nwant:\n%q", path, body, want)
	}
}

// TestGoldenBodies locks the serialised result bodies of the SP²Bench
// fixture queries against golden files (regenerate with -update). The
// optional, empty and ask documents were captured from the encoders
// that marshalled a map per row and json.Marshal'ed every term (commit
// 2f5cbab), which the byte-appending encoder replaced: unbound
// variables omitted from JSON bindings and left as empty TSV cells,
// the empty bindings array, the boolean forms.
func TestGoldenBodies(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	cases := []struct {
		name, query, format string
	}{
		{"sp1.json", sp1, "json"},
		{"sp1.tsv", sp1, "tsv"},
		{"sp5.json", sp5, "json"},
		{"sp5.tsv", sp5, "tsv"},
		{"sp5_ordered.json", sp5Ordered, "json"},
		{"sp5_ordered.tsv", sp5Ordered, "tsv"},
		{"optional.json", optionalAbstract, "json"},
		{"optional.tsv", optionalAbstract, "tsv"},
		{"empty.json", noSuchJournal, "json"},
		{"empty.tsv", noSuchJournal, "tsv"},
		{"ask.json", askJournal, "json"},
		{"ask.tsv", askJournal, "tsv"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body, resp := get(t, ts.Client(), ts.URL+"/sparql?format="+c.format+"&query="+url.QueryEscape(c.query), nil)
			if status != http.StatusOK {
				t.Fatalf("status = %d, body %s", status, body)
			}
			if resp.Header.Get("X-HSP-Epoch") != "0" {
				t.Errorf("X-HSP-Epoch = %q, want 0", resp.Header.Get("X-HSP-Epoch"))
			}
			checkGolden(t, c.name, body)
			if c.format == "json" {
				var doc map[string]any
				if err := json.Unmarshal([]byte(body), &doc); err != nil {
					t.Errorf("body is not valid JSON: %v", err)
				}
			}
		})
	}
}

// TestAskQuery: ASK serves the boolean result document.
func TestAskQuery(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	ask := `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX bench: <http://localhost/vocabulary/bench/>
ASK { ?j rdf:type bench:Journal . }`
	status, body, _ := get(t, ts.Client(), ts.URL+"/sparql?query="+url.QueryEscape(ask), nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var doc struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Boolean == nil || !*doc.Boolean {
		t.Fatalf("ASK body = %q (err %v), want boolean true document", body, err)
	}
	status, body, _ = get(t, ts.Client(), ts.URL+"/sparql?format=tsv&query="+url.QueryEscape(ask), nil)
	if status != http.StatusOK || strings.TrimSpace(body) != "true" {
		t.Fatalf("ASK tsv = %d %q, want 200 \"true\"", status, body)
	}
}

// TestMalformedQuery: parse failures are 400 with the parse error in
// the body, on every input path.
func TestMalformedQuery(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	status, body, _ := get(t, ts.Client(), ts.URL+"/sparql?query="+url.QueryEscape("SELECT WHERE {"), nil)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", status, body)
	}
	if !strings.Contains(body, "hspserve:") || len(strings.TrimSpace(body)) == 0 {
		t.Errorf("400 body %q does not carry the parse error", body)
	}
	// Missing query parameter entirely.
	status, body, _ = get(t, ts.Client(), ts.URL+"/sparql", nil)
	if status != http.StatusBadRequest || !strings.Contains(body, "missing query") {
		t.Errorf("missing query: status = %d body %q, want 400 mentioning the missing parameter", status, body)
	}
	// An unknown POST content type is 415.
	resp, err := ts.Client().Post(ts.URL+"/sparql", "text/plain", strings.NewReader(sp1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain POST status = %d, want 415", resp.StatusCode)
	}
}

// TestUnsupportedAccept: an Accept header offering only unsupported
// types is 406; supported and wildcard ranges negotiate.
func TestUnsupportedAccept(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	u := ts.URL + "/sparql?query=" + url.QueryEscape(sp1)
	status, body, _ := get(t, ts.Client(), u, map[string]string{"Accept": "application/xml"})
	if status != http.StatusNotAcceptable {
		t.Fatalf("Accept: application/xml status = %d body %s, want 406", status, body)
	}
	for accept, wantCT := range map[string]string{
		"application/sparql-results+json": "application/sparql-results+json",
		"text/tab-separated-values":       "text/tab-separated-values; charset=utf-8",
		"text/*":                          "text/tab-separated-values; charset=utf-8",
		"application/xml, */*;q=0.1":      "application/sparql-results+json",
	} {
		status, body, resp := get(t, ts.Client(), u, map[string]string{"Accept": accept})
		if status != http.StatusOK {
			t.Errorf("Accept %q: status = %d body %s", accept, status, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantCT {
			t.Errorf("Accept %q: Content-Type = %q, want %q", accept, ct, wantCT)
		}
	}
	// An explicit unknown format parameter is 406 too.
	status, _, _ = get(t, ts.Client(), u+"&format=xml", nil)
	if status != http.StatusNotAcceptable {
		t.Errorf("format=xml status = %d, want 406", status)
	}
}

// TestQueryTimeout: a deadline firing before the first result row is
// 504 and the run's goroutines are reclaimed.
func TestQueryTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	_, ts := newServer(t, hspserve.Config{})
	u := ts.URL + "/sparql?timeout=50ms&query=" + url.QueryEscape(crossJoinSorted)
	status, body, _ := get(t, ts.Client(), u, nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %.200s, want 504", status, body)
	}
	if !strings.Contains(body, "timed out") {
		t.Errorf("504 body %q does not mention the timeout", body)
	}
	ts.Close()
	awaitGoroutines(t, base)
}

// TestAdmissionControl: with one execution slot and a one-deep queue,
// a slot-holding query forces the next request to wait out the queue
// (503) and the one after that to be shed immediately with
// Retry-After.
func TestAdmissionControl(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := newServer(t, hspserve.Config{
		MaxInFlight: 1,
		MaxQueue:    1,
		QueueWait:   time.Second,
	})

	// Occupy the only slot: request the endless cross join and do not
	// read the body, so the handler stays in flight writing.
	holdReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?timeout=30s&query="+url.QueryEscape(crossJoin), nil)
	holdResp, err := ts.Client().Do(holdReq)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Admission.InFlight == 1 })

	// Second request queues; while it waits, a third overflows the
	// queue and is rejected immediately.
	type result struct {
		status int
		retry  string
		err    error
	}
	queued := make(chan result)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/sparql?query=" + url.QueryEscape(sp1))
		if err != nil {
			queued <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		queued <- result{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}()
	waitFor(t, func() bool { return s.Stats().Admission.Waiting == 1 })
	status, body, resp := get(t, ts.Client(), ts.URL+"/sparql?query="+url.QueryEscape(sp1), nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("overflow request status = %d body %s, want 503", status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 response missing Retry-After")
	}
	q := <-queued
	if q.err != nil {
		t.Fatalf("queued request failed: %v", q.err)
	}
	if q.status != http.StatusServiceUnavailable || q.retry == "" {
		t.Errorf("queued request = %+v, want 503 with Retry-After", q)
	}
	if got := s.Stats().Admission.Rejected; got != 2 {
		t.Errorf("Admission.Rejected = %d, want 2", got)
	}

	holdResp.Body.Close() // disconnect the slot holder
	waitFor(t, func() bool { return s.Stats().Admission.InFlight == 0 })
	ts.Close()
	awaitGoroutines(t, base)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatementRegistry drives the registry lifecycle: register →
// digest, spelling-insensitive keying, execute-by-digest with binds
// (GET and batch JSON), 404 for unknown digests, and lazy re-prepare
// across an /update epoch bump.
func TestStatementRegistry(t *testing.T) {
	db := hsp.GenerateSP2Bench(testScale, 1)
	s, ts := newServer(t, hspserve.Config{DB: db})
	paramQuery := `
PREFIX dc:      <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT ?j ?yr WHERE { ?j dc:title $title . ?j dcterms:issued ?yr }`

	reg := func(q string) (hspserve.RegisterResult, int) {
		t.Helper()
		form := url.Values{"query": {q}}
		resp, err := ts.Client().Post(ts.URL+"/statements", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr hspserve.RegisterResult
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decoding register response: %v", err)
		}
		return rr, resp.StatusCode
	}

	rr, status := reg(paramQuery)
	if status != http.StatusCreated || !rr.Created {
		t.Fatalf("first register = %d created=%v, want 201 created", status, rr.Created)
	}
	if len(rr.Params) != 1 || rr.Params[0] != "title" {
		t.Fatalf("Params = %v, want [title]", rr.Params)
	}
	// A re-spelled equivalent query maps to the same digest.
	rr2, status := reg(paramQuery + "\n\n")
	if status != http.StatusOK || rr2.Created || rr2.Digest != rr.Digest {
		t.Fatalf("re-register = %d %+v, want 200 with same digest %s", status, rr2, rr.Digest)
	}

	// Execute by digest with a GET bind.
	exec := func(digest, titleVal string) (int, string, *http.Response) {
		u := ts.URL + "/statements/" + digest + "?format=tsv&title=" + url.QueryEscape(`"`+titleVal+`"`)
		return get(t, ts.Client(), u, nil)
	}
	status2, body, resp := exec(rr.Digest, "Journal 1 (1940)")
	if status2 != http.StatusOK {
		t.Fatalf("execute = %d body %s", status2, body)
	}
	if resp.Header.Get("X-HSP-Epoch") != "0" {
		t.Errorf("execute epoch header = %q, want 0", resp.Header.Get("X-HSP-Epoch"))
	}
	if !strings.Contains(body, "1940") {
		t.Errorf("execute body %q does not contain the year", body)
	}

	// Unknown digest → 404; missing bind → 400.
	if st, _, _ := get(t, ts.Client(), ts.URL+"/statements/deadbeef", nil); st != http.StatusNotFound {
		t.Errorf("unknown digest = %d, want 404", st)
	}
	if st, body, _ := get(t, ts.Client(), ts.URL+"/statements/"+rr.Digest, nil); st != http.StatusBadRequest || !strings.Contains(body, "unbound parameter") {
		t.Errorf("missing bind = %d %q, want 400 unbound parameter", st, body)
	}

	// Batch execution through QueryMany.
	batch := `{"binds":[{"title":"\"Journal 1 (1940)\""},{"title":"\"no such journal\""}]}`
	resp2, err := ts.Client().Post(ts.URL+"/statements/"+rr.Digest, "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var batchDoc struct {
		Results []struct {
			Results struct {
				Bindings []map[string]struct{ Value string } `json:"bindings"`
			} `json:"results"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&batchDoc); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	resp2.Body.Close()
	if len(batchDoc.Results) != 2 {
		t.Fatalf("batch results = %d, want 2", len(batchDoc.Results))
	}
	if n := len(batchDoc.Results[0].Results.Bindings); n == 0 {
		t.Errorf("batch entry 0 returned no rows")
	}
	if n := len(batchDoc.Results[1].Results.Bindings); n != 0 {
		t.Errorf("batch entry 1 returned %d rows, want 0", n)
	}

	// Commit an update; the registered statement re-prepares against
	// the new epoch on its next execution.
	nt := `<http://example.org/j99> <http://purl.org/dc/elements/1.1/title> "Fresh Journal" .
<http://example.org/j99> <http://purl.org/dc/terms/issued> "2026" .
`
	upResp, err := ts.Client().Post(ts.URL+"/update", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	var up hspserve.UpdateResult
	if err := json.NewDecoder(upResp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	upResp.Body.Close()
	if up.Epoch != 1 || up.Inserted != 2 {
		t.Fatalf("update = %+v, want epoch 1 inserted 2", up)
	}
	status3, body3, resp3 := exec(rr.Digest, "Fresh Journal")
	if status3 != http.StatusOK || !strings.Contains(body3, "2026") {
		t.Fatalf("post-commit execute = %d %q, want the fresh row", status3, body3)
	}
	if resp3.Header.Get("X-HSP-Epoch") != "1" {
		t.Errorf("post-commit epoch header = %q, want 1", resp3.Header.Get("X-HSP-Epoch"))
	}
	if got := s.Stats().Registry.Reprepares; got != 1 {
		t.Errorf("Registry.Reprepares = %d, want 1", got)
	}

	// The registry list shows the entry.
	var listDoc struct {
		Statements []struct{ Digest string } `json:"statements"`
	}
	_, listBody, _ := get(t, ts.Client(), ts.URL+"/statements", nil)
	if err := json.Unmarshal([]byte(listBody), &listDoc); err != nil || len(listDoc.Statements) != 1 || listDoc.Statements[0].Digest != rr.Digest {
		t.Errorf("registry list = %q (err %v), want the registered digest", listBody, err)
	}
}

// TestRegistryReprepareIsPlanCacheHit: the registry re-prepares a
// statement after /update moves the epoch, and for an HSP statement
// that re-prepare is a plan-cache hit — nothing is re-planned, and the
// cached plan runs on the new snapshot, so the row the update added
// (naming a constant absent before it) is in the answer.
func TestRegistryReprepareIsPlanCacheHit(t *testing.T) {
	db := hsp.GenerateSP2Bench(testScale, 1)
	s, ts := newServer(t, hspserve.Config{DB: db})
	const query = `SELECT ?j ?yr WHERE { ?j <http://example.org/fresh> ?yr }`
	form := url.Values{"query": {query}}
	resp, err := ts.Client().Post(ts.URL+"/statements", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	var rr hspserve.RegisterResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	execute := func() string {
		t.Helper()
		status, body, _ := get(t, ts.Client(), ts.URL+"/statements/"+rr.Digest+"?format=tsv", nil)
		if status != http.StatusOK {
			t.Fatalf("execute = %d %q", status, body)
		}
		return body
	}
	if body := execute(); strings.Contains(body, "2026") {
		t.Fatalf("pre-update answer %q already has the row", body)
	}
	before := db.PlanCacheStats()

	upResp, err := ts.Client().Post(ts.URL+"/update", "application/n-triples",
		strings.NewReader("<http://example.org/j99> <http://example.org/fresh> \"2026\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	upResp.Body.Close()

	if body := execute(); !strings.Contains(body, "2026") {
		t.Fatalf("post-update answer %q lacks the new row", body)
	}
	if got := s.Stats().Registry.Reprepares; got != 1 {
		t.Errorf("Registry.Reprepares = %d, want 1", got)
	}
	after := db.PlanCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Invalidations != 0 {
		t.Errorf("plan cache %+v -> %+v: the re-prepare must be one hit, no miss, no invalidation", before, after)
	}
}

// TestRegistryLRUBound: the registry evicts least-recently-used
// entries past its capacity.
func TestRegistryLRUBound(t *testing.T) {
	s, ts := newServer(t, hspserve.Config{RegistryCap: 2})
	digests := make([]string, 3)
	for i := range digests {
		q := fmt.Sprintf(`PREFIX swrc: <http://swrc.ontoware.org/ontology#>
SELECT ?proc WHERE { ?proc swrc:isbn "isbn-%d" . }`, i)
		form := url.Values{"query": {q}}
		resp, err := ts.Client().Post(ts.URL+"/statements", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
		if err != nil {
			t.Fatal(err)
		}
		var rr hspserve.RegisterResult
		json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		digests[i] = rr.Digest
	}
	if st, _, _ := get(t, ts.Client(), ts.URL+"/statements/"+digests[0], nil); st != http.StatusNotFound {
		t.Errorf("evicted digest still served: %d, want 404", st)
	}
	for _, d := range digests[1:] {
		if st, _, _ := get(t, ts.Client(), ts.URL+"/statements/"+d, nil); st != http.StatusOK {
			t.Errorf("retained digest %s = %d, want 200", d, st)
		}
	}
	rs := s.Stats().Registry
	if rs.Len != 2 || rs.Evicted != 1 {
		t.Errorf("registry stats = %+v, want len 2 evicted 1", rs)
	}
}

// TestUpdateEndpoint: insert then delete through /update, with the
// epoch advancing and bad bodies rejected.
func TestUpdateEndpoint(t *testing.T) {
	db := hsp.GenerateSP2Bench(500, 7)
	_, ts := newServer(t, hspserve.Config{DB: db})
	nt := `<http://example.org/s> <http://example.org/p> "v" .` + "\n"

	post := func(path, body string) (int, hspserve.UpdateResult, string) {
		resp, err := ts.Client().Post(ts.URL+path, "application/n-triples", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var ur hspserve.UpdateResult
		json.Unmarshal(raw, &ur)
		return resp.StatusCode, ur, string(raw)
	}

	status, ur, raw := post("/update", nt)
	if status != http.StatusOK || ur.Epoch != 1 || ur.Inserted != 1 {
		t.Fatalf("insert = %d %s, want epoch 1 inserted 1", status, raw)
	}
	status, ur, raw = post("/update?action=delete", nt)
	if status != http.StatusOK || ur.Epoch != 2 || ur.Deleted != 1 {
		t.Fatalf("delete = %d %s, want epoch 2 deleted 1", status, raw)
	}
	if status, _, raw := post("/update", "not n-triples"); status != http.StatusBadRequest {
		t.Errorf("bad body = %d %s, want 400", status, raw)
	}
	if status, _, raw := post("/update?action=upsert", nt); status != http.StatusBadRequest {
		t.Errorf("bad action = %d %s, want 400", status, raw)
	}
}

// TestMetricsEndpoint: /metrics reflects served traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{OpMetrics: true, PlanCache: 64})
	for i := 0; i < 3; i++ {
		if st, body, _ := get(t, ts.Client(), ts.URL+"/sparql?query="+url.QueryEscape(sp1), nil); st != http.StatusOK {
			t.Fatalf("query %d = %d %s", i, st, body)
		}
	}
	get(t, ts.Client(), ts.URL+"/sparql?query=broken", nil)

	_, body, resp := get(t, ts.Client(), ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	var stats hspserve.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("metrics body does not parse: %v\n%s", err, body)
	}
	q := stats.Routes["query"]
	if q.Requests != 4 || q.Errors != 1 {
		t.Errorf("query route = %+v, want 4 requests 1 error", q)
	}
	if q.P50NS <= 0 {
		t.Errorf("query route p50 = %d, want > 0", q.P50NS)
	}
	if stats.PlanCache.Hits+stats.PlanCache.Misses == 0 {
		t.Errorf("plan cache saw no lookups: %+v", stats.PlanCache)
	}
	if stats.Operators.Ops == 0 || stats.Operators.Rows == 0 {
		t.Errorf("operator metrics empty with OpMetrics on: %+v", stats.Operators)
	}
	if stats.Triples == 0 || stats.Admission.Capacity == 0 {
		t.Errorf("stats missing dataset/admission shape: %+v", stats)
	}
	if st, body, _ := get(t, ts.Client(), ts.URL+"/healthz", nil); st != http.StatusOK || !strings.Contains(body, `"epoch"`) {
		t.Errorf("/healthz = %d %q", st, body)
	}
}

// TestRequestBodyLimit: oversized request bodies are rejected with 413.
func TestRequestBodyLimit(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{MaxRequestBytes: 128})
	long := sp1 + "# " + strings.Repeat("x", 256)
	form := url.Values{"query": {long}}
	resp, err := ts.Client().Post(ts.URL+"/sparql", "application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized form = %d, want 413", resp.StatusCode)
	}
}

// TestParamQueryUnboundOnSparqlEndpoint: a parameterized query sent to
// /sparql (where nothing binds it) is a client error, not a hang.
func TestParamQueryUnboundOnSparqlEndpoint(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{})
	q := `PREFIX dc: <http://purl.org/dc/elements/1.1/>
SELECT ?j WHERE { ?j dc:title $title }`
	status, body, _ := get(t, ts.Client(), ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
	if status != http.StatusBadRequest || !strings.Contains(body, "unbound parameter") {
		t.Errorf("unbound param = %d %q, want 400 unbound parameter", status, body)
	}
}

// hostileDB holds terms that stress every escaping rule of both result
// formats: JSON's quote/backslash/control/HTML-sensitive/U+2028-9/
// invalid-UTF-8 handling and N-Triples' literal escapes, on literals,
// IRIs and blank nodes.
func hostileDB(t *testing.T) *hsp.DB {
	t.Helper()
	b := hsp.NewDataset()
	p := hsp.IRI("http://example.org/p")
	for i, v := range []string{
		"plain",
		`quote " and backslash \`,
		"newline\nreturn\rtab\t",
		"html <b>&amp;</b>",
		"controls \x00\x01\x08\x0c\x1f\x7f",
		"separators \u2028 and \u2029",
		"invalid \xff\xfe utf8 \xc3",
		"unicode é ü 漢字 😀",
		`"1940"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		"",
	} {
		if err := b.Add(hsp.Triple{S: hsp.IRI(fmt.Sprintf("http://example.org/s%02d", i)), P: p, O: hsp.Literal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []hsp.Triple{
		{S: hsp.Blank("b0"), P: p, O: hsp.IRI("http://example.org/o?x=1&y=<2>")},
		{S: hsp.IRI("http://example.org/é\"quoted\""), P: hsp.IRI("http://example.org/q"), O: hsp.Blank("b\t1")},
	} {
		if err := b.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestGoldenHostileTerms locks the escaping of both formats; the
// goldens are what the json.Marshal / Term.String encoders of commit
// 2f5cbab served for this dataset.
func TestGoldenHostileTerms(t *testing.T) {
	_, ts := newServer(t, hspserve.Config{DB: hostileDB(t)})
	const query = `SELECT ?s ?o WHERE { { ?s <http://example.org/p> ?o } UNION { ?s <http://example.org/q> ?o } }`
	for _, format := range []string{"json", "tsv"} {
		status, body, _ := get(t, ts.Client(), ts.URL+"/sparql?format="+format+"&query="+url.QueryEscape(query), nil)
		if status != http.StatusOK {
			t.Fatalf("status = %d, body %s", status, body)
		}
		checkGolden(t, "hostile."+format, body)
	}
}
