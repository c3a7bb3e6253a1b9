package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"time"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/hspserve"
	"github.com/sparql-hsp/hsp/internal/sp2bench"
	"github.com/sparql-hsp/hsp/internal/store"
)

// serveClients is the closed-loop client count: one per core of the
// reference box.
const serveClients = 2

// pointTitles is how many journal titles the point lookups rotate over.
const pointTitles = 64

// httpReq is one request of the serve-read mix.
type httpReq struct {
	request
	kind  string // "point", "scan_tsv" or "scan_json"
	url   string
	tsv   bool
	nvars int
}

// serveRead drives an in-process hspserve.Server over loopback with two
// keep-alive clients: 70 % execute-by-digest point lookups, 20 % SP5 as
// repeated text (TSV), 10 % SP6 (JSON). Planning is always a registry
// or plan-cache hit; protocol handling, row decode and serialisation
// are the work.
type serveRead struct {
	e      *env
	db     *hsp.DB
	srv    *hspserve.Server
	http   *http.Server
	served chan error
	client *http.Client
	base   string

	points   []httpReq // one per rotating title
	scanTSV  httpReq
	scanJSON httpReq
	schedule []string // request kinds, in send order; clients start at different offsets

	step     *stepper
	stepped  map[string]*stepped
	scanStmt map[string]*hsp.Stmt
}

func (w *serveRead) setup(ctx context.Context, e *env) error {
	w.e = e
	w.db = hsp.GenerateSP2Bench(e.scale, e.seed)
	srv, err := hspserve.New(hspserve.Config{DB: w.db})
	if err != nil {
		return err
	}
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.http.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConns: serveClients, MaxIdleConnsPerHost: serveClients}}

	resp, err := w.client.PostForm(w.base+"/statements", url.Values{"query": {pointQuery}})
	if err != nil {
		return err
	}
	var reg hspserve.RegisterResult
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("registering the point lookup: status %s: %w", resp.Status, err)
	}

	rng := rand.New(rand.NewSource(e.seed))
	for _, j := range spread(rng, journals(e.scale), pointTitles) {
		title := journalTitle(j)
		binds := []hsp.Binding{hsp.Bind("title", hsp.Literal(title))}
		rows, hash, err := reference(ctx, w.db, hsp.PlannerCDP, pointQuery, binds)
		if err != nil {
			return err
		}
		w.points = append(w.points, httpReq{
			request: request{name: "point", text: pointQuery, binds: binds, rows: rows, hash: hash},
			kind:    "point", nvars: 2,
			url: w.base + "/statements/" + reg.Digest + "?title=" + url.QueryEscape(`"`+title+`"`),
		})
	}
	scan := func(name, kind, text, format string, nvars int) (httpReq, error) {
		rows, hash, err := reference(ctx, w.db, hsp.PlannerCDP, text, nil)
		return httpReq{
			request: request{name: name, text: text, rows: rows, hash: hash},
			kind:    kind, tsv: format == "tsv", nvars: nvars,
			url: w.base + "/sparql?format=" + format + "&query=" + url.QueryEscape(text),
		}, err
	}
	if w.scanTSV, err = scan("SP5", "scan_tsv", sp2bench.SP5, "tsv", 2); err != nil {
		return err
	}
	if w.scanJSON, err = scan("SP6", "scan_json", sp2bench.SP6, "json", 1); err != nil {
		return err
	}

	// The schedule is a seeded shuffle of 7:2:1 blocks, long enough
	// that the two clients, starting half a schedule apart, do not move
	// in step.
	for b := 0; b < 64; b++ {
		block := []string{"point", "point", "point", "point", "point", "point", "point", "scan_tsv", "scan_tsv", "scan_json"}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		w.schedule = append(w.schedule, block...)
	}

	// Warm-up: every distinct request once with a full decode and hash
	// check, which also fills the registry and the plan cache.
	for _, r := range append(append([]httpReq{}, w.points...), w.scanTSV, w.scanJSON) {
		body, err := w.fetch(r.url)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		n, hash, err := decodeBody(body, r.tsv)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if n != r.rows || hash != r.hash {
			return fmt.Errorf("%s: warm-up mismatch over HTTP: %d rows hash %x, reference %d rows hash %x", r.name, n, hash, r.rows, r.hash)
		}
	}
	return nil
}

// fetch performs one GET and returns the body of a 200 response.
func (w *serveRead) fetch(u string) ([]byte, error) {
	resp, err := w.client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// decodeBody fully decodes a result document and returns its row count
// and multiset hash — the warm-up check.
func decodeBody(body []byte, tsv bool) (int, uint64, error) {
	var total uint64
	if tsv {
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		vars := strings.Split(lines[0], "\t")
		for _, line := range lines[1:] {
			if strings.HasPrefix(line, "# error") {
				return 0, 0, errors.New(line)
			}
			var h uint64
			for i, cell := range strings.Split(line, "\t") {
				if cell != "" && i < len(vars) {
					h += cellHash(strings.TrimPrefix(vars[i], "?"), cell)
				}
			}
			total += mixRow(h)
		}
		return len(lines) - 1, total, nil
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Type, Value string }
		}
		Error string
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, 0, err
	}
	if doc.Error != "" {
		return 0, 0, errors.New(doc.Error)
	}
	for _, b := range doc.Results.Bindings {
		row := make(map[string]hsp.Term, len(b))
		for v, t := range b {
			switch t.Type {
			case "literal":
				row[v] = hsp.Literal(t.Value)
			case "bnode":
				row[v] = hsp.Blank(t.Value)
			default:
				row[v] = hsp.IRI(t.Value)
			}
		}
		total += rowHash(row)
	}
	return len(doc.Results.Bindings), total, nil
}

// countRows counts row markers without decoding, so the client never
// becomes the bottleneck, and rejects a trailing error marker.
func countRows(body []byte, tsv bool, nvars int) (int, error) {
	if tsv {
		if i := bytes.LastIndexByte(bytes.TrimSuffix(body, []byte("\n")), '\n'); i >= 0 && bytes.HasPrefix(body[i+1:], []byte("# error")) {
			return 0, errors.New("trailing error marker")
		}
		return bytes.Count(body, []byte("\n")) - 1, nil
	}
	if !bytes.HasSuffix(body, []byte("]}}\n")) {
		return 0, errors.New("trailing error marker or truncated document")
	}
	// No workload query has OPTIONAL parts, so every row binds every
	// variable and carries one "type" member per variable.
	return bytes.Count(body, []byte(`"type":"`)) / nvars, nil
}

// pick resolves the k-th scheduled request of a client.
func (w *serveRead) pick(kind string, k int) httpReq {
	switch kind {
	case "scan_tsv":
		return w.scanTSV
	case "scan_json":
		return w.scanJSON
	}
	return w.points[k%len(w.points)]
}

func (w *serveRead) window(ctx context.Context, d time.Duration) (*window, error) {
	wins := make([]window, serveClients)
	var wg sync.WaitGroup
	u0 := usageNow()
	deadline := u0.t.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			win := &wins[c]
			for k := c * len(w.schedule) / serveClients; time.Now().Before(deadline); k++ {
				r := w.pick(w.schedule[k%len(w.schedule)], k)
				t0 := time.Now()
				body, err := w.fetch(r.url)
				n := 0
				if err == nil {
					n, err = countRows(body, r.tsv, r.nvars)
				}
				win.record(t0, n, r.rows, err)
			}
		}(c)
	}
	wg.Wait()
	total := &window{}
	for _, win := range wins {
		total.lat = append(total.lat, win.lat...)
		total.attempted += win.attempted
		total.failed += win.failed
		total.rows += win.rows
	}
	return total, total.since(u0)
}

func (w *serveRead) requests() []request {
	out := []request{w.scanTSV.request, w.scanJSON.request}
	for _, p := range w.points {
		out = append(out, p.request)
	}
	return out
}

func (w *serveRead) cacheStats() (hsp.PlanCacheStats, uint64) {
	return w.db.PlanCacheStats(), w.db.Epoch()
}

func (w *serveRead) close() error {
	if w.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	<-w.served // Serve has returned: the accept loop is gone
	w.client.CloseIdleConnections()
	return err
}

// recorded serves one request into an in-memory recorder: the server's
// whole handler path without the network.
func (w *serveRead) recorded(u string) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("recorded %s: status %d", u, rec.Code)
	}
	return rec, nil
}

// traceRequests is how many scheduled requests a traced pass replays.
const traceRequests = 300

func (w *serveRead) trace(ctx context.Context, tr *tracer) error {
	if w.step == nil {
		w.step = &stepper{snap: store.NewSnapshot(sp2bench.Generate(w.e.scale, w.e.seed), 0)}
		w.stepped = map[string]*stepped{}
		w.scanStmt = map[string]*hsp.Stmt{}
		for kind, text := range map[string]string{"point": pointQuery, "scan_tsv": sp2bench.SP5, "scan_json": sp2bench.SP6} {
			sd, err := w.step.frontEnd(nil, 0, 0, text, true)
			if err != nil {
				return err
			}
			w.stepped[kind] = sd
			st, err := w.db.Prepare(ctx, text, hsp.WithPlanCache(planCacheSize))
			if err != nil {
				return err
			}
			w.scanStmt[kind] = st
		}
	}
	for k := 0; k < traceRequests; k++ {
		req := k + 1
		r := w.pick(w.schedule[k%len(w.schedule)], k)

		root := tr.start(0, req, "http.roundtrip")
		body, err := w.fetch(r.url)
		n := 0
		if err == nil {
			n, err = countRows(body, r.tsv, r.nvars)
		}
		tr.end(root, int64(n))
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}

		served := tr.start(root, req, "hspserve.servehttp")
		_, err = w.recorded(strings.TrimPrefix(r.url, w.base))
		tr.end(served, int64(n))
		if err != nil {
			return err
		}

		stream := tr.start(served, req, "hsp.stream")
		rows, err := w.scanStmt[r.kind].Stream(ctx, r.binds...)
		got := 0
		if err == nil {
			got, err = drain(rows)
		}
		tr.end(stream, int64(got))
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if got != n {
			return fmt.Errorf("%s: facade replay returned %d rows, HTTP %d", r.name, got, n)
		}

		if _, _, err := w.stepped[r.kind].run(ctx, tr, stream, req, r.binds, true, true); err != nil {
			return err
		}
	}
	return nil
}
