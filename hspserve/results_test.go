// Regression tests for the streaming serialisers, driven through the
// RowStream seam with injected failures: a run dying after the response
// head has been committed must surface as the explicit trailing error
// marker of each format — a top-level "error" member in JSON, a final
// "# error: …" comment in TSV — never as a silently truncated body.

package hspserve

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"github.com/sparql-hsp/hsp"
)

// fakeStream is an injectable RowStream: it yields rows, then fails
// with err (or ends cleanly when err is nil).
type fakeStream struct {
	vars   []string
	rows   [][]hsp.Term // positional, zero Term = unbound
	err    error
	pos    int
	closed bool
}

func (f *fakeStream) Vars() []string { return f.vars }
func (f *fakeStream) Next() bool {
	if f.pos < len(f.rows) {
		f.pos++
		return true
	}
	return false
}
func (f *fakeStream) Values() []hsp.Term { return f.rows[f.pos-1] }
func (f *fakeStream) Err() error {
	if f.pos >= len(f.rows) {
		return f.err
	}
	return nil
}
func (f *fakeStream) Close() error { f.closed = true; return nil }

func twoRowStream(err error) *fakeStream {
	return &fakeStream{
		vars: []string{"s", "o"},
		rows: [][]hsp.Term{
			{hsp.IRI("http://example.org/a"), hsp.Literal("one")},
			{hsp.IRI("http://example.org/b"), {}}, // ?o unbound
		},
		err: err,
	}
}

// TestJSONTrailingErrorMarker: a mid-stream failure yields a JSON body
// that still parses, carries the rows produced before the failure, and
// names the error in a top-level "error" member.
func TestJSONTrailingErrorMarker(t *testing.T) {
	injected := errors.New("sort spill: disk full")
	fs := twoRowStream(injected)
	var sb strings.Builder
	err := encodeStream(FormatJSON, &sb, fs, false)
	if !errors.Is(err, injected) {
		t.Fatalf("encodeStream error = %v, want the injected stream error", err)
	}
	if !fs.closed {
		t.Errorf("stream was not closed")
	}
	var doc struct {
		Head    struct{ Vars []string }
		Results struct{ Bindings []map[string]jsonTerm }
		Error   string `json:"error"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("failed body is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Results.Bindings) != 2 {
		t.Errorf("bindings before failure = %d, want 2", len(doc.Results.Bindings))
	}
	if doc.Error != injected.Error() {
		t.Errorf("error member = %q, want %q", doc.Error, injected.Error())
	}
	// The second row omits the unbound variable rather than emitting a
	// null member.
	if _, ok := doc.Results.Bindings[1]["o"]; ok {
		t.Errorf("unbound variable serialised: %v", doc.Results.Bindings[1])
	}
}

// TestTSVTrailingErrorMarker: the TSV form of the same failure is a
// final "# error:" comment line after the rows, newlines flattened.
func TestTSVTrailingErrorMarker(t *testing.T) {
	injected := errors.New("worker failed:\nexchange torn down")
	var sb strings.Builder
	err := encodeStream(FormatTSV, &sb, twoRowStream(injected), false)
	if !errors.Is(err, injected) {
		t.Fatalf("encodeStream error = %v, want the injected stream error", err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d (%q), want header + 2 rows + marker", len(lines), sb.String())
	}
	if lines[0] != "?s\t?o" {
		t.Errorf("header = %q", lines[0])
	}
	if want := "<http://example.org/a>\t\"one\""; lines[1] != want {
		t.Errorf("row 1 = %q, want %q", lines[1], want)
	}
	if want := "<http://example.org/b>\t"; lines[2] != want {
		t.Errorf("row 2 = %q, want %q (unbound column empty)", lines[2], want)
	}
	if want := "# error: worker failed: exchange torn down"; lines[3] != want {
		t.Errorf("marker = %q, want %q", lines[3], want)
	}
}

// TestCleanStreamHasNoMarker: a clean run emits neither marker, in
// both formats, and a primed first row is serialised ahead of the rest.
func TestCleanStreamHasNoMarker(t *testing.T) {
	for _, format := range []Format{FormatJSON, FormatTSV} {
		fs := twoRowStream(nil)
		// Prime the first row the way the handlers do.
		if !fs.Next() {
			t.Fatal("priming Next returned false")
		}
		var sb strings.Builder
		if err := encodeStream(format, &sb, fs, true); err != nil {
			t.Fatalf("%s: encodeStream = %v", format, err)
		}
		body := sb.String()
		if strings.Contains(body, "error") {
			t.Errorf("%s: clean body mentions an error: %q", format, body)
		}
		switch format {
		case FormatJSON:
			var doc struct {
				Results struct{ Bindings []map[string]jsonTerm }
			}
			if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Results.Bindings) != 2 {
				t.Errorf("json body = %q (err %v), want 2 bindings", body, err)
			}
		case FormatTSV:
			if got := strings.Count(body, "\n"); got != 3 {
				t.Errorf("tsv lines = %d (%q), want header + 2 rows", got, body)
			}
		}
	}
}

// TestEmptyStream: zero rows serialise as a well-formed empty document.
func TestEmptyStream(t *testing.T) {
	fs := &fakeStream{vars: []string{"x"}}
	var sb strings.Builder
	if err := encodeStream(FormatJSON, &sb, fs, false); err != nil {
		t.Fatalf("encodeStream = %v", err)
	}
	var doc struct {
		Head    struct{ Vars []string }
		Results struct{ Bindings []map[string]jsonTerm }
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("empty body is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Head.Vars) != 1 || len(doc.Results.Bindings) != 0 {
		t.Errorf("empty doc = %+v", doc)
	}
}

// TestErrorMarkerGolden: the failed document of each format, byte for
// byte as the map-per-row encoders this package had before wrote it
// (testdata/error_marker.* were captured from them): the escaped JSON
// "error" member after the bindings, the flattened TSV comment line.
func TestErrorMarkerGolden(t *testing.T) {
	for _, format := range []Format{FormatJSON, FormatTSV} {
		var sb strings.Builder
		encodeStream(format, &sb, twoRowStream(errors.New("worker failed:\n\"exchange\" <torn> down")), false)
		want, err := os.ReadFile("testdata/error_marker." + string(format))
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("%s body = %q, want %q", format, sb.String(), want)
		}
	}
}
