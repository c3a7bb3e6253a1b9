// Result serialisation, streamed straight off the Rows pull API: the
// encoders write the head from the projected variables, then one row
// at a time as the run produces them — nothing is materialised, the
// HTTP response flushes incrementally, and a failure after the head
// has been sent (a sort-spill temp error, a worker error surfacing
// late) is emitted as an explicit trailing error marker instead of a
// silent truncation: JSON documents gain a top-level "error" member,
// TSV bodies a final "# error: …" comment line. A client that sees
// neither marker nor a clean end-of-document knows the transfer was
// cut; a client that sees the marker knows the server failed mid-run.

package hspserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/sparql-hsp/hsp"
	"github.com/sparql-hsp/hsp/internal/rdf"
)

// Format selects a result serialisation.
type Format string

// The supported result formats of the protocol endpoints.
const (
	// FormatJSON is the SPARQL 1.1 Query Results JSON Format
	// (application/sparql-results+json).
	FormatJSON Format = "json"
	// FormatTSV is the SPARQL 1.1 Query Results TSV Format
	// (text/tab-separated-values): N-Triples-encoded terms, one
	// tab-separated row per solution.
	FormatTSV Format = "tsv"
)

// contentType returns the format's media type.
func (f Format) contentType() string {
	if f == FormatTSV {
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/sparql-results+json"
}

// RowStream is the streaming result surface the serialisers consume —
// exactly the subset of *hsp.Rows they need, factored as an interface
// so failure injection is testable without a failing engine run.
type RowStream interface {
	// Vars returns the projected variable names, without '?'.
	Vars() []string
	// Next advances to the next row; false at the end or on error.
	Next() bool
	// Values returns the current row positionally, aligned with Vars;
	// the zero Term marks an unbound variable. Valid until Next.
	Values() []hsp.Term
	// Err returns the first error the stream encountered.
	Err() error
	// Close releases the stream's resources.
	Close() error
}

const (
	// flushEvery is the row interval at which the encoder pushes
	// buffered output to the client.
	flushEvery = 64
	// bufferBytes is the buffered output size past which the encoder
	// writes through without waiting for the row interval.
	bufferBytes = 8 << 10
)

// encoder streams one result document. Rows are appended to buf as
// bytes — terms straight from the dictionary's strings, through the
// append-style writers of internal/rdf — and buf is written out every
// flushEvery rows or bufferBytes bytes, so encoding a row allocates
// nothing. Encoders are pooled: a response borrows one, with its
// grown buffers, and returns it when the document is complete.
type encoder struct {
	w   io.Writer
	f   http.Flusher // nil when w cannot flush
	tsv bool

	buf  []byte
	rows int64
	// names holds each variable's JSON member prefix, `"name":`,
	// escaped once per response; offs[i]:offs[i+1] is variable i's.
	names []byte
	offs  []int
}

var encoderPool = sync.Pool{New: func() any { return &encoder{buf: make([]byte, 0, 2*bufferBytes)} }}

// maxPooledBuffer bounds the buffer a pooled encoder may keep: one
// grown by an outsized term is dropped instead of pinned.
const maxPooledBuffer = 64 << 10

// The constant parts of a JSON binding around its escaped value.
const (
	jsonURI     = `{"type":"uri","value":`
	jsonLiteral = `{"type":"literal","value":`
	jsonBNode   = `{"type":"bnode","value":`
)

// head starts the document: the projected variables, and for JSON the
// opening of the bindings array.
func (e *encoder) head(vars []string) error {
	if e.tsv {
		for i, v := range vars {
			if i > 0 {
				e.buf = append(e.buf, '\t')
			}
			e.buf = append(e.buf, '?')
			e.buf = append(e.buf, v...)
		}
		e.buf = append(e.buf, '\n')
		return nil
	}
	names, err := json.Marshal(vars)
	if err != nil {
		return err
	}
	e.buf = append(e.buf, `{"head":{"vars":`...)
	e.buf = append(e.buf, names...)
	e.buf = append(e.buf, `},"results":{"bindings":[`...)
	e.names, e.offs = e.names[:0], append(e.offs[:0], 0)
	for _, v := range vars {
		e.names = append(rdf.AppendJSONString(e.names, v), ':')
		e.offs = append(e.offs, len(e.names))
	}
	return nil
}

// row appends one solution, positionally aligned with the head's
// variables. Unbound variables (OPTIONAL) are omitted from a JSON
// binding, per the results format, and leave an empty TSV cell.
func (e *encoder) row(vals []hsp.Term) error {
	if e.tsv {
		for i, t := range vals {
			if i > 0 {
				e.buf = append(e.buf, '\t')
			}
			if t.Kind != "" {
				e.buf = rdfTerm(t).AppendNTriples(e.buf)
			}
		}
		e.buf = append(e.buf, '\n')
	} else {
		if e.rows > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '{')
		wrote := false
		for i, t := range vals {
			if t.Kind == "" {
				continue
			}
			if wrote {
				e.buf = append(e.buf, ',')
			}
			wrote = true
			e.buf = append(e.buf, e.names[e.offs[i]:e.offs[i+1]]...)
			// Literal values carry any @lang/^^<datatype> suffix
			// verbatim, matching the facade's term representation.
			switch t.Kind {
			case "literal":
				e.buf = append(e.buf, jsonLiteral...)
			case "blank":
				e.buf = append(e.buf, jsonBNode...)
			default:
				e.buf = append(e.buf, jsonURI...)
			}
			e.buf = append(rdf.AppendJSONString(e.buf, t.Value), '}')
		}
		e.buf = append(e.buf, '}')
	}
	e.rows++
	if e.rows%flushEvery == 0 {
		return e.flush()
	}
	if len(e.buf) >= bufferBytes {
		return e.write()
	}
	return nil
}

// end finishes the document — with the trailing error marker when the
// stream failed mid-way (fail non-nil) — and flushes everything.
func (e *encoder) end(fail error) error {
	if e.tsv {
		if fail != nil {
			e.buf = append(e.buf, "# error: "...)
			e.buf = append(e.buf, strings.ReplaceAll(fail.Error(), "\n", " ")...)
			e.buf = append(e.buf, '\n')
		}
	} else {
		e.buf = append(e.buf, "]}"...)
		if fail != nil {
			e.buf = append(e.buf, `,"error":`...)
			e.buf = rdf.AppendJSONString(e.buf, fail.Error())
		}
		e.buf = append(e.buf, "}\n"...)
	}
	return e.flush()
}

// write hands the buffered bytes to the response writer.
func (e *encoder) write() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// flush writes the buffered bytes and pushes them to the client.
func (e *encoder) flush() error {
	if err := e.write(); err != nil {
		return err
	}
	if e.f != nil {
		e.f.Flush()
	}
	return nil
}

// rdfTerm converts a public term to the internal form the N-Triples
// writer takes.
func rdfTerm(t hsp.Term) rdf.Term {
	switch t.Kind {
	case "literal":
		return rdf.NewLiteral(t.Value)
	case "blank":
		return rdf.NewBlank(t.Value)
	default:
		return rdf.NewIRI(t.Value)
	}
}

// encodeStream drains rows into w as one result document: head, every
// row, and — when the stream dies mid-way — the trailing error marker,
// so a truncated run is never mistaken for a complete result. primed
// says the caller has already advanced rows to its first row (the
// handlers pull one row before committing a 200 status). The stream's
// error is returned after being encoded, write errors short-circuit,
// and rows is always closed.
func encodeStream(format Format, w io.Writer, rows RowStream, primed bool) error {
	defer rows.Close()
	e := encoderPool.Get().(*encoder)
	defer func() {
		e.w, e.f = nil, nil
		if cap(e.buf) <= maxPooledBuffer {
			encoderPool.Put(e)
		}
	}()
	e.w, e.tsv, e.buf, e.rows = w, format == FormatTSV, e.buf[:0], 0
	e.f, _ = w.(http.Flusher)
	if err := e.head(rows.Vars()); err != nil {
		return err
	}
	for primed || rows.Next() {
		primed = false
		if err := e.row(rows.Values()); err != nil {
			return err
		}
	}
	streamErr := rows.Err()
	if err := e.end(streamErr); err != nil {
		return err
	}
	return streamErr
}

// writeBoolean emits an ASK result document: the SPARQL JSON boolean
// form, or a bare true/false line for TSV.
func writeBoolean(w io.Writer, format Format, b bool) error {
	var err error
	if format == FormatTSV {
		_, err = fmt.Fprintf(w, "%t\n", b)
	} else {
		_, err = fmt.Fprintf(w, `{"head":{},"boolean":%t}`+"\n", b)
	}
	return err
}
