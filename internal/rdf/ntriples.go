package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error in an N-Triples input.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // description of the problem
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s", e.Line, e.Msg)
}

// Reader parses N-Triples statements from an io.Reader. It accepts the
// core N-Triples grammar: IRIs in angle brackets, quoted literals with
// backslash escapes and optional ^^datatype or @lang suffixes (kept
// verbatim in the literal value), and _:label blank nodes. Comment lines
// beginning with '#' and blank lines are skipped.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc}
}

// Read returns the next triple. It returns io.EOF after the last one.
func (r *Reader) Read() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, r.line)
		if err != nil {
			return Triple{}, err
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll parses every remaining statement.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// ParseNTriples parses a complete N-Triples document held in a string.
func ParseNTriples(doc string) ([]Triple, error) {
	return NewReader(strings.NewReader(doc)).ReadAll()
}

func parseLine(line string, lineno int) (Triple, error) {
	p := &lineParser{in: line, line: lineno}
	s, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	pr, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	o, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	if err := p.dot(); err != nil {
		return Triple{}, err
	}
	t := Triple{S: s, P: pr, O: o}
	if !t.Valid() {
		return Triple{}, &ParseError{Line: lineno, Msg: "invalid triple: " + t.String()}
	}
	return t, nil
}

type lineParser struct {
	in   string
	pos  int
	line int
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return Term{}, p.errf("unexpected end of statement")
	}
	switch p.in[p.pos] {
	case '<':
		return p.iri()
	case '"':
		return p.literal()
	case '_':
		return p.blank()
	default:
		return Term{}, p.errf("unexpected character %q", p.in[p.pos])
	}
}

func (p *lineParser) iri() (Term, error) {
	end := strings.IndexByte(p.in[p.pos:], '>')
	if end < 0 {
		return Term{}, p.errf("unterminated IRI")
	}
	v := p.in[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if v == "" {
		return Term{}, p.errf("empty IRI")
	}
	return NewIRI(v), nil
}

func (p *lineParser) blank() (Term, error) {
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return Term{}, p.errf("malformed blank node")
	}
	start := p.pos + 2
	i := p.tokenEnd(start)
	if i == start {
		return Term{}, p.errf("empty blank node label")
	}
	v := p.in[start:i]
	p.pos = i
	return NewBlank(v), nil
}

func (p *lineParser) literal() (Term, error) {
	var b strings.Builder
	i := p.pos + 1
	for {
		if i >= len(p.in) {
			return Term{}, p.errf("unterminated literal")
		}
		c := p.in[i]
		if c == '"' {
			i++
			break
		}
		if c == '\\' {
			if i+1 >= len(p.in) {
				return Term{}, p.errf("dangling escape in literal")
			}
			i++
			switch p.in[i] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'u', 'U':
				n := 4
				if p.in[i] == 'U' {
					n = 8
				}
				if i+n >= len(p.in) {
					return Term{}, p.errf("truncated unicode escape")
				}
				var r rune
				for k := 1; k <= n; k++ {
					d := hexVal(p.in[i+k])
					if d < 0 {
						return Term{}, p.errf("bad unicode escape digit %q", p.in[i+k])
					}
					r = r<<4 | rune(d)
				}
				b.WriteRune(r)
				i += n
			default:
				return Term{}, p.errf("unknown escape \\%c", p.in[i])
			}
			i++
			continue
		}
		b.WriteByte(c)
		i++
	}
	// Optional ^^<datatype> or @lang suffix, kept verbatim in the value so
	// that distinct typed literals stay distinct in the dictionary.
	if i < len(p.in) && p.in[i] == '@' {
		j := p.tokenEnd(i + 1)
		b.WriteString(p.in[i:j])
		i = j
	} else if i+1 < len(p.in) && p.in[i] == '^' && p.in[i+1] == '^' {
		if i+2 >= len(p.in) || p.in[i+2] != '<' {
			return Term{}, p.errf("malformed datatype suffix")
		}
		end := strings.IndexByte(p.in[i+2:], '>')
		if end < 0 {
			return Term{}, p.errf("unterminated datatype IRI")
		}
		b.WriteString(p.in[i : i+2+end+1])
		i += 2 + end + 1
	}
	p.pos = i
	return NewLiteral(b.String()), nil
}

// tokenEnd returns where a bare token starting at i — a blank-node
// label or a language tag — ends: at the next space or tab. Neither may
// end in '.', so a '.' that closes a non-empty token and is followed only
// by the end of the line (or a comment) is the statement's terminating
// '.', and is left for dot: `<s> <p> _:b.` and `<s> <p> "x"@en.` parse.
func (p *lineParser) tokenEnd(i int) int {
	j := i
	for j < len(p.in) && p.in[j] != ' ' && p.in[j] != '\t' {
		j++
	}
	if j-1 > i && p.in[j-1] == '.' {
		rest := strings.TrimLeft(p.in[j:], " \t")
		if rest == "" || rest[0] == '#' {
			return j - 1
		}
	}
	return j
}

func (p *lineParser) dot() error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != '.' {
		return p.errf("expected terminating '.'")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.in) && !strings.HasPrefix(p.in[p.pos:], "#") {
		return p.errf("trailing content after '.'")
	}
	return nil
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// Writer serialises triples as N-Triples statements.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits a single triple.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	_, w.err = w.w.WriteString(t.String() + " .\n")
	return w.err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
