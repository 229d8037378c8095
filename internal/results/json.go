package results

import (
	"io"
	"unicode/utf8"

	"repro/internal/rdf"
)

// jsonWriter emits SPARQL 1.1 Query Results JSON
// (https://www.w3.org/TR/sparql11-results-json/). The document is written
// incrementally: head on Begin, one binding object per Row, the closing
// braces on End.
type jsonWriter struct {
	rowBuf
	keys  []string // `"var":` per column, encoded once in Begin
	first bool
}

func (j *jsonWriter) Begin(vars []string) error {
	j.first = true
	j.keys = make([]string, len(vars))
	b := append(j.buf[:0], `{"head":{"vars":[`...)
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		start := len(b)
		b = appendJSONString(b, v)
		j.keys[i] = string(b[start:]) + ":"
	}
	b = append(b, `]},"results":{"bindings":[`...)
	return j.flush(b)
}

func (j *jsonWriter) Row(row []rdf.Term) error {
	b := j.buf[:0]
	if j.first {
		j.first = false
	} else {
		b = append(b, ',')
	}
	b = append(b, "\n{"...)
	wrote := false
	for i, key := range j.keys {
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: the variable is absent from the binding
		}
		if wrote {
			b = append(b, ',')
		}
		wrote = true
		b = append(b, key...)
		b = appendJSONTerm(b, row[i])
	}
	b = append(b, '}')
	return j.flush(b)
}

func (j *jsonWriter) End() error {
	_, err := io.WriteString(j.w, "\n]}}\n")
	return err
}

func (j *jsonWriter) Boolean(b bool) error {
	doc := `{"head":{},"boolean":false}` + "\n"
	if b {
		doc = `{"head":{},"boolean":true}` + "\n"
	}
	_, err := io.WriteString(j.w, doc)
	return err
}

// appendJSONTerm appends one RDF term as a result-set binding object.
func appendJSONTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, `{"type":"uri","value":`...)
	case rdf.Blank:
		b = append(b, `{"type":"bnode","value":`...)
	default:
		b = append(b, `{"type":"literal","value":`...)
	}
	b = appendJSONString(b, t.Value)
	if t.Kind == rdf.Literal && t.Lang != "" {
		b = append(b, `,"xml:lang":`...)
		b = appendJSONString(b, t.Lang)
	} else if t.Kind == rdf.Literal && t.Datatype != "" {
		b = append(b, `,"datatype":`...)
		b = appendJSONString(b, t.Datatype)
	}
	return append(b, '}')
}

// jsonSafe marks the ASCII bytes that appendJSONString copies verbatim:
// everything printable except the quote, the backslash, and the HTML
// metacharacters <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. The bytes equal
// encoding/json's Marshal of s: <, > and & as \u00XX, the \b \f \n \r \t
// shorthands, other C0 controls as \u00XX, U+2028 and U+2029 escaped, and
// each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
