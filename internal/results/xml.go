package results

import (
	"io"
	"unicode/utf8"

	"repro/internal/rdf"
)

// sparqlResultsNS is the namespace of the SPARQL Query Results XML Format
// (https://www.w3.org/TR/rdf-sparql-XMLres/).
const sparqlResultsNS = "http://www.w3.org/2005/sparql-results#"

const xmlProlog = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
	`<sparql xmlns="` + sparqlResultsNS + `">` + "\n"

// xmlWriter emits SPARQL Query Results XML incrementally: prolog and head
// on Begin, one <result> element per Row, the closing tags on End.
type xmlWriter struct {
	rowBuf
	bindings []string // `<binding name="var">` per column, encoded once in Begin
}

func (x *xmlWriter) Begin(vars []string) error {
	x.bindings = make([]string, len(vars))
	b := append(x.buf[:0], xmlProlog+"<head>"...)
	for i, v := range vars {
		name := string(appendXMLEscaped(nil, v))
		b = append(b, `<variable name="`+name+`"/>`...)
		x.bindings[i] = `<binding name="` + name + `">`
	}
	b = append(b, "</head>\n<results>\n"...)
	return x.flush(b)
}

func (x *xmlWriter) Row(row []rdf.Term) error {
	b := append(x.buf[:0], "<result>"...)
	for i, open := range x.bindings {
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: no <binding> element for the variable
		}
		b = append(b, open...)
		b = appendXMLTerm(b, row[i])
		b = append(b, "</binding>"...)
	}
	b = append(b, "</result>\n"...)
	return x.flush(b)
}

func (x *xmlWriter) End() error {
	_, err := io.WriteString(x.w, "</results>\n</sparql>\n")
	return err
}

func (x *xmlWriter) Boolean(b bool) error {
	body := "<head/>\n<boolean>false</boolean>\n</sparql>\n"
	if b {
		body = "<head/>\n<boolean>true</boolean>\n</sparql>\n"
	}
	_, err := io.WriteString(x.w, xmlProlog+body)
	return err
}

// appendXMLTerm appends one RDF term as a <uri>, <bnode> or <literal>
// element.
func appendXMLTerm(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, "<uri>"...)
		b = appendXMLEscaped(b, t.Value)
		return append(b, "</uri>"...)
	case rdf.Blank:
		b = append(b, "<bnode>"...)
		b = appendXMLEscaped(b, t.Value)
		return append(b, "</bnode>"...)
	default:
		if t.Lang != "" {
			b = append(b, `<literal xml:lang="`...)
			b = appendXMLEscaped(b, t.Lang)
			b = append(b, `">`...)
		} else if t.Datatype != "" {
			b = append(b, `<literal datatype="`...)
			b = appendXMLEscaped(b, t.Datatype)
			b = append(b, `">`...)
		} else {
			b = append(b, "<literal>"...)
		}
		b = appendXMLEscaped(b, t.Value)
		return append(b, "</literal>"...)
	}
}

// appendXMLEscaped appends s escaped for element content or a quoted
// attribute. The bytes equal encoding/xml's EscapeText of s: the five
// metacharacters and tab, newline and carriage return as character
// references, and every invalid UTF-8 byte or code point outside the XML
// Char production as U+FFFD.
func appendXMLEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if isXMLChar(r) && !(r == utf8.RuneError && width == 1) {
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i-width]...)
		b = append(b, esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// isXMLChar reports whether r is in the XML 1.0 Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
