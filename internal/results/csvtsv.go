package results

import (
	"io"
	"strings"

	"repro/internal/rdf"
)

// csvWriter emits the SPARQL 1.1 CSV results format
// (https://www.w3.org/TR/sparql11-results-csv-tsv/): a header of bare
// variable names, then one RFC 4180 record per solution with terms in
// their raw lexical form (IRIs unbracketed, literals unquoted, blank
// nodes as _:label) and unbound variables as empty fields. Rows end in
// CRLF. ASK has no CSV form in the spec; Boolean writes a single
// true/false record as a pragmatic extension.
type csvWriter struct {
	rowBuf
	cols int
}

func (c *csvWriter) Begin(vars []string) error {
	c.cols = len(vars)
	b := c.buf[:0]
	for i, v := range vars {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCSVField(b, "", v)
	}
	b = append(b, "\r\n"...)
	return c.flush(b)
}

func (c *csvWriter) Row(row []rdf.Term) error {
	b := c.buf[:0]
	for i := 0; i < c.cols; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: empty field
		}
		// The CSV rendering of a term is its lexical form without any RDF
		// syntax, except blank nodes which keep their _: prefix.
		prefix := ""
		if row[i].Kind == rdf.Blank {
			prefix = "_:"
		}
		b = appendCSVField(b, prefix, row[i].Value)
	}
	b = append(b, "\r\n"...)
	return c.flush(b)
}

func (c *csvWriter) End() error { return nil }

func (c *csvWriter) Boolean(b bool) error {
	s := "false\r\n"
	if b {
		s = "true\r\n"
	}
	_, err := io.WriteString(c.w, s)
	return err
}

// appendCSVField appends prefix+s as one field, quoted per RFC 4180 when s
// contains a comma, quote, or line break, with embedded quotes doubled.
// The prefix itself never needs quoting.
func appendCSVField(b []byte, prefix, s string) []byte {
	if !strings.ContainsAny(s, ",\"\r\n") {
		b = append(b, prefix...)
		return append(b, s...)
	}
	b = append(b, '"')
	b = append(b, prefix...)
	for {
		q := strings.IndexByte(s, '"')
		if q < 0 {
			break
		}
		b = append(b, s[:q+1]...)
		b = append(b, '"')
		s = s[q+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// tsvWriter emits the SPARQL 1.1 TSV results format: a header of
// ?-prefixed variable names, then one LF-terminated record per solution
// with terms in SPARQL (N-Triples) syntax — tabs and newlines inside
// literals are backslash-escaped by that syntax, so a record never spans
// lines. Unbound variables are empty fields. Boolean writes true/false as
// a pragmatic extension (the spec defines TSV for SELECT only).
type tsvWriter struct {
	rowBuf
	cols int
}

func (t *tsvWriter) Begin(vars []string) error {
	t.cols = len(vars)
	b := t.buf[:0]
	for i, v := range vars {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(b, '?')
		b = append(b, v...)
	}
	b = append(b, '\n')
	return t.flush(b)
}

func (t *tsvWriter) Row(row []rdf.Term) error {
	b := t.buf[:0]
	for i := 0; i < t.cols; i++ {
		if i > 0 {
			b = append(b, '\t')
		}
		if i >= len(row) || row[i].IsZero() {
			continue // unbound: empty field
		}
		b = row[i].AppendNT(b)
	}
	b = append(b, '\n')
	return t.flush(b)
}

func (t *tsvWriter) End() error { return nil }

func (t *tsvWriter) Boolean(b bool) error {
	s := "false\n"
	if b {
		s = "true\n"
	}
	_, err := io.WriteString(t.w, s)
	return err
}
