// Package results serializes SPARQL query results in the W3C interchange
// formats — SPARQL 1.1 Query Results JSON, XML, CSV, and TSV — streaming
// row by row so a SELECT over millions of solutions serializes in constant
// memory. Unbound variables produced by OPTIONAL patterns are rendered in
// each format's native way (absent binding in JSON/XML, empty field in
// CSV/TSV), and ASK queries serialize as boolean documents.
//
// Cost model: every Writer encodes a whole row into one reusable byte
// slice and hands it to the destination in exactly one Write per Row (and
// one for Begin). Nothing is buffered beyond the current row, and
// once the slice has grown to the widest row seen, Row allocates nothing.
// Per-variable key and element prefixes are encoded once, in Begin. The
// string escapers produce exactly the bytes of encoding/json's Marshal
// (JSON) and encoding/xml's EscapeText (XML); TSV terms use
// rdf.Term.AppendNT. Batching rows into larger writes is the caller's job:
// wrap the destination in a bufio.Writer.
package results

import (
	"fmt"
	"io"

	"repro/internal/rdf"
)

// Format identifies one of the supported result serializations.
type Format int

const (
	// JSON is SPARQL 1.1 Query Results JSON (application/sparql-results+json).
	JSON Format = iota
	// XML is SPARQL Query Results XML (application/sparql-results+xml).
	XML
	// CSV is the SPARQL 1.1 CSV results format (text/csv): raw lexical
	// values, RFC 4180 quoting, CRLF row terminators.
	CSV
	// TSV is the SPARQL 1.1 TSV results format
	// (text/tab-separated-values): terms in SPARQL/Turtle syntax.
	TSV
)

// String names the format for logs and metrics.
func (f Format) String() string {
	switch f {
	case JSON:
		return "json"
	case XML:
		return "xml"
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ContentType returns the media type a server should set for the format.
func (f Format) ContentType() string {
	switch f {
	case JSON:
		return "application/sparql-results+json"
	case XML:
		return "application/sparql-results+xml"
	case CSV:
		return "text/csv; charset=utf-8"
	case TSV:
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/octet-stream"
}

// Writer streams one result document to an underlying io.Writer.
//
// For a SELECT result the call sequence is Begin (exactly once, with the
// result header in column order), then Row once per solution — each row
// aligned with the Begin vars, zero Terms marking unbound OPTIONAL
// variables — then End. Rows are written as they arrive; nothing is
// buffered beyond the current row, so the consumer controls memory.
//
// For an ASK result, Boolean writes the complete document by itself;
// Begin/Row/End must not be used on the same Writer.
type Writer interface {
	Begin(vars []string) error
	Row(row []rdf.Term) error
	End() error
	Boolean(b bool) error
}

// NewWriter returns a streaming serializer for the format writing to w.
// The Writer does not buffer or close w; wrap w in a bufio.Writer when
// syscall-sized writes matter.
func NewWriter(f Format, w io.Writer) Writer {
	rb := rowBuf{w: w}
	switch f {
	case XML:
		return &xmlWriter{rowBuf: rb}
	case CSV:
		return &csvWriter{rowBuf: rb}
	case TSV:
		return &tsvWriter{rowBuf: rb}
	default:
		return &jsonWriter{rowBuf: rb}
	}
}

// rowBuf is the encoding state every Writer shares: the destination and
// one reusable byte slice. A writer appends a whole header or row into the
// slice and hands it to flush, so each Begin and Row call issues exactly
// one Write and, once the slice has grown to the widest row, allocates
// nothing.
type rowBuf struct {
	w   io.Writer
	buf []byte
}

// flush writes b in one call and keeps it for reuse by the next row.
func (r *rowBuf) flush(b []byte) error {
	r.buf = b
	_, err := r.w.Write(b)
	return err
}
