package results

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdf"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// fixture is the serializer torture row set: IRIs vs plain, typed, and
// language-tagged literals, a blank node, literals needing escaping in
// every format (quotes, newlines, tabs, commas, unicode, XML metachars),
// and OPTIONAL-produced unbound cells, including a row that is mostly
// NULL.
func fixtureVars() []string { return []string{"s", "v", "w"} }

func fixtureRows() [][]rdf.Term {
	return [][]rdf.Term{
		{
			rdf.NewIRI("http://example.org/a"),
			rdf.NewLiteral("plain"),
			rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
		},
		{
			rdf.NewIRI("http://example.org/b?x=1&y=2"),
			rdf.NewLiteral("he said \"hi\",\nthen <left>\ta☃"),
			rdf.NewLangLiteral("bonjour", "fr"),
		},
		{
			rdf.NewBlank("b0"),
			{}, // unbound (OPTIONAL miss)
			rdf.NewLiteral("a,b"),
		},
		{
			rdf.NewIRI("http://example.org/only"),
			{}, // unbound
			{}, // unbound
		},
		trickyRow(),
	}
}

// trickyString holds every byte class the escapers special-case: C0
// controls with and without JSON shorthands, a backslash and both quote
// characters, the JavaScript line terminators U+2028/U+2029, and a lone
// invalid UTF-8 byte.
const trickyString = "c\x01b\bf\fr\r\\q'\"ls\u2028ps\u2029bad\xffend\x7f"

// trickyRow is the escaping torture row: a blank node next to an unbound
// cell, then a datatyped literal whose lexical form is trickyString and
// whose datatype IRI needs escaping too.
func trickyRow() []rdf.Term {
	return []rdf.Term{
		rdf.NewBlank("n1"),
		{}, // unbound
		rdf.NewTypedLiteral(trickyString, "http://example.org/dt?a=<b>&c='d'"),
	}
}

var formats = []Format{JSON, XML, CSV, TSV}

func serialize(t *testing.T, f Format, vars []string, rows [][]rdf.Term) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(f, &buf)
	if err := w.Begin(vars); err != nil {
		t.Fatalf("%v Begin: %v", f, err)
	}
	for _, r := range rows {
		if err := w.Row(r); err != nil {
			t.Fatalf("%v Row: %v", f, err)
		}
	}
	if err := w.End(); err != nil {
		t.Fatalf("%v End: %v", f, err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run go test -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n got: %q\nwant: %q", name, got, want)
	}
}

func TestGoldenSelect(t *testing.T) {
	for _, f := range formats {
		checkGolden(t, "select."+f.String(), serialize(t, f, fixtureVars(), fixtureRows()))
	}
}

func TestGoldenZeroRows(t *testing.T) {
	for _, f := range formats {
		checkGolden(t, "empty."+f.String(), serialize(t, f, []string{"a", "b"}, nil))
	}
}

func TestGoldenAsk(t *testing.T) {
	for _, f := range formats {
		for _, b := range []bool{true, false} {
			var buf bytes.Buffer
			if err := NewWriter(f, &buf).Boolean(b); err != nil {
				t.Fatalf("%v Boolean: %v", f, err)
			}
			name := "ask_false." + f.String()
			if b {
				name = "ask_true." + f.String()
			}
			checkGolden(t, name, buf.Bytes())
		}
	}
}

// TestJSONWellFormed re-parses the streamed JSON and checks the document
// structure: vars in order, unbound variables absent, term typing intact.
func TestJSONWellFormed(t *testing.T) {
	raw := serialize(t, JSON, fixtureVars(), fixtureRows())
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Lang     string `json:"xml:lang"`
				Datatype string `json:"datatype"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("streamed JSON does not parse: %v\n%s", err, raw)
	}
	if got, want := strings.Join(doc.Head.Vars, ","), "s,v,w"; got != want {
		t.Errorf("head.vars = %q, want %q", got, want)
	}
	if len(doc.Results.Bindings) != 5 {
		t.Fatalf("bindings = %d, want 5", len(doc.Results.Bindings))
	}
	b1 := doc.Results.Bindings[1]
	if b1["v"].Value != "he said \"hi\",\nthen <left>\ta☃" {
		t.Errorf("escaped literal round-trip failed: %q", b1["v"].Value)
	}
	if b1["w"].Lang != "fr" {
		t.Errorf("lang tag lost: %+v", b1["w"])
	}
	b2 := doc.Results.Bindings[2]
	if _, present := b2["v"]; present {
		t.Errorf("unbound var serialized in JSON binding: %+v", b2)
	}
	if b2["s"].Type != "bnode" {
		t.Errorf("blank node type = %q, want bnode", b2["s"].Type)
	}
	if doc.Results.Bindings[0]["w"].Datatype != "http://www.w3.org/2001/XMLSchema#integer" {
		t.Errorf("datatype lost: %+v", doc.Results.Bindings[0]["w"])
	}
}

// TestXMLWellFormed checks the streamed XML parses and keeps the escaped
// literal intact.
func TestXMLWellFormed(t *testing.T) {
	raw := serialize(t, XML, fixtureVars(), fixtureRows())
	var doc struct {
		XMLName xml.Name `xml:"sparql"`
		Head    struct {
			Variables []struct {
				Name string `xml:"name,attr"`
			} `xml:"variable"`
		} `xml:"head"`
		Results struct {
			Results []struct {
				Bindings []struct {
					Name    string `xml:"name,attr"`
					URI     string `xml:"uri"`
					BNode   string `xml:"bnode"`
					Literal string `xml:"literal"`
				} `xml:"binding"`
			} `xml:"result"`
		} `xml:"results"`
	}
	if err := xml.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("streamed XML does not parse: %v\n%s", err, raw)
	}
	if len(doc.Head.Variables) != 3 || len(doc.Results.Results) != 5 {
		t.Fatalf("head/results shape wrong: %+v", doc)
	}
	r1 := doc.Results.Results[1]
	if r1.Bindings[1].Literal != "he said \"hi\",\nthen <left>\ta☃" {
		t.Errorf("escaped literal round-trip failed: %q", r1.Bindings[1].Literal)
	}
	if got := len(doc.Results.Results[3].Bindings); got != 1 {
		t.Errorf("mostly-NULL row has %d bindings, want 1", got)
	}
}

// TestCSVQuoting pins the RFC 4180 treatment of embedded commas, quotes,
// and newlines, and that unbound cells are empty fields.
func TestCSVQuoting(t *testing.T) {
	raw := string(serialize(t, CSV, fixtureVars(), fixtureRows()))
	lines := strings.Split(raw, "\r\n")
	if lines[0] != "s,v,w" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(raw, `"he said ""hi"",`) {
		t.Errorf("quote doubling missing:\n%s", raw)
	}
	// The unbound middle cell of row 3 must be an empty field between the
	// blank node and the quoted a,b literal.
	if !strings.Contains(raw, "_:b0,,\"a,b\"") {
		t.Errorf("unbound cell not empty:\n%s", raw)
	}
	if lastRow := "http://example.org/only,,"; !strings.Contains(raw, lastRow) {
		t.Errorf("trailing unbound cells wrong:\n%s", raw)
	}
}

// TestTSVSyntax pins the SPARQL-syntax term rendering and the in-literal
// escaping that keeps one solution per line.
func TestTSVSyntax(t *testing.T) {
	raw := string(serialize(t, TSV, fixtureVars(), fixtureRows()))
	lines := strings.Split(strings.TrimSuffix(raw, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("TSV rows span lines:\n%q", raw)
	}
	if lines[0] != "?s\t?v\t?w" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "<http://example.org/a>") ||
		!strings.Contains(lines[1], `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`) {
		t.Errorf("SPARQL syntax wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], `\n`) || !strings.Contains(lines[2], `\t`) {
		t.Errorf("literal escapes missing: %q", lines[2])
	}
	if !strings.Contains(lines[2], `"bonjour"@fr`) {
		t.Errorf("lang literal wrong: %q", lines[2])
	}
	if lines[3] != "_:b0\t\t\"a,b\"" {
		t.Errorf("unbound cell wrong: %q", lines[3])
	}
}

// TestWriterRowAllocFree pins the serializers' cost model: once a writer
// has grown its row buffer to the widest row, Row allocates nothing in any
// format.
func TestWriterRowAllocFree(t *testing.T) {
	rows := fixtureRows()
	for _, f := range formats {
		w := NewWriter(f, io.Discard)
		if err := w.Begin(fixtureVars()); err != nil {
			t.Fatalf("%v Begin: %v", f, err)
		}
		writeRows := func() {
			for _, r := range rows {
				if err := w.Row(r); err != nil {
					t.Fatalf("%v Row: %v", f, err)
				}
			}
		}
		writeRows() // warm: size the row buffer
		if allocs := testing.AllocsPerRun(100, writeRows); allocs != 0 {
			t.Errorf("%v: %v allocs per %d rows, want 0", f, allocs, len(rows))
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestWriterOneWritePerRow pins that Begin and every Row reach the
// destination as exactly one Write each.
func TestWriterOneWritePerRow(t *testing.T) {
	rows := fixtureRows()
	for _, f := range formats {
		var cw countingWriter
		w := NewWriter(f, &cw)
		if err := w.Begin(fixtureVars()); err != nil {
			t.Fatalf("%v Begin: %v", f, err)
		}
		if cw.writes != 1 {
			t.Errorf("%v Begin: %d writes, want 1", f, cw.writes)
		}
		for i, r := range rows {
			cw.writes = 0
			if err := w.Row(r); err != nil {
				t.Fatalf("%v Row: %v", f, err)
			}
			if cw.writes != 1 {
				t.Errorf("%v row %d: %d writes, want 1", f, i, cw.writes)
			}
		}
	}
}

// BenchmarkWriterRow measures one Row call per op, cycling through the
// fixture rows, into a discarding destination.
func BenchmarkWriterRow(b *testing.B) {
	rows := fixtureRows()
	for _, f := range formats {
		b.Run(f.String(), func(b *testing.B) {
			w := NewWriter(f, io.Discard)
			if err := w.Begin(fixtureVars()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Row(rows[i%len(rows)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   Format
		ok     bool
	}{
		{"", JSON, true},
		{"*/*", JSON, true},
		{"application/sparql-results+json", JSON, true},
		{"application/json", JSON, true},
		{"application/sparql-results+xml", XML, true},
		{"text/xml;charset=utf-8", XML, true},
		{"text/csv", CSV, true},
		{"application/csv", CSV, true},
		{"text/tab-separated-values", TSV, true},
		{"text/*", CSV, true},
		{"application/*", JSON, true},
		// q-values: the higher-quality supported range wins.
		{"text/csv;q=0.5, application/sparql-results+xml", XML, true},
		{"text/csv;q=0.5, text/tab-separated-values;q=0.9", TSV, true},
		// Specific beats wildcard at equal q.
		{"*/*, text/csv", CSV, true},
		// Unsupported-only is the 406 case.
		{"image/png", JSON, false},
		{"text/html;q=0.9, image/*", JSON, false},
		// Unsupported plus a fallback wildcard succeeds.
		{"text/html, */*;q=0.1", JSON, true},
		// q=0 refuses a type.
		{"text/csv;q=0", JSON, false},
		// Uppercase and spacing are tolerated.
		{" Application/JSON ; q=1.0 ", JSON, true},
	}
	for _, c := range cases {
		got, ok := Negotiate(c.accept)
		if got != c.want || ok != c.ok {
			t.Errorf("Negotiate(%q) = %v,%v want %v,%v", c.accept, got, ok, c.want, c.ok)
		}
	}
}
