package results

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"testing"
)

// escapeSeeds are the inputs every escaper special-cases: C0 controls with
// and without JSON shorthands, both quote characters and the backslash,
// the HTML/XML metacharacters, U+2028/U+2029, invalid and truncated UTF-8,
// a genuine U+FFFD, and code points outside the XML Char production.
var escapeSeeds = []string{
	"",
	"plain ascii",
	trickyString,
	"\x00\x01\x1f\x7f",
	"\b\f\n\r\t",
	`back\slash 'single' "double"`,
	"<a href=\"x\">&amp;</a>",
	"\u2028\u2029",
	"\xff\xfe lone bytes",
	"\xe2\x82 truncated",
	"\ufffd genuine replacement char",
	"\ufffe\uffff",
	"snow\u2603man \U0001d11e clef",
	"\xed\xa0\x80 encoded surrogate",
}

// FuzzJSONString checks appendJSONString against encoding/json byte for
// byte.
func FuzzJSONString(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("json.Marshal(%q): %v", s, err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %q, want %q", s, got, want)
		}
	})
}

// FuzzXMLEscape checks appendXMLEscaped against encoding/xml's EscapeText
// byte for byte.
func FuzzXMLEscape(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatalf("xml.EscapeText(%q): %v", s, err)
		}
		if got := appendXMLEscaped(nil, s); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendXMLEscaped(%q) = %q, want %q", s, got, want.Bytes())
		}
	})
}
