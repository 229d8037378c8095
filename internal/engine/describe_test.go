package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sparql"
)

func TestDescribePlan(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"branch 0", "SN0->SN1", "OPT", "cyclic=false", "greedy=false", "best-match=false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeUnionBranches(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(`
		SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "branch 0") || !strings.Contains(out, "branch 1") {
		t.Errorf("Describe must show both union branches:\n%s", out)
	}
}

func TestDescribeCyclicFlags(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(`
		SELECT * WHERE {
			?a <actedIn> ?b . ?b <location> ?c . ?c <hasFriend> ?a .
			OPTIONAL { ?a <actedIn> ?b . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Describe(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cyclic=true") || !strings.Contains(out, "best-match=true") {
		t.Errorf("cyclic multi-jvar-slave query flags wrong:\n%s", out)
	}
}

func TestStatsAccumulation(t *testing.T) {
	// Union queries accumulate per-branch stats.
	e := engineOver(t, figure32Graph(), Options{})
	res, err := e.ExecuteString(`
		SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InitialTriples != 7 { // 5 actedIn + 2 hasFriend
		t.Errorf("InitialTriples = %d, want 7", res.Stats.InitialTriples)
	}
	if res.Stats.Results != len(res.Rows) || res.Stats.Results != 7 {
		t.Errorf("Results = %d rows = %d", res.Stats.Results, len(res.Rows))
	}
	if res.Stats.Total <= 0 {
		t.Error("Total time must be positive")
	}
}

func TestEngineStreamMatchesExecute(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	q, err := sparql.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	var streamVars []sparql.Var
	if err := e.ExecuteStream(q, func(vars []sparql.Var, row Row) bool {
		streamed++
		streamVars = vars
		if len(row) != len(vars) {
			t.Fatalf("row width %d != vars %d", len(row), len(vars))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if streamed != len(res.Rows) {
		t.Fatalf("streamed %d rows, Execute gave %d", streamed, len(res.Rows))
	}
	if len(streamVars) != len(res.Vars) {
		t.Fatalf("stream vars %v vs %v", streamVars, res.Vars)
	}
}

// TestStreamRowVarsAreHeader pins the contract QueryStreamRows relies on:
// every row callback receives the very vars slice the header callback
// received (same length, same backing array, hence the same names in the
// same order) on each of the engine's emission paths.
func TestStreamRowVarsAreHeader(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	cases := []struct {
		name      string
		q         string
		bestMatch bool
	}{
		{name: "streamed", q: q2},
		// The slave FILTER nullifies the Veep row's OPTIONAL part, so the
		// branch cannot stream: it materializes and replays.
		{name: "best-match-replay", bestMatch: true, q: `SELECT * WHERE {
			?f <actedIn> ?s . OPTIONAL { ?s <location> ?l . FILTER (?l != <D.C.>) } }`},
		{name: "union", q: `SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . } }`},
		{name: "projection", q: `SELECT ?sitcom ?friend WHERE {
			<Jerry> <hasFriend> ?friend . OPTIONAL { ?friend <actedIn> ?sitcom . } }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := sparql.Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			var header []sparql.Var
			var st Stats
			rows := 0
			err = e.ExecuteStreamObserved(context.Background(), q,
				func(vs []sparql.Var) bool {
					header = vs
					return true
				},
				func(vs []sparql.Var, row Row) bool {
					rows++
					if len(header) == 0 || len(vs) != len(header) || &vs[0] != &header[0] {
						t.Fatalf("row %d: vars %v are not the header slice %v", rows, vs, header)
					}
					if len(row) != len(header) {
						t.Fatalf("row %d: width %d, header %d", rows, len(row), len(header))
					}
					return true
				}, &st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rows == 0 {
				t.Fatal("no rows: the path under test never emitted")
			}
			if st.BestMatch != c.bestMatch {
				t.Errorf("BestMatch = %v, want %v: the query no longer takes the intended path", st.BestMatch, c.bestMatch)
			}
		})
	}
}

// TestStreamStatsCountDeliveredRows pins Stats row accounting to the rows
// a caller actually receives, after the solution modifiers: the stream's
// Results and NullResults count the fn calls on every emission path, and
// Execute's count the returned rows.
func TestStreamStatsCountDeliveredRows(t *testing.T) {
	e := engineOver(t, figure32Graph(), Options{})
	cases := []struct {
		name        string
		q           string
		rows, nulls int
	}{
		{name: "streamed", q: q2, rows: 2, nulls: 1},
		{name: "offset-past-end", q: q2 + ` OFFSET 2`, rows: 0, nulls: 0},
		{name: "limit-0", q: q2 + ` LIMIT 0`, rows: 0, nulls: 0},
		{name: "limit-1", q: q2 + ` LIMIT 1`, rows: 1, nulls: 0},
		{name: "best-match-replay", rows: 5, nulls: 1, q: `SELECT * WHERE {
			?f <actedIn> ?s . OPTIONAL { ?s <location> ?l . FILTER (?l != <D.C.>) } }`},
		{name: "union-offset", rows: 6, nulls: 0, q: `SELECT * WHERE {
			{ ?x <actedIn> ?y . } UNION { ?x <hasFriend> ?y . } } OFFSET 1`},
		{name: "projection-nulls", rows: 2, nulls: 1, q: `SELECT ?sitcom WHERE {
			<Jerry> <hasFriend> ?friend . OPTIONAL { ?friend <actedIn> ?sitcom .
			?sitcom <location> <NewYorkCity> . } }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := sparql.Parse(c.q)
			if err != nil {
				t.Fatal(err)
			}
			var st Stats
			rows, nulls := 0, 0
			err = e.ExecuteStreamObserved(context.Background(), q, nil, func(_ []sparql.Var, row Row) bool {
				rows++
				if row.NullCount() > 0 {
					nulls++
				}
				return true
			}, &st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rows != c.rows || nulls != c.nulls {
				t.Fatalf("stream delivered %d rows (%d with NULL), want %d (%d)", rows, nulls, c.rows, c.nulls)
			}
			if st.Results != rows || st.NullResults != nulls {
				t.Errorf("stream Stats: Results=%d NullResults=%d, delivered %d rows (%d with NULL)",
					st.Results, st.NullResults, rows, nulls)
			}
			res, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Results != c.rows || res.Stats.NullResults != c.nulls {
				t.Errorf("Execute Stats: Results=%d NullResults=%d, want %d (%d)",
					res.Stats.Results, res.Stats.NullResults, c.rows, c.nulls)
			}
		})
	}
}
