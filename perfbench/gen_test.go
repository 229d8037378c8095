package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	lbr "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

var testData *dataset

func data(t *testing.T) *dataset {
	t.Helper()
	if testData == nil {
		d, err := newDataset()
		if err != nil {
			t.Fatal(err)
		}
		testData = d
	}
	return testData
}

// render prints the first n operations of client c's stream.
func render(d *dataset, workload string, seed int64, c, n int) string {
	s := newStream(d, workload, seed, c)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintf(&sb, "%d %s\n%s\n", o.kind, o.class, o.text)
	}
	return sb.String()
}

func TestStreamIsSeeded(t *testing.T) {
	d := data(t)
	for _, w := range []string{"bulk-optional", "lookup-zipf", "mixed-rw"} {
		a, b := render(d, w, 7, 0, 500), render(d, w, 7, 0, 500)
		if a != b {
			t.Errorf("%s: the same seed gave different op streams", w)
		}
		if render(d, w, 8, 0, 500) == a {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w)
		}
		if render(d, w, 7, 1, 500) == a {
			t.Errorf("%s: clients 0 and 1 got the same op stream", w)
		}
	}
}

// TestDepartmentConstants pins the argument-order trap: GenerateLUBM
// names department d of university u LUBMDepartment(d, u), the reverse of
// the helper's documented (u, d). The lookup constants are read off the
// graph, so they follow the generator.
func TestDepartmentConstants(t *testing.T) {
	d := data(t)
	cfg := datagen.DefaultLUBMConfig(universities)
	if len(d.depts) != cfg.Universities*cfg.DeptsPerUniv {
		t.Fatalf("got %d departments, want %d", len(d.depts), cfg.Universities*cfg.DeptsPerUniv)
	}
	has := map[string]bool{}
	for _, x := range d.depts {
		has[x] = true
	}
	for u := 0; u < cfg.Universities; u++ {
		for dd := 0; dd < cfg.DeptsPerUniv; dd++ {
			if !has[datagen.LUBMDepartment(dd, u)] {
				t.Fatalf("department %d of university %d missing", dd, u)
			}
		}
	}
	if has[datagen.LUBMDepartment(cfg.Universities-1, 0)] {
		t.Fatal("department IRIs follow the documented (u, d) order; the trap is gone and this test should change")
	}
}

func TestConstantsExistAndAnswersAreNonEmpty(t *testing.T) {
	d := data(t)
	typed := func(iri string) bool {
		for _, k := range []string{"Department", "FullProfessor", "AssociateProfessor", "AssistantProfessor"} {
			if d.graph.Contains(rdf.T(iri, rdfType, ub+k)) {
				return true
			}
		}
		return false
	}
	for _, x := range append(append([]string(nil), d.depts...), d.profs...) {
		if !typed(x) {
			t.Fatalf("constant %s is not in the data", x)
		}
	}
	store := lbr.NewStore()
	if _, err := store.LoadNTriples(strings.NewReader(string(d.nt))); err != nil {
		t.Fatal(err)
	}
	if err := store.Build(); err != nil {
		t.Fatal(err)
	}
	total, nonEmpty := map[string]int{}, map[string]int{}
	for _, q := range universe(d, "lookup-zipf") {
		res, err := store.QueryContext(context.Background(), q.text)
		if err != nil {
			t.Fatalf("%s: %v", q.text, err)
		}
		total[q.class]++
		if res.Len() > 0 {
			nonEmpty[q.class]++
		}
	}
	// Every department has full professors, and every professor teaches
	// courses some student takes.
	for _, tpl := range lookupTemplates {
		share := float64(nonEmpty[tpl.name]) / float64(total[tpl.name])
		t.Logf("%s: %d queries, non-empty share %.3f", tpl.name, total[tpl.name], share)
		if share < 0.99 {
			t.Errorf("%s: non-empty share %.3f, want >= 0.99", tpl.name, share)
		}
	}
}

func TestZipfRepeatShare(t *testing.T) {
	d := data(t)
	s := newStream(d, "lookup-zipf", 1, 0)
	seen := map[string]bool{}
	const n = 4096
	rep := 0
	for i := 0; i < n; i++ {
		q := s.next().text
		if seen[q] {
			rep++
		}
		seen[q] = true
	}
	share := float64(rep) / n
	t.Logf("repeat share of the first %d lookups: %.3f (%d distinct)", n, share, len(seen))
	if share < 0.5 || share > 0.95 {
		t.Errorf("repeat share %.3f outside [0.5, 0.95]", share)
	}
}

func TestExpectedTriplesFollowAcknowledgedWrites(t *testing.T) {
	d := data(t)
	s := newStream(d, "mixed-rw", 3, 1)
	ins, del := s.write(0), s.write(1)
	want := expectedTriples(d, [][]op{nil, {ins, del}})
	for _, tr := range ins.ins {
		if !want[tr.String()] {
			t.Errorf("inserted triple %s missing", tr)
		}
	}
	for _, tr := range del.del {
		if want[tr.String()] {
			t.Errorf("deleted triple %s still expected", tr)
		}
		if !d.graph.Contains(tr) {
			t.Errorf("delete target %s is not original data", tr)
		}
	}
	if got := len(want); got != d.graph.Len()+len(ins.ins)-len(del.del) {
		t.Errorf("expected set has %d triples, want %d", got, d.graph.Len()+len(ins.ins)-len(del.del))
	}
}
