package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	lbr "repro"
	"repro/internal/rdf"
	"repro/internal/ref"
	"repro/internal/sparql"
)

// refBudget caps every intermediate mapping set of the naive reference
// evaluator. Its bindings-unaware scans cost about budget x |graph| per
// pattern, so a small cap keeps a hopeless attempt to a few hundred
// milliseconds; queries over the cap fall back to the relational baseline.
const refBudget = 64

// refTimeBudget bounds the time a run's checks spend in the reference
// evaluator; once it is spent the remaining queries go to the baseline.
const refTimeBudget = 2 * time.Second

// oracle answers queries independently of the LBR engine: internal/ref
// where it stays within refBudget, the VirtuosoLike relational baseline
// otherwise.
type oracle struct {
	graph *rdf.Graph
	store *lbr.Store
	// overBudget remembers the op classes (lookup templates) ref already
	// failed on; other constants in the same shape skip the doomed attempt.
	overBudget map[string]bool
	refLeft    *atomic.Int64 // ns of refTimeBudget left, shared by all oracles
	refUsed    int
	baseUsed   int
}

// rows returns the canonical sorted row multiset of q's answer.
func (o *oracle) rows(q op) ([]string, error) {
	if !o.overBudget[q.class] && o.refLeft.Load() > 0 {
		pq, err := sparql.Parse(q.text)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		maps, vars, err := ref.New(o.graph).WithBudget(refBudget).Execute(pq)
		o.refLeft.Add(-int64(time.Since(t0)))
		if err == nil {
			o.refUsed++
			out := make([]string, len(maps))
			for i, m := range maps {
				row := make(map[string]rdf.Term, len(m))
				for _, v := range vars {
					if t, ok := m[v]; ok {
						row[string(v)] = t
					}
				}
				out[i] = rowKey(row)
			}
			sort.Strings(out)
			return out, nil
		}
		if !errors.Is(err, ref.ErrBudget) {
			return nil, err
		}
		o.overBudget[q.class] = true
	}
	res, err := o.store.QueryBaseline(q.text, lbr.VirtuosoLike)
	if err != nil {
		return nil, err
	}
	o.baseUsed++
	return resultRows(res), nil
}

// rowKey renders one solution canonically: bound variables in name order,
// each with its term in N-Triples syntax.
func rowKey(row map[string]rdf.Term) string {
	names := make([]string, 0, len(row))
	for v := range row {
		names = append(names, v)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, v := range names {
		sb.WriteString(v + "=" + row[v].String() + ";")
	}
	return sb.String()
}

// resultRows is the canonical sorted row multiset of a library result.
func resultRows(res *lbr.Result) []string {
	out := make([]string, 0, res.Len())
	for _, r := range res.Rows() {
		row := map[string]rdf.Term{}
		for i, v := range res.Vars {
			if !r[i].IsZero() {
				row[v] = r[i]
			}
		}
		out = append(out, rowKey(row))
	}
	sort.Strings(out)
	return out
}

// jsonRows parses a SPARQL 1.1 JSON results document into the canonical
// sorted row multiset.
func jsonRows(body []byte) ([]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Type     string `json:"type"`
				Value    string `json:"value"`
				Datatype string `json:"datatype"`
				Lang     string `json:"xml:lang"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("parse results document: %w", err)
	}
	out := make([]string, 0, len(doc.Results.Bindings))
	for _, b := range doc.Results.Bindings {
		row := make(map[string]rdf.Term, len(b))
		for v, t := range b {
			switch t.Type {
			case "uri":
				row[v] = rdf.NewIRI(t.Value)
			case "bnode":
				row[v] = rdf.Term{Kind: rdf.Blank, Value: t.Value}
			case "literal", "typed-literal":
				row[v] = rdf.Term{Kind: rdf.Literal, Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
			default:
				return nil, fmt.Errorf("unknown term type %q", t.Type)
			}
		}
		out = append(out, rowKey(row))
	}
	sort.Strings(out)
	return out, nil
}

// storeTriples is the store's current triple set as N-Triples lines.
func storeTriples(s *lbr.Store) (map[string]bool, error) {
	var sb strings.Builder
	if err := s.WriteNTriples(&sb); err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, line := range strings.Split(sb.String(), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		t, err := rdf.ParseTripleLine(line)
		if err != nil {
			return nil, err
		}
		out[t.String()] = true
	}
	return out, nil
}

// diffSets reports how many lines are missing from got and how many are
// extra in it.
func diffSets(want, got map[string]bool) (missing, extra int) {
	for k := range want {
		if !got[k] {
			missing++
		}
	}
	for k := range got {
		if !want[k] {
			extra++
		}
	}
	return missing, extra
}

// rewritten are the predicates mixed-rw's updates insert or delete.
var rewritten = []string{rdfType, ub + "advisor", ub + "takesCourse", ub + "telephone"}

// lookupSample is how many lookups of the universe the final check runs on
// both the written store and the store reopened from the WAL.
const lookupSample = 200

// checkFinalState checks mixed-rw's written store against the triple set
// the generator expects after the acknowledged writes, then reopens a fresh
// store from the original data and the WAL alone and checks it the same
// way: every acknowledged write must survive a restart. Each store must
// hold the expected triples, and queries must see them: every rewritten
// predicate, read back as a two-variable SELECT, must give exactly the
// expected triples, which reach the written store's answers through its
// overlay and compacted base. Last, a seeded sample of the lookup universe
// must answer the same on both stores. It returns the number of checks
// made and of those that failed.
func checkFinalState(d *dataset, inst *instance, acked [][]op, seed int64) (checks, failed int, err error) {
	want := expectedTriples(d, acked)
	wantBy := map[string]map[string]bool{}
	for _, p := range rewritten {
		wantBy[p] = map[string]bool{}
	}
	for line := range want {
		// The subject term holds no space, so the predicate is the
		// line's second field.
		p := strings.SplitN(line, " ", 3)[1]
		if m, ok := wantBy[strings.Trim(p, "<>")]; ok {
			m[line] = true
		}
	}
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	checkStore := func(name string, s *lbr.Store) error {
		got, err := storeTriples(s)
		if err != nil {
			return err
		}
		checks++
		if missing, extra := diffSets(want, got); missing+extra > 0 {
			fail("%s: %d triples missing, %d unexpected", name, missing, extra)
		}
		for _, p := range rewritten {
			checks++
			res, err := s.QueryContext(context.Background(), fmt.Sprintf("SELECT ?s ?o WHERE { ?s <%s> ?o }", p))
			if err != nil {
				fail("%s: read back <%s>: %v", name, p, err)
				continue
			}
			si, oi := slices.Index(res.Vars, "s"), slices.Index(res.Vars, "o")
			got := map[string]bool{}
			for _, r := range res.Rows() {
				got[rdf.Triple{S: r[si], P: rdf.NewIRI(p), O: r[oi]}.String()] = true
			}
			missing, extra := diffSets(wantBy[p], got)
			if dups := res.Len() - len(got); missing+extra+dups > 0 {
				fail("%s: read back <%s>: %d triples missing, %d unexpected, %d repeated", name, p, missing, extra, dups)
			}
		}
		return nil
	}
	if err := checkStore("written store", inst.store); err != nil {
		return 0, 0, err
	}
	if err := inst.store.CloseWAL(); err != nil {
		return 0, 0, err
	}
	fresh := lbr.NewStore()
	if _, err := fresh.LoadNTriples(bytes.NewReader(d.nt)); err != nil {
		return 0, 0, err
	}
	if _, err := fresh.OpenWAL(inst.walPath); err != nil {
		return 0, 0, err
	}
	defer fresh.CloseWAL()
	if err := fresh.Build(); err != nil {
		return 0, 0, err
	}
	if err := checkStore("after WAL replay", fresh); err != nil {
		return 0, 0, err
	}
	qs := universe(d, "mixed-rw")
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(qs))[:lookupSample] {
		checks++
		a, errA := inst.store.QueryContext(context.Background(), qs[i].text)
		b, errB := fresh.QueryContext(context.Background(), qs[i].text)
		if errA != nil || errB != nil || !slices.Equal(resultRows(a), resultRows(b)) {
			fail("written store and WAL replay disagree (errors %v, %v):\n%s", errA, errB, qs[i].text)
		}
	}
	return checks, failed, nil
}
