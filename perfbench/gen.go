package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// universities sizes every workload's data: LUBM-32, 91,966 triples.
const universities = 32

// zipfS is the skew of the lookup constants.
const zipfS = 1.1

// zipfV offsets the ranks (Zipf-Mandelbrot): rank k is drawn with
// probability proportional to (zipfV+k)^-zipfS. The offset keeps the
// hottest constant near 4% of its template's draws, so no single entity,
// which the seed picks, dominates a run.
const zipfV = 10

// writeEvery makes every fifth mixed-rw operation of a client an update
// (20%), the clients' cadences offset from each other. A fixed cadence
// rather than a coin flip per operation: random gaps cluster writes, and
// the share of reads that queue behind one then differs from run to run.
const writeEvery = 5

const (
	ub      = datagen.UB
	rdfType = datagen.RDFType
)

// dataset is the generated LUBM graph plus the entity lists the lookup
// templates draw their constants from. Every list is read off the graph
// itself, so a generated constant always exists in the data.
type dataset struct {
	graph   *rdf.Graph
	nt      []byte   // the graph in N-Triples, the input LoadNTriples parses
	depts   []string // every department IRI, sorted
	profs   []string // every professor IRI (all three ranks), sorted
	courses map[string][]string
	// deletable holds the original triples mixed-rw updates may delete:
	// takesCourse and telephone statements, the predicates the lookups
	// read, in graph order.
	deletable []rdf.Triple
}

func newDataset() (*dataset, error) {
	g := datagen.GenerateLUBM(datagen.DefaultLUBMConfig(universities))
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return nil, fmt.Errorf("serialize dataset: %w", err)
	}
	d := &dataset{graph: g, nt: buf.Bytes(), courses: map[string][]string{}}
	profKinds := map[string]bool{ub + "FullProfessor": true, ub + "AssociateProfessor": true, ub + "AssistantProfessor": true}
	for _, t := range g.Triples() {
		switch t.P.Value {
		case rdfType:
			if t.O.Value == ub+"Department" {
				d.depts = append(d.depts, t.S.Value)
			} else if profKinds[t.O.Value] {
				d.profs = append(d.profs, t.S.Value)
			}
		case ub + "teacherOf":
			d.courses[t.S.Value] = append(d.courses[t.S.Value], t.O.Value)
		case ub + "takesCourse", ub + "telephone":
			d.deletable = append(d.deletable, t)
		}
	}
	sort.Strings(d.depts)
	sort.Strings(d.profs)
	return d, nil
}

const prefixes = "PREFIX ub: <" + ub + ">\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"

// template is one selective lookup shape with a single constant slot.
type template struct {
	name  string
	dept  bool // the constant is a department; otherwise a professor
	shape string
}

// lookupTemplates are the lookup-zipf shapes: the paper's LUBM Q4/Q5 and
// Q6 with the department drawn per operation, and a Q5-like star around
// a drawn professor.
var lookupTemplates = []template{
	{name: "q4-advisees", dept: true, shape: `SELECT * WHERE { ?x ub:worksFor <%s> . ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?y ub:advisor ?x . ?x ub:teacherOf ?z . ?y ub:takesCourse ?z . } }`},
	{name: "q6-contact", dept: true, shape: `SELECT * WHERE { ?x ub:worksFor <%s> . ?x rdf:type ub:FullProfessor .
  OPTIONAL { ?x ub:emailAddress ?y1 . ?x ub:telephone ?y2 . ?x ub:name ?y3 . } }`},
	{name: "q5-students", dept: false, shape: `SELECT * WHERE { <%[1]s> ub:teacherOf ?c . ?st ub:takesCourse ?c .
  OPTIONAL { ?st ub:advisor <%[1]s> . ?st ub:emailAddress ?e . } }`},
}

// bulkQueries are the bulk-optional mix: Appendix E LUBM Q1-Q3 and U1.
func bulkQueries() []op {
	var out []op
	for _, q := range append(bench.LUBMQueries()[:3], bench.UnionQueries()[0]) {
		out = append(out, op{kind: opRead, class: q.ID, text: q.SPARQL})
	}
	return out
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

// op is one client operation: a query, or a SPARQL update with the
// triples it inserts and deletes (for the expected final state).
type op struct {
	kind     opKind
	text     string
	class    string // the query (bulk), the lookup template, or insert/delete
	ins, del []rdf.Triple
}

// universe lists every distinct read a workload can issue: the four bulk
// queries, or every lookup template with every constant of its kind.
func universe(d *dataset, workload string) []op {
	var out []op
	if workload == "bulk-optional" {
		for _, q := range bulkQueries() {
			out = append(out, q)
		}
		return out
	}
	for _, t := range lookupTemplates {
		consts := d.profs
		if t.dept {
			consts = d.depts
		}
		for _, c := range consts {
			out = append(out, lookup(t, c))
		}
	}
	return out
}

func lookup(t template, c string) op {
	return op{kind: opRead, class: t.name, text: prefixes + fmt.Sprintf(t.shape, c)}
}

// stream is one client's deterministic, unending operation sequence.
type stream struct {
	d        *dataset
	workload string
	client   int
	rng      *rand.Rand
	bulk     []op
	pending  []op     // rest of the current bulk round
	depts    []string // Zipf rank order of the lookup constants
	profs    []string
	zd, zp   *rand.Zipf
	issued   int // operations generated so far
	writes   int // updates generated so far
	owned    []rdf.Triple
}

// newStream builds client c's operation stream for a workload. Clients get
// independent sub-seeds so they do not issue the same sequence.
func newStream(d *dataset, workload string, seed int64, c int) *stream {
	s := &stream{d: d, workload: workload, client: c,
		rng: rand.New(rand.NewSource(seed*7919 + int64(c)))}
	if workload == "bulk-optional" {
		s.bulk = bulkQueries()
		return s
	}
	// The Zipf rank order is a seeded permutation of each entity list, so
	// the hot set differs between seeds but not between clients.
	perm := rand.New(rand.NewSource(seed))
	s.depts = permuted(perm, d.depts)
	s.profs = permuted(perm, d.profs)
	s.zd = rand.NewZipf(s.rng, zipfS, zipfV, uint64(len(s.depts)-1))
	s.zp = rand.NewZipf(s.rng, zipfS, zipfV, uint64(len(s.profs)-1))
	if workload == "mixed-rw" {
		// Each client deletes only original triples it owns, so the writes
		// of different clients commute and the final state depends only
		// on which writes each client had acknowledged.
		for i, t := range d.deletable {
			if i%clients == c {
				s.owned = append(s.owned, t)
			}
		}
		perm.Shuffle(len(s.owned), func(i, j int) { s.owned[i], s.owned[j] = s.owned[j], s.owned[i] })
	}
	return s
}

func permuted(rng *rand.Rand, xs []string) []string {
	out := make([]string, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// next returns the stream's next operation.
func (s *stream) next() op {
	s.issued++
	switch {
	case s.workload == "bulk-optional":
		// Round-robin: every round runs each query once, in a seeded order.
		if len(s.pending) == 0 {
			for _, i := range s.rng.Perm(len(s.bulk)) {
				s.pending = append(s.pending, s.bulk[i])
			}
		}
		q := s.pending[0]
		s.pending = s.pending[1:]
		return q
	case s.workload == "mixed-rw" && (s.issued+2*s.client)%writeEvery == 0:
		return s.nextWrite()
	}
	t := lookupTemplates[s.rng.Intn(len(lookupTemplates))]
	if t.dept {
		return lookup(t, s.depts[s.zd.Uint64()])
	}
	return lookup(t, s.profs[s.zp.Uint64()])
}

// nextWrite returns the client's next update.
func (s *stream) nextWrite() op {
	s.writes++
	return s.write(s.writes - 1)
}

// write returns the client's k-th update. Even updates insert a fresh
// graduate student advised by a professor and taking one of that
// professor's courses; odd updates delete two original takesCourse or
// telephone triples the client owns.
func (s *stream) write(k int) op {
	if k%2 == 1 {
		n := len(s.owned)
		del := []rdf.Triple{s.owned[(k-1)%n], s.owned[k%n]}
		return op{kind: opWrite, class: "delete", text: updateText("DELETE", del), del: del}
	}
	prof := s.d.profs[s.rng.Intn(len(s.d.profs))]
	course := s.d.courses[prof][s.rng.Intn(len(s.d.courses[prof]))]
	st := fmt.Sprintf("http://bench.example.org/c%d/GraduateStudent%d", s.client, k/2)
	ins := []rdf.Triple{
		rdf.T(st, rdfType, ub+"GraduateStudent"),
		rdf.T(st, ub+"advisor", prof),
		rdf.T(st, ub+"takesCourse", course),
	}
	return op{kind: opWrite, class: "insert", text: updateText("INSERT", ins), ins: ins}
}

func updateText(verb string, ts []rdf.Triple) string {
	var sb strings.Builder
	sb.WriteString(verb + " DATA {\n")
	for _, t := range ts {
		sb.WriteString("  " + t.String() + " .\n")
	}
	sb.WriteString("}")
	return sb.String()
}

// expectedTriples is the triple set the store must hold after the
// acknowledged writes of each client, in client order, rendered as
// N-Triples lines. Writes of different clients touch disjoint triples, so
// the order between clients does not matter.
func expectedTriples(d *dataset, acked [][]op) map[string]bool {
	want := make(map[string]bool, d.graph.Len())
	for _, t := range d.graph.Triples() {
		want[t.String()] = true
	}
	for _, ws := range acked {
		for _, w := range ws {
			for _, t := range w.del {
				delete(want, t.String())
			}
			for _, t := range w.ins {
				want[t.String()] = true
			}
		}
	}
	return want
}
