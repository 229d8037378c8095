package planner

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/sparql"
)

func buildQ2(t *testing.T) (*algebra.GoSN, *algebra.GoJ) {
	t.Helper()
	q, err := sparql.Parse(`
		PREFIX : <http://ex.org/>
		SELECT ?friend ?sitcom WHERE {
			:Jerry :hasFriend ?friend .
			OPTIONAL {
				?friend :actedIn ?sitcom .
				?sitcom :location :NewYorkCity . }}`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := algebra.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	gosn, err := algebra.BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	goj, err := algebra.BuildGoJ(gosn.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return gosn, goj
}

func TestPlanQ2Example2(t *testing.T) {
	// Example-2 of Section 3.2: with tp1 selective (2 triples) and tp2, tp3
	// unselective, orderbu = [?friend, ?sitcom, ?friend] and ordertd =
	// [?friend, ?friend, ?sitcom].
	gosn, goj := buildQ2(t)
	counts := []int64{2, 1000, 500} // tp1, tp2, tp3
	plan := BuildPlan(gosn, goj, counts)
	if plan.Cyclic || plan.Greedy || plan.NeedsBestMatch {
		t.Fatalf("Q2 plan flags wrong: %+v", plan)
	}
	friend := goj.VarIdx["friend"]
	sitcom := goj.VarIdx["sitcom"]
	wantBU := []int{friend, sitcom, friend}
	wantTD := []int{friend, friend, sitcom}
	if !eqInts(plan.OrderBU, wantBU) {
		t.Errorf("OrderBU = %v, want %v", plan.OrderBU, wantBU)
	}
	if !eqInts(plan.OrderTD, wantTD) {
		t.Errorf("OrderTD = %v, want %v", plan.OrderTD, wantTD)
	}
	if len(plan.SlaveOrder) != 1 || plan.SlaveOrder[0] != 1 {
		t.Errorf("SlaveOrder = %v, want [1]", plan.SlaveOrder)
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJvarSelectivity(t *testing.T) {
	_, goj := buildQ2(t)
	counts := []int64{2, 1000, 500}
	// sel(friend) = min(count tp1, count tp2) = 2.
	if got := JvarSelectivity(goj, counts, goj.VarIdx["friend"]); got != 2 {
		t.Errorf("sel(friend) = %d, want 2", got)
	}
	// sel(sitcom) = min(count tp2, count tp3) = 500.
	if got := JvarSelectivity(goj, counts, goj.VarIdx["sitcom"]); got != 500 {
		t.Errorf("sel(sitcom) = %d, want 500", got)
	}
}

func TestRowVarChoosesEarlierJvar(t *testing.T) {
	// Section 5: for (?friend :actedIn ?sitcom), ?friend comes before
	// ?sitcom in orderbu, so ?friend is the row variable (S-O BitMat).
	gosn, goj := buildQ2(t)
	plan := BuildPlan(gosn, goj, []int64{2, 1000, 500})
	tp2 := gosn.Patterns[1]
	row, ok := plan.RowVar(tp2)
	if !ok || row != "friend" {
		t.Errorf("RowVar(tp2) = %q (%v), want friend", row, ok)
	}
}

func TestRowVarJvarBeatsNonJvar(t *testing.T) {
	// (?x :p ?y) with only ?y a join variable: rows must be ?y.
	pats := []sparql.TriplePattern{
		{S: sparql.V("x"), P: sparql.IRINode("p"), O: sparql.V("y")},
		{S: sparql.V("y"), P: sparql.IRINode("q"), O: sparql.IRINode("c")},
	}
	tree := &algebra.LeftJoin{
		L: &algebra.Leaf{Patterns: pats[:1]},
		R: &algebra.Leaf{Patterns: pats[1:]},
	}
	gosn, err := algebra.BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	goj, err := algebra.BuildGoJ(gosn.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	plan := BuildPlan(gosn, goj, []int64{10, 10})
	row, ok := plan.RowVar(pats[0])
	if !ok || row != "y" {
		t.Errorf("RowVar = %q, want y", row)
	}
}

// cyclicQuery builds tp1(?a ?b), tp2(?b ?c), tp3(?c ?a) in one BGP plus an
// optional slave; the GoJ triangle is cyclic.
func cyclicQuery(t *testing.T, slavePats []sparql.TriplePattern) (*algebra.GoSN, *algebra.GoJ) {
	t.Helper()
	mk := func(s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.V(s), P: sparql.IRINode("http://p"), O: sparql.V(o)}
	}
	master := &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("a", "b"), mk("b", "c"), mk("c", "a")}}
	tree := algebra.Tree(master)
	if slavePats != nil {
		tree = &algebra.LeftJoin{L: master, R: &algebra.Leaf{Patterns: slavePats}}
	}
	gosn, err := algebra.BuildGoSN(tree)
	if err != nil {
		t.Fatal(err)
	}
	goj, err := algebra.BuildGoJ(gosn.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return gosn, goj
}

func TestPlanCyclicGreedy(t *testing.T) {
	// Slave with ONE jvar (?a) -> greedy order but no best-match needed
	// (Lemma 3.4).
	slave := []sparql.TriplePattern{
		{S: sparql.V("a"), P: sparql.IRINode("http://q"), O: sparql.V("z")},
	}
	gosn, goj := cyclicQuery(t, slave)
	counts := []int64{5, 50, 500, 100}
	plan := BuildPlan(gosn, goj, counts)
	if !plan.Cyclic || !plan.Greedy {
		t.Fatal("triangle query must be cyclic and greedy")
	}
	if plan.NeedsBestMatch {
		t.Error("single-jvar slave must avoid best-match (Lemma 3.4)")
	}
	if !eqInts(plan.OrderBU, plan.OrderTD) {
		t.Error("greedy plan must use the same order both ways")
	}
	// Greedy: most selective jvar first. sel(a)=min(5,500,100)=5,
	// sel(b)=min(5,50)=5, sel(c)=min(50,500)=50. a and b tie at 5; index
	// order breaks the tie: a, b, c.
	a, b, c := goj.VarIdx["a"], goj.VarIdx["b"], goj.VarIdx["c"]
	want := []int{a, b, c}
	if !eqInts(plan.OrderBU, want) {
		t.Errorf("greedy order = %v, want %v", plan.OrderBU, want)
	}
}

func TestPlanCyclicNeedsBestMatch(t *testing.T) {
	// Slave with TWO jvars (?a and ?b) -> nullification/best-match needed.
	slave := []sparql.TriplePattern{
		{S: sparql.V("a"), P: sparql.IRINode("http://q"), O: sparql.V("b")},
	}
	gosn, goj := cyclicQuery(t, slave)
	plan := BuildPlan(gosn, goj, []int64{5, 50, 500, 100})
	if !plan.NeedsBestMatch {
		t.Error("two-jvar slave in a cyclic query needs best-match")
	}
}

func TestPlanAcyclicNeverNeedsBestMatch(t *testing.T) {
	gosn, goj := buildQ2(t)
	plan := BuildPlan(gosn, goj, []int64{1000, 2, 3})
	if plan.NeedsBestMatch {
		t.Error("acyclic well-designed queries never need best-match (Lemma 3.3)")
	}
}

func TestSlaveOrderMastersFirst(t *testing.T) {
	// Chain of OPTs: P0 OPT (P1 OPT P2): slave order must put SN1 before
	// SN2 regardless of selectivity.
	mk := func(s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.V(s), P: sparql.IRINode("http://p"), O: sparql.V(o)}
	}
	tree := &algebra.LeftJoin{
		L: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("a", "b")}},
		R: &algebra.LeftJoin{
			L: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("b", "c")}},
			R: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("c", "d")}},
		},
	}
	gosn, _ := algebra.BuildGoSN(tree)
	goj, _ := algebra.BuildGoJ(gosn.Patterns)
	// Make the deepest slave look very selective; masters must still sort
	// first.
	plan := BuildPlan(gosn, goj, []int64{100, 100, 1})
	if !eqInts(plan.SlaveOrder, []int{1, 2}) {
		t.Errorf("SlaveOrder = %v, want [1 2]", plan.SlaveOrder)
	}
}

func TestSlaveOrderPeerSelectivity(t *testing.T) {
	// Two independent slaves of one master: the more selective slave
	// first. (P0 OPT P1) OPT P2 with P2 far more selective.
	mk := func(s, o string) sparql.TriplePattern {
		return sparql.TriplePattern{S: sparql.V(s), P: sparql.IRINode("http://p"), O: sparql.V(o)}
	}
	tree := &algebra.LeftJoin{
		L: &algebra.LeftJoin{
			L: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("a", "b")}},
			R: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("a", "c")}},
		},
		R: &algebra.Leaf{Patterns: []sparql.TriplePattern{mk("a", "d")}},
	}
	gosn, _ := algebra.BuildGoSN(tree)
	goj, _ := algebra.BuildGoJ(gosn.Patterns)
	plan := BuildPlan(gosn, goj, []int64{100, 500, 5})
	if !eqInts(plan.SlaveOrder, []int{2, 1}) {
		t.Errorf("SlaveOrder = %v, want [2 1] (selective slave first)", plan.SlaveOrder)
	}
}

func TestPlanSingleTPNoJvars(t *testing.T) {
	tree := &algebra.Leaf{Patterns: []sparql.TriplePattern{
		{S: sparql.V("s"), P: sparql.IRINode("http://p"), O: sparql.V("o")},
	}}
	gosn, _ := algebra.BuildGoSN(tree)
	goj, _ := algebra.BuildGoJ(gosn.Patterns)
	plan := BuildPlan(gosn, goj, []int64{10})
	if len(plan.OrderBU) != 0 || len(plan.OrderTD) != 0 {
		t.Errorf("no jvars: orders must be empty, got %v / %v", plan.OrderBU, plan.OrderTD)
	}
	if plan.NeedsBestMatch {
		t.Error("trivial query needs no best-match")
	}
}

// TestPlanDisconnectedPeersNeedBestMatch pins the peer-class connectivity
// rule: an OPTIONAL whose group join has operands sharing no variable
// (separate supernodes joined by a bidirectional edge) can match one peer
// while another fails, so it takes the best-match path even though each
// supernode is connected on its own and the query is acyclic. The
// connected variant stays on the fast path.
func TestPlanDisconnectedPeersNeedBestMatch(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p1> ?a } { ?b <p3> ?d . OPTIONAL { ?d <p2> ?z } } } }`, true},
		{`SELECT * WHERE { ?m <p0> ?x . OPTIONAL { { ?m <p1> ?a } { ?a <p3> ?d . OPTIONAL { ?d <p2> ?z } } } }`, false},
	}
	for _, c := range cases {
		q, err := sparql.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := algebra.FromQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		gosn, err := algebra.BuildGoSN(tree)
		if err != nil {
			t.Fatal(err)
		}
		goj, err := algebra.BuildGoJ(gosn.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		plan := BuildPlan(gosn, goj, make([]int64, len(gosn.Patterns)))
		if plan.NeedsBestMatch != c.want {
			t.Errorf("NeedsBestMatch = %v, want %v (GoSN %s)\n%s", plan.NeedsBestMatch, c.want, gosn, c.src)
		}
	}
}
