package optimizer

import (
	"strings"
	"testing"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// paperStats reproduces Figure 6(b): top-k constants with counts IBM=7,
// industry=6, Google=5, Software=2; 5 triples per subject on average,
// 1 per object, 26 triples total. Constants not listed are unknown.
type paperStats struct{}

var paperCounts = map[string]float64{
	"IBM": 7, "industry": 6, "Google": 5, "Software": 2,
}

func (paperStats) TotalTriples() float64  { return 26 }
func (paperStats) AvgPerSubject() float64 { return 5 }
func (paperStats) AvgPerObject() float64  { return 1 }

func lookupPaper(t rdf.Term) (float64, bool) {
	n, ok := paperCounts[t.Value]
	return n, ok
}
func (paperStats) SubjectCount(t rdf.Term) (float64, bool) { return lookupPaper(t) }
func (paperStats) ObjectCount(t rdf.Term) (float64, bool)  { return lookupPaper(t) }

const fig6Query = `
SELECT ?x ?y ?z WHERE {
  ?x <home> "Palo Alto" .
  { ?x <founder> ?y } UNION { ?x <member> ?y }
  { ?y <industry> "Software" .
    ?z <developer> ?y .
    ?y <revenue> ?n .
    OPTIONAL { ?y <employees> ?m } }
}`

func parseFig6(t *testing.T) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(fig6Query)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestTMCExamples(t *testing.T) {
	// §3.1: TMC(t4, aco) = 2, TMC(t4, sc) = 26, TMC(t4, acs) = 5.
	q := parseFig6(t)
	t4 := q.Where.AllTriples()[3]
	if got := TMC(t4, ACO, paperStats{}); got != 2 {
		t.Errorf("TMC(t4,aco) = %v, want 2", got)
	}
	if got := TMC(t4, SC, paperStats{}); got != 26 {
		t.Errorf("TMC(t4,sc) = %v, want 26", got)
	}
	if got := TMC(t4, ACS, paperStats{}); got != 5 {
		t.Errorf("TMC(t4,acs) = %v, want 5", got)
	}
}

func TestProducedRequired(t *testing.T) {
	q := parseFig6(t)
	ts := q.Where.AllTriples()
	t4, t5 := ts[3], ts[4]
	// P(t4, aco) = {y}: the object is the constant Software.
	prod := Produced(t4, ACO)
	if len(prod) != 1 || !prod["y"] {
		t.Errorf("Produced(t4,aco) = %v, want {y}", prod)
	}
	// R(t5, aco) = {y}.
	req := Required(t5, ACO)
	if len(req) != 1 || !req["y"] {
		t.Errorf("Required(t5,aco) = %v, want {y}", req)
	}
	if len(Required(t4, ACO)) != 0 {
		t.Error("Required(t4,aco) must be empty (constant object)")
	}
}

func TestDataFlowGraphEdges(t *testing.T) {
	q := parseFig6(t)
	g := BuildDataFlow(q, paperStats{})
	ts := q.Where.AllTriples()
	find := func(tp *sparql.TriplePattern, m Method) *Node {
		for _, n := range g.Nodes {
			if n.Triple == tp && n.Method == m {
				return n
			}
		}
		t.Fatalf("node (t%d,%s) missing", tp.ID, m)
		return nil
	}
	hasEdge := func(from, to *Node) bool {
		for _, e := range g.Edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	hasRootEdge := func(to *Node) bool {
		for _, e := range g.Edges {
			if e.From == nil && e.To == to {
				return true
			}
		}
		return false
	}
	t2aco := find(ts[1], ACO)
	t3aco := find(ts[2], ACO)
	t4aco := find(ts[3], ACO)
	t1acs := find(ts[0], ACS)
	if !hasRootEdge(t4aco) {
		t.Error("root -> (t4,aco) must exist (§3.1.1)")
	}
	if !hasEdge(t4aco, t2aco) {
		t.Error("(t4,aco) -> (t2,aco) must exist")
	}
	if !hasEdge(t2aco, t1acs) {
		t.Error("(t2,aco) -> (t1,acs) must exist")
	}
	// OR-connected triples never exchange bindings.
	if hasEdge(t2aco, t3aco) || hasEdge(t3aco, t2aco) {
		t.Error("edges between OR-connected t2,t3 are forbidden")
	}
	// No flow out of the OPTIONAL into required triples.
	t7acs := find(ts[6], ACS)
	t6acs := find(ts[5], ACS)
	if hasEdge(t7acs, t6acs) {
		t.Error("flow out of OPTIONAL (t7 -> t6) is forbidden")
	}
	if !hasEdge(t4aco, t7acs) {
		t.Error("flow into OPTIONAL (t4 -> t7) is allowed")
	}
}

func TestOptimalFlowMatchesFig8(t *testing.T) {
	q := parseFig6(t)
	g := BuildDataFlow(q, paperStats{})
	flow, err := g.OptimalFlowTree()
	if err != nil {
		t.Fatal(err)
	}
	ts := q.Where.AllTriples()
	if len(flow.Order) != 7 {
		t.Fatalf("flow must cover all 7 triples, got %d: %s", len(flow.Order), flow)
	}
	// The blue nodes of Figure 8.
	want := map[int]Method{1: ACS, 2: ACO, 3: ACO, 4: ACO, 5: ACO, 6: ACS, 7: ACS}
	for _, tp := range ts {
		if got := flow.MethodFor(tp); got != want[tp.ID] {
			t.Errorf("method for t%d = %s, want %s (flow: %s)", tp.ID, got, want[tp.ID], flow)
		}
	}
	// (t4,aco) is the cheapest root edge and evaluates first.
	if flow.Order[0].Triple.ID != 4 {
		t.Errorf("flow must start at t4: %s", flow)
	}
	// t2 follows immediately (the paper's T2).
	if flow.Order[1].Triple.ID != 2 {
		t.Errorf("second step must be t2: %s", flow)
	}
}

func TestExecTreeShapeMatchesFig10(t *testing.T) {
	q := parseFig6(t)
	tree, flow, err := Optimize(q, paperStats{})
	if err != nil {
		t.Fatal(err)
	}
	_ = flow
	if tree.Kind != ExecAnd {
		t.Fatalf("root must be AND: %s", tree)
	}
	// t4 evaluates first; the OPTIONAL unit fuses last.
	first := tree.Children[0]
	if first.Kind != ExecLeaf || first.Triple.ID != 4 {
		t.Errorf("first unit must be leaf t4, got %s", tree)
	}
	last := tree.Children[len(tree.Children)-1]
	if last.Kind != ExecOpt {
		t.Errorf("last unit must be the OPTIONAL, got %s", tree)
	}
	// The OR block stays intact with both arms.
	var orNode *ExecNode
	for _, c := range tree.Children {
		if c.Kind == ExecOr {
			orNode = c
		}
	}
	if orNode == nil || len(orNode.Children) != 2 {
		t.Fatalf("OR block missing or malformed: %s", tree)
	}
	// The OR block fuses right after t4 (it is the cheapest feeder of x).
	if tree.Children[1].Kind != ExecOr {
		t.Errorf("OR should fuse second: %s", tree)
	}
	// All 7 leaves present exactly once.
	if got := len(tree.Leaves()); got != 7 {
		t.Errorf("leaves = %d, want 7: %s", got, tree)
	}
}

func TestNaiveFlowDocumentOrder(t *testing.T) {
	q := parseFig6(t)
	flow := NaiveFlow(q, paperStats{})
	for i, n := range flow.Order {
		if n.Triple.ID != i+1 {
			t.Fatalf("naive flow must follow document order: %s", flow)
		}
	}
	// t1 has a constant object -> aco.
	if flow.Order[0].Method != ACO {
		t.Errorf("naive t1 should use aco, got %s", flow.Order[0].Method)
	}
	// t2 (?x founder ?y): x was bound by t1 -> acs.
	if flow.Order[1].Method != ACS {
		t.Errorf("naive t2 should use acs, got %s", flow.Order[1].Method)
	}
	// The naive flow is more expensive than the optimal one.
	g := BuildDataFlow(q, paperStats{})
	opt, err := g.OptimalFlowTree()
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalCost() >= flow.TotalCost() {
		t.Errorf("optimal cost %f must beat naive cost %f", opt.TotalCost(), flow.TotalCost())
	}
}

func TestStarQueryFlow(t *testing.T) {
	// A pure star: all four triples share ?s; one has a selective
	// constant object. The flow must start there and fan out by
	// subject.
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s <p1> "rare" . ?s <p2> ?a . ?s <p3> ?b . ?s <p4> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	st := fixedStats{total: 1000, avgS: 4, avgO: 2, counts: map[string]float64{"rare": 3}}
	tree, flow, err := Optimize(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Order[0].Triple.ID != 1 || flow.Order[0].Method != ACO {
		t.Fatalf("star flow must start at the selective constant: %s", flow)
	}
	for _, n := range flow.Order[1:] {
		if n.Method != ACS {
			t.Errorf("star members must use acs: %s", flow)
		}
	}
	if tree.Kind != ExecAnd || len(tree.Children) != 4 {
		t.Fatalf("unexpected tree %s", tree)
	}
}

// fixedStats is a configurable Stats for tests.
type fixedStats struct {
	total, avgS, avgO float64
	counts            map[string]float64
}

func (f fixedStats) TotalTriples() float64  { return f.total }
func (f fixedStats) AvgPerSubject() float64 { return f.avgS }
func (f fixedStats) AvgPerObject() float64  { return f.avgO }
func (f fixedStats) SubjectCount(t rdf.Term) (float64, bool) {
	n, ok := f.counts[t.Value]
	return n, ok
}
func (f fixedStats) ObjectCount(t rdf.Term) (float64, bool) {
	n, ok := f.counts[t.Value]
	return n, ok
}

func TestCartesianProductStillCovered(t *testing.T) {
	// Two disconnected triples: the flow must still cover both (via
	// root edges), not error out.
	q, err := sparql.Parse(`SELECT * WHERE { ?a <p> ?b . ?c <q> ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	st := fixedStats{total: 100, avgS: 2, avgO: 2}
	_, flow, err := Optimize(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(flow.Order) != 2 {
		t.Fatalf("flow: %s", flow)
	}
	for _, n := range flow.Order {
		if n.Method != SC {
			t.Errorf("unbound triples must scan: %s", flow)
		}
	}
}

func TestVariablePredicate(t *testing.T) {
	q, err := sparql.Parse(`SELECT ?p WHERE { <s> ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	st := fixedStats{total: 100, avgS: 2, avgO: 2, counts: map[string]float64{"s": 5}}
	_, flow, err := Optimize(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if flow.Order[0].Method != ACS {
		t.Fatalf("constant subject should drive access: %s", flow)
	}
}

func TestExecTreeFiltersFloatToConjunctiveLevel(t *testing.T) {
	q, err := sparql.Parse(`SELECT ?x WHERE { ?x <p> ?v . { ?x <q> ?w . FILTER(?w > 5) } }`)
	if err != nil {
		t.Fatal(err)
	}
	st := fixedStats{total: 100, avgS: 2, avgO: 2}
	tree, _, err := Optimize(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Filters) != 1 {
		t.Fatalf("filter must float to the conjunctive root: %s", tree)
	}
}

func TestFlowString(t *testing.T) {
	q := parseFig6(t)
	_, flow, err := Optimize(q, paperStats{})
	if err != nil {
		t.Fatal(err)
	}
	s := flow.String()
	if !strings.Contains(s, "(t4,aco)") {
		t.Errorf("flow string %q missing (t4,aco)", s)
	}
}

func TestOptionalOnlyPattern(t *testing.T) {
	q, err := sparql.Parse(`SELECT * WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }`)
	if err != nil {
		t.Fatal(err)
	}
	st := fixedStats{total: 50, avgS: 2, avgO: 2}
	tree, _, err := Optimize(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Kind != ExecAnd || len(tree.Children) != 2 {
		t.Fatalf("tree: %s", tree)
	}
	if tree.Children[1].Kind != ExecOpt {
		t.Fatalf("optional must be second: %s", tree)
	}
}

// TestFlowProducerBeforeConsumerProperty: in every greedy flow, a
// node's required variables are produced by its ancestors in the flow
// tree (the guarantee that makes the translation's bound-variable
// lookups valid).
func TestFlowProducerBeforeConsumerProperty(t *testing.T) {
	shapes := []string{
		`SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?c <r> ?d }`,
		`SELECT * WHERE { ?a <p> "k" . ?a <q> ?b . { ?b <r> ?c } UNION { ?b <s> ?c } }`,
		`SELECT * WHERE { ?a <p> ?b OPTIONAL { ?b <q> ?c . ?c <r> ?d } }`,
		`SELECT * WHERE { ?a <p> ?b . ?c <q> ?b . ?c <r> "x" . OPTIONAL { ?a <s> ?e } }`,
	}
	st := fixedStats{total: 500, avgS: 3, avgO: 2, counts: map[string]float64{"k": 2, "x": 4}}
	for _, q := range shapes {
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildDataFlow(parsed, st)
		flow, err := g.OptimalFlowTree()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		triples := parsed.Where.AllTriples()
		if len(flow.Order) != len(triples) {
			t.Fatalf("%s: flow covers %d of %d", q, len(flow.Order), len(triples))
		}
		seen := map[*sparql.TriplePattern]bool{}
		for _, n := range flow.Order {
			if seen[n.Triple] {
				t.Fatalf("%s: triple t%d appears twice in flow", q, n.Triple.ID)
			}
			seen[n.Triple] = true
			req := Required(n.Triple, n.Method)
			if len(req) == 0 {
				continue
			}
			// Walk ancestors and collect produced vars.
			produced := map[string]bool{}
			for p := n.Parent; p != nil; p = p.Parent {
				for v := range Produced(p.Triple, p.Method) {
					produced[v] = true
				}
			}
			for v := range req {
				if !produced[v] {
					t.Errorf("%s: t%d requires ?%s but no flow ancestor produces it", q, n.Triple.ID, v)
				}
			}
		}
	}
}

// TestExecTreeCoversAllTriplesOnce: the execution tree contains every
// triple exactly once for a variety of shapes.
func TestExecTreeCoversAllTriplesOnce(t *testing.T) {
	shapes := []string{
		fig6Query,
		`SELECT * WHERE { { ?a <p> ?b } UNION { ?a <q> ?b } UNION { ?a <r> ?b } }`,
		`SELECT * WHERE { ?a <p> ?b . { ?a <q> ?c OPTIONAL { ?c <r> ?d } } }`,
	}
	for _, q := range shapes {
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := Optimize(parsed, paperStats{})
		if err != nil {
			t.Fatal(err)
		}
		want := parsed.Where.AllTriples()
		got := tree.Leaves()
		if len(got) != len(want) {
			t.Fatalf("%s: %d leaves for %d triples: %s", q, len(got), len(want), tree)
		}
		seen := map[int]bool{}
		for _, l := range got {
			if seen[l.Triple.ID] {
				t.Fatalf("%s: duplicate leaf t%d", q, l.Triple.ID)
			}
			seen[l.Triple.ID] = true
		}
	}
}
