package db2rdf

import (
	"fmt"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// RDFS subclass inference — the paper's other stated future work (§6,
// "we are also planning to support inferencing"). The paper's own
// evaluation hand-expands LUBM queries (§4.1: a query over Student
// becomes a UNION over its subclasses); with Options.Inference the
// engine performs the equivalent rewrite automatically, using the
// property-path closure machinery: every `?x rdf:type C` pattern
// becomes `?x rdf:type/subClassOf* C`, so instances of subclasses
// answer queries over their superclasses.

// rdfsSubClassOf is the predicate the rewrite closes over.
const rdfsSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"

// inferenceRewrite rewrites type patterns for RDFS subclass semantics.
// For each triple pattern (s, rdf:type, C) with a constant or variable
// class position, it produces
//
//	s rdf:type ?fresh . ?fresh <marker> C
//
// where marker is a closure over subClassOf with min 0, reflexive on
// the queried class when it is a constant (sparql.SealClosures) and on
// every declared class when it is a variable, so direct types still
// match whether or not the class sits on a subClassOf edge.
func inferenceRewrite(q *sparql.Query) {
	n := 0
	q.Where.Walk(func(p *sparql.Pattern) {
		var extra []*sparql.TriplePattern
		for _, t := range p.Triples {
			if t.P.IsVar || t.P.Term.Value != rdf.RDFType {
				continue
			}
			// Fresh variable bridging the declared type and the
			// queried class.
			n++
			bridge := sparql.Variable(fmt.Sprintf("_inf%d", n))
			closure := &sparql.TriplePattern{
				ID:     -1, // renumbered below
				S:      bridge,
				P:      sparql.UnsealedClosure,
				O:      t.O,
				Parent: p,
			}
			q.Closures = append(q.Closures, sparql.Closure{
				Triple:  closure,
				Steps:   []sparql.PathStep{{IRI: rdfsSubClassOf}},
				Min:     0,
				Max:     -1,
				Classes: t.O.IsVar,
			})
			t.O = bridge
			extra = append(extra, closure)
		}
		p.Triples = append(p.Triples, extra...)
	})
	// Renumber triples in document order so optimizer ids stay unique.
	id := 0
	q.Where.Walk(func(p *sparql.Pattern) {
		for _, t := range p.Triples {
			id++
			t.ID = id
		}
	})
}
