// Package optimizer implements the hybrid two-step SPARQL optimizer of
// Bornea et al. (SIGMOD 2013, §3.1): the Data Flow Builder (DFB), which
// turns the query parse tree plus dataset statistics into a weighted
// data flow graph over (triple pattern, access method) pairs and
// extracts a greedy optimal flow tree (Figure 9); and the Query Plan
// Builder (QPB), whose ExecTree algorithm (Figure 10) weaves the flow
// order back through the query's AND/OR/OPTIONAL structure with late
// fusing into a storage-independent execution tree.
//
// Both steps are deliberately independent of the DB2RDF schema — the
// paper notes the optimizer applies to any SPARQL evaluation system —
// and the translator packages consume the execution tree.
package optimizer

import (
	"fmt"

	"db2rdf/internal/rdf"
	"db2rdf/internal/sparql"
)

// Method is an access method (§3.1 input 3): full scan, access by
// subject, or access by object.
type Method uint8

const (
	// SC is a full data scan.
	SC Method = iota
	// ACS retrieves the triples of a given subject.
	ACS
	// ACO retrieves the triples of a given object.
	ACO
)

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case SC:
		return "sc"
	case ACS:
		return "acs"
	case ACO:
		return "aco"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Stats supplies the dataset statistics of §3.1 (input 2): aggregate
// sizes plus exact counts for constants (the paper's top-k lists).
// The boolean result reports whether a count is known; unknown
// constants fall back to the averages.
type Stats interface {
	TotalTriples() float64
	AvgPerSubject() float64
	AvgPerObject() float64
	SubjectCount(t rdf.Term) (float64, bool)
	ObjectCount(t rdf.Term) (float64, bool)
}

// TMC implements Definition 3.1 (Triple Method Cost): the estimated
// cost of evaluating triple t with access method m under stats s.
func TMC(t *sparql.TriplePattern, m Method, s Stats) float64 {
	switch m {
	case SC:
		return s.TotalTriples()
	case ACS:
		if !t.S.IsVar {
			if n, ok := s.SubjectCount(t.S.Term); ok {
				return n
			}
			// A constant outside the statistics (the paper's top-k
			// lists) gets the pessimistic scan estimate; this is what
			// makes the Fig. 8 flow prefer (t1,acs) over (t1,aco).
			return s.TotalTriples()
		}
		return s.AvgPerSubject()
	case ACO:
		if !t.O.IsVar {
			if n, ok := s.ObjectCount(t.O.Term); ok {
				return n
			}
			return s.TotalTriples()
		}
		return s.AvgPerObject()
	}
	return s.TotalTriples()
}

// Required implements Definition 3.3: the variables that must be bound
// before evaluating t with m.
func Required(t *sparql.TriplePattern, m Method) map[string]bool {
	req := map[string]bool{}
	switch m {
	case ACS:
		if t.S.IsVar {
			req[t.S.Var] = true
		}
	case ACO:
		if t.O.IsVar {
			req[t.O.Var] = true
		}
	}
	return req
}

// Produced implements Definition 3.2: the variables newly bound by the
// lookup (the triple's variables minus the required ones).
func Produced(t *sparql.TriplePattern, m Method) map[string]bool {
	req := Required(t, m)
	prod := map[string]bool{}
	for _, v := range t.Vars() {
		if !req[v] {
			prod[v] = true
		}
	}
	return prod
}
