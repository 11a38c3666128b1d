package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/bits"

	"db2rdf"
	"db2rdf/internal/baselines"
	"db2rdf/internal/rdf"
)

// expect is a reference answer: the row count and an order-independent
// hash of the rows. The hash seed is per process, which is enough,
// since expected and actual are both hashed in this process.
type expect struct {
	rows int
	hash uint64
}

var hashSeed = maphash.MakeSeed()

const unboundHash = 0x9e3779b97f4a7c15

func hashTerm(t rdf.Term) uint64 {
	h := maphash.String(hashSeed, t.Value) + uint64(t.Kind)*0xff51afd7ed558ccd
	if t.Datatype != "" {
		h ^= bits.RotateLeft64(maphash.String(hashSeed, t.Datatype), 17)
	}
	if t.Lang != "" {
		h ^= bits.RotateLeft64(maphash.String(hashSeed, t.Lang), 31)
	}
	return h
}

// rowHasher folds the terms of one row in column order; rows are then
// summed, so their order does not matter but their multiplicity does.
type rowHasher uint64

func (r *rowHasher) add(h uint64) { *r = rowHasher((uint64(*r) ^ h) * 0x100000001b3) }

func hashResults(res *db2rdf.Results) expect {
	e := expect{rows: len(res.Rows)}
	for _, row := range res.Rows {
		var rh rowHasher
		for _, b := range row {
			if b.Bound {
				rh.add(hashTerm(b.Term))
			} else {
				rh.add(unboundHash)
			}
		}
		e.hash += uint64(rh)
	}
	return e
}

func hashBaseline(res *baselines.Results) expect {
	e := expect{rows: len(res.Rows)}
	for i, row := range res.Rows {
		var rh rowHasher
		for j, t := range row {
			if res.Bound[i][j] {
				rh.add(hashTerm(t))
			} else {
				rh.add(unboundHash)
			}
		}
		e.hash += uint64(rh)
	}
	return e
}

// reference answers every checked text of the plan from the
// independent triple-table baseline (internal/baselines), which shares
// no storage code with the DB2RDF schema under test. lubm_cold_compile
// checks a seeded 1-in-64 sample: the plan's texts are already in
// seeded order, so every 64th is one.
func reference(p *plan, triples []rdf.Triple) error {
	ref, err := baselines.NewTripleStore(baselines.TripleOptions{IndexSubject: true, IndexObject: true, IndexPredicate: true})
	if err != nil {
		return err
	}
	if err := ref.LoadTriples(triples); err != nil {
		return err
	}
	step := 1
	if p.workload == wlCold {
		step = coldSample
	}
	for i := 0; i < len(p.texts); i += step {
		res, err := ref.Query(p.texts[i].text)
		if err != nil {
			return fmt.Errorf("reference answer for %s: %w", templateNames[p.texts[i].tmpl], err)
		}
		e := hashBaseline(res)
		p.texts[i].exp = &e
	}
	return nil
}

// correct reports whether res is the reference answer of q. A text
// without one only has to succeed.
func (q *queryText) correct(res *db2rdf.Results) bool {
	if q.exp == nil {
		return true
	}
	return len(res.Rows) == q.exp.rows && hashResults(res) == *q.exp
}

// hashBindings is hashResults over the wire: the count of the binding
// objects in a SPARQL JSON body and the sum of the hashes of their
// bytes, found with a scan that only tracks strings and braces.
// Decoding a 16k-row answer with results.ReadJSON costs the client as
// much CPU as the server spent producing it, on the cores they share,
// so http_mixed_rw decodes each text fully once, at warm-up, and holds
// later answers to the bytes of that checked one.
func hashBindings(raw []byte) (expect, bool) {
	var e expect
	marker := []byte(`"bindings":[`)
	i := bytes.Index(raw, marker)
	if i < 0 {
		return e, false
	}
	depth, start, inString := 0, 0, false
	for j := i + len(marker); j < len(raw); j++ {
		c := raw[j]
		if inString {
			if c == '\\' {
				j++
			} else if c == '"' {
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{':
			if depth == 0 {
				start = j
			}
			depth++
		case '}':
			if depth--; depth == 0 {
				e.rows++
				e.hash += maphash.Bytes(hashSeed, raw[start:j+1])
			}
		case ']':
			if depth == 0 {
				return e, true
			}
		}
	}
	return e, false
}

// checkWire decodes raw in full and checks it against the reference
// answer; if it holds, its binding hash becomes what later answers to
// q must match (see hashBindings).
func (q *queryText) checkWire(res *db2rdf.Results, raw []byte) bool {
	wire, ok := hashBindings(raw)
	if !ok || !q.correct(res) || wire.rows != len(res.Rows) {
		return false
	}
	q.wire = &wire
	return true
}

// correctWire reports whether raw carries the checked answer of q.
func (q *queryText) correctWire(raw []byte) bool {
	got, ok := hashBindings(raw)
	return ok && q.wire != nil && got == *q.wire
}
