package gen

import (
	"testing"

	"db2rdf/internal/rdf"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, mk := range []func() *Dataset{
		func() *Dataset { return Micro(3000) },
		func() *Dataset { return MicroFlowData(2000) },
		func() *Dataset { return LUBM(1) },
		func() *Dataset { return SP2B(3000) },
		func() *Dataset { return DBpedia(3000) },
		func() *Dataset { return PRBench(3000) },
	} {
		a, b := mk(), mk()
		if len(a.Triples) != len(b.Triples) {
			t.Fatalf("%s: nondeterministic triple count %d vs %d", a.Name, len(a.Triples), len(b.Triples))
		}
		for i := range a.Triples {
			if a.Triples[i] != b.Triples[i] {
				t.Fatalf("%s: triple %d differs between runs", a.Name, i)
			}
		}
	}
}

func TestGeneratorsProduceValidRDF(t *testing.T) {
	for _, ds := range []*Dataset{Micro(2000), LUBM(1), SP2B(2000), DBpedia(2000), PRBench(2000)} {
		for i, tr := range ds.Triples {
			if tr.S.IsLiteral() {
				t.Fatalf("%s: triple %d has literal subject", ds.Name, i)
			}
			if !tr.P.IsIRI() {
				t.Fatalf("%s: triple %d has non-IRI predicate", ds.Name, i)
			}
			if tr.S.Value == "" || tr.P.Value == "" {
				t.Fatalf("%s: triple %d has empty term", ds.Name, i)
			}
		}
	}
}

func TestMicroDistribution(t *testing.T) {
	ds := Micro(50000)
	// Count subjects per predicate.
	predsOf := map[string]map[string]bool{}
	for _, tr := range ds.Triples {
		if predsOf[tr.S.Value] == nil {
			predsOf[tr.S.Value] = map[string]bool{}
		}
		predsOf[tr.S.Value][tr.P.Value] = true
	}
	total := len(predsOf)
	withAllSV := 0
	withSV5 := 0
	for _, preds := range predsOf {
		if preds["http://micro/SV1"] && preds["http://micro/SV2"] && preds["http://micro/SV3"] && preds["http://micro/SV4"] {
			withAllSV++
		}
		if preds["http://micro/SV5"] {
			withSV5++
		}
	}
	// Table 1: the full SV1-4 set and the SV5-8 set each cover ~1%.
	frac := float64(withAllSV) / float64(total)
	if frac < 0.003 || frac > 0.03 {
		t.Errorf("SV1-4 coverage = %.4f, want ~0.01", frac)
	}
	frac = float64(withSV5) / float64(total)
	if frac < 0.003 || frac > 0.03 {
		t.Errorf("SV5 coverage = %.4f, want ~0.01", frac)
	}
	// Individual predicates are unselective: SV1 appears on ~74% of
	// subjects (rows 1, 2, 3, 5 of Table 1).
	withSV1 := 0
	for _, preds := range predsOf {
		if preds["http://micro/SV1"] {
			withSV1++
		}
	}
	frac = float64(withSV1) / float64(total)
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("SV1 coverage = %.4f, want ~0.74", frac)
	}
}

func TestMicroQueriesMatchTable2(t *testing.T) {
	qs := MicroQueries()
	if len(qs) != 10 {
		t.Fatalf("want 10 queries, got %d", len(qs))
	}
	if qs[0].Name != "Q1" || qs[9].Name != "Q10" {
		t.Fatalf("query names wrong: %v, %v", qs[0].Name, qs[9].Name)
	}
}

func TestLUBMShape(t *testing.T) {
	ds := LUBM(2)
	types := map[string]int{}
	preds := map[string]bool{}
	for _, tr := range ds.Triples {
		preds[tr.P.Value] = true
		if tr.P.Value == rdf.RDFType {
			types[tr.O.Value]++
		}
	}
	for _, want := range []string{"University", "Department", "FullProfessor", "UndergraduateStudent", "GraduateStudent", "Course", "GraduateCourse", "Publication"} {
		if types[ub+want] == 0 {
			t.Errorf("no instances of %s", want)
		}
	}
	// The benchmark's 18-ish predicate vocabulary (17 + rdf:type here).
	if len(preds) < 15 || len(preds) > 20 {
		t.Errorf("LUBM predicate count = %d", len(preds))
	}
	if len(LUBMQueries()) != 12 {
		t.Errorf("want 12 LUBM queries")
	}
}

func TestSP2BShape(t *testing.T) {
	ds := SP2B(10000)
	if len(ds.Triples) < 6000 || len(ds.Triples) > 14000 {
		t.Fatalf("target badly missed: %d for 10000", len(ds.Triples))
	}
	// Paul Erdoes must exist and have coauthored articles.
	erdoesCreator := 0
	years := map[string]bool{}
	for _, tr := range ds.Triples {
		if tr.P.Value == dcNS+"creator" && tr.O.Value == dblpNS+"persons/Paul_Erdoes" {
			erdoesCreator++
		}
		if tr.P.Value == dctNS+"issued" {
			years[tr.O.Value] = true
		}
	}
	if erdoesCreator == 0 {
		t.Error("Paul Erdoes authored nothing; SQ8/SQ12a would be empty")
	}
	if len(years) < 10 {
		t.Errorf("only %d publication years; growth model broken", len(years))
	}
	if len(SP2BQueries()) != 17 {
		t.Errorf("want 17 SP2B queries")
	}
}

func TestDBpediaPowerLaw(t *testing.T) {
	ds := DBpedia(20000)
	out := map[string]int{}
	in := map[string]int{}
	for _, tr := range ds.Triples {
		out[tr.S.Value]++
		if tr.O.Kind == rdf.IRI {
			in[tr.O.Value]++
		}
	}
	// Power-law in-degree: the most popular object should absorb far
	// more than the mean.
	maxIn, totalIn := 0, 0
	for _, n := range in {
		totalIn += n
		if n > maxIn {
			maxIn = n
		}
	}
	meanIn := float64(totalIn) / float64(len(in))
	if float64(maxIn) < 20*meanIn {
		t.Errorf("in-degree not heavy-tailed: max %d vs mean %.1f", maxIn, meanIn)
	}
	if len(DBpediaQueries()) != 20 {
		t.Errorf("want 20 DBpedia queries")
	}
}

func TestPRBenchShape(t *testing.T) {
	ds := PRBench(10000)
	classes := map[string]int{}
	for _, tr := range ds.Triples {
		if tr.P.Value == rdf.RDFType {
			classes[tr.O.Value]++
		}
	}
	for _, want := range []string{"Bug", "Requirement", "TestCase", "ChangeSet", "Build", "Person", "Project"} {
		if classes[pr+want] == 0 {
			t.Errorf("no instances of %s", want)
		}
	}
	qs := PRBenchQueries()
	if len(qs) != 29 {
		t.Fatalf("want 29 PRBench queries, got %d", len(qs))
	}
	// PQ26 is the 100-arm union.
	for _, q := range qs {
		if q.Name == "PQ26" {
			unions := 0
			for i := 0; i+5 < len(q.SPARQL); i++ {
				if q.SPARQL[i:i+5] == "UNION" {
					unions++
				}
			}
			if unions != 99 {
				t.Errorf("PQ26 has %d UNIONs, want 99", unions)
			}
		}
	}
}

func TestMicroTargetsTripleCount(t *testing.T) {
	for _, target := range []int{5000, 20000} {
		ds := Micro(target)
		got := len(ds.Triples)
		if got < target*8/10 || got > target*12/10 {
			t.Errorf("Micro(%d) produced %d triples", target, got)
		}
	}
}
