package db2rdf_test

// Conformance test for the Prometheus text exposition emitted by
// Metrics.WritePrometheus (ISSUE 10 satellite): the output is parsed
// line by line and checked against the format rules a scraper relies
// on — # HELP/# TYPE precede every family's samples, histogram buckets
// are cumulative and end with le="+Inf" equal to the histogram _count,
// and label values are quoted and escaped. The store is driven with
// query, error, abort, update, and durability traffic first, so every
// family is exercised with nonzero values.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"db2rdf"
	"db2rdf/internal/rdf"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// parsePromText parses Prometheus text exposition format strictly:
// every malformed construct is a test failure. Returns samples plus
// the HELP/TYPE declarations by family name.
func parsePromText(t *testing.T, text string) (samples []promSample, help, typ map[string]string) {
	t.Helper()
	help = make(map[string]string)
	typ = make(map[string]string)
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, doc, ok := strings.Cut(rest, " ")
			if !ok || doc == "" {
				t.Fatalf("line %d: HELP without docstring: %q", ln, line)
			}
			if _, dup := help[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln, name)
			}
			help[name] = doc
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln, kind)
			}
			if _, dup := typ[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln, name)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment %q", ln, line)
		}
		s := parsePromSample(t, ln, line)
		samples = append(samples, s)
	}
	return samples, help, typ
}

// parsePromSample parses `name{k="v",...} value`, validating quoting
// and escape sequences in label values.
func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}, line: ln}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: sample without value: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if !isPromName(s.name) {
		t.Fatalf("line %d: invalid metric name %q", ln, s.name)
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				t.Fatalf("line %d: label without '=': %q", ln, line)
			}
			key := rest[:eq]
			if !isPromName(key) {
				t.Fatalf("line %d: invalid label name %q", ln, key)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				t.Fatalf("line %d: unquoted label value in %q", ln, line)
			}
			val, remain, ok := scanPromQuoted(rest[1:])
			if !ok {
				t.Fatalf("line %d: bad label value escaping in %q", ln, line)
			}
			s.labels[key] = val
			rest = remain
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: malformed label set in %q", ln, line)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", ln, rest, err)
	}
	s.value = v
	return s
}

// scanPromQuoted consumes a label value after its opening quote,
// returning the unescaped value and the remainder after the closing
// quote. Only \\, \" and \n escapes are legal.
func scanPromQuoted(in string) (val, rest string, ok bool) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch in[i] {
		case '\\':
			if i+1 >= len(in) {
				return "", "", false
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", false
			}
		case '"':
			return b.String(), in[i+1:], true
		case '\n':
			return "", "", false
		default:
			b.WriteByte(in[i])
		}
	}
	return "", "", false
}

func isPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// baseFamily strips histogram sample suffixes to the declared family.
func baseFamily(name string, typ map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name {
			if _, ok := typ[base]; ok {
				return base
			}
		}
	}
	return name
}

func TestPrometheusExpositionConformance(t *testing.T) {
	s, err := db2rdf.Open(db2rdf.Options{K: 4, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drive every metric family: loads, queries, rows, a parse error,
	// governance aborts (deadline + canceled), updates with deletes.
	var triples []rdf.Triple
	for i := 0; i < 50; i++ {
		triples = append(triples, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://conf/s%d", i)),
			rdf.NewIRI("http://conf/p"),
			rdf.NewLiteral(fmt.Sprintf("v%d", i))))
	}
	// A second value makes http://conf/p multi-valued, which moves the
	// plan epoch past its initial value.
	triples = append(triples, rdf.NewTriple(
		rdf.NewIRI("http://conf/s1"), rdf.NewIRI("http://conf/p"), rdf.NewLiteral("w1")))
	if err := s.LoadTriples(triples); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Query(`SELECT ?s WHERE { ?s <http://conf/p> ?o }`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query(`SELECT WHERE`); err == nil {
		t.Fatal("parse error expected")
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	if _, err := s.QueryContext(expired, `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("deadline abort expected")
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.QueryContext(canceled, `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("cancel abort expected")
	}
	if _, err := s.Update(`DELETE DATA { <http://conf/s0> <http://conf/p> "v0" }`); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples, helpDecl, typDecl := parsePromText(t, text)
	if len(samples) == 0 {
		t.Fatal("no samples emitted")
	}

	// Every sample's family must have HELP and TYPE declared before any
	// of its samples; families once closed must not reopen (samples of
	// one family are contiguous).
	seenFamily := map[string]bool{}
	var lastFamily string
	for _, sm := range samples {
		fam := baseFamily(sm.name, typDecl)
		if _, ok := typDecl[fam]; !ok {
			t.Errorf("line %d: sample %s has no # TYPE declaration", sm.line, sm.name)
			continue
		}
		if _, ok := helpDecl[fam]; !ok {
			t.Errorf("line %d: sample %s has no # HELP declaration", sm.line, sm.name)
		}
		if fam != lastFamily {
			if seenFamily[fam] {
				t.Errorf("line %d: family %s reopened after other samples", sm.line, fam)
			}
			seenFamily[fam] = true
			lastFamily = fam
		}
		if typDecl[fam] == "counter" && sm.value < 0 {
			t.Errorf("line %d: counter %s is negative: %g", sm.line, sm.name, sm.value)
		}
	}
	// Declared families must all have at least one sample.
	for fam := range typDecl {
		if !seenFamily[fam] {
			t.Errorf("family %s declared but has no samples", fam)
		}
	}

	// Histogram invariants: cumulative monotone buckets, a final
	// le="+Inf" bucket, and _count equal to the +Inf bucket.
	for fam, kind := range typDecl {
		if kind != "histogram" {
			continue
		}
		var buckets []promSample
		var count, inf float64
		var haveCount, haveInf bool
		for _, sm := range samples {
			switch sm.name {
			case fam + "_bucket":
				buckets = append(buckets, sm)
				if sm.labels["le"] == "+Inf" {
					inf, haveInf = sm.value, true
				}
			case fam + "_count":
				count, haveCount = sm.value, true
			}
		}
		if len(buckets) == 0 {
			t.Errorf("histogram %s has no buckets", fam)
			continue
		}
		if !haveInf {
			t.Errorf("histogram %s missing le=\"+Inf\" bucket", fam)
		}
		if !haveCount {
			t.Errorf("histogram %s missing _count", fam)
		}
		if haveInf && haveCount && inf != count {
			t.Errorf("histogram %s: le=\"+Inf\" bucket %g != _count %g", fam, inf, count)
		}
		prev := -1.0
		prevLe := ""
		for _, b := range buckets {
			le := b.labels["le"]
			if le == "" {
				t.Errorf("line %d: %s bucket without le label", b.line, fam)
				continue
			}
			if b.value < prev {
				t.Errorf("line %d: %s buckets not cumulative: le=%q %g after le=%q %g",
					b.line, fam, le, b.value, prevLe, prev)
			}
			prev, prevLe = b.value, le
		}
		if prevLe != "+Inf" {
			t.Errorf("histogram %s: last bucket is le=%q, want +Inf", fam, prevLe)
		}
	}

	// Spot-check the traffic actually landed where expected.
	planEpoch := s.Internal().Snapshot().PlanEpoch()
	if planEpoch < 2 {
		t.Errorf("plan epoch %d: the multi-valued load must have moved it", planEpoch)
	}
	if typDecl["db2rdf_plan_epoch"] != "gauge" {
		t.Errorf("db2rdf_plan_epoch type = %q, want gauge", typDecl["db2rdf_plan_epoch"])
	}
	want := map[string]float64{
		"db2rdf_queries_served_total":  8, // 5 ok + parse error + 2 aborts
		"db2rdf_updates_total":         1,
		"db2rdf_deleted_triples_total": 1,
		"db2rdf_plan_epoch":            float64(planEpoch),
	}
	for _, sm := range samples {
		if w, ok := want[sm.name]; ok && len(sm.labels) == 0 {
			if sm.value != w {
				t.Errorf("%s = %g, want %g", sm.name, sm.value, w)
			}
			delete(want, sm.name)
		}
		if sm.name == "db2rdf_query_aborts_total" {
			switch sm.labels["type"] {
			case "deadline", "canceled":
				if sm.value != 1 {
					t.Errorf("aborts{type=%q} = %g, want 1", sm.labels["type"], sm.value)
				}
			}
		}
	}
	for name := range want {
		t.Errorf("expected sample %s not found", name)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	// The escaping helper is exercised through the exposition wire
	// format: a value with every escapable character must round-trip
	// through the strict parser above.
	for _, v := range []string{`plain`, `back\slash`, `"quoted"`, "new\nline", `mix\"` + "\n"} {
		line := fmt.Sprintf("m_total{l=\"%s\"} 1", db2rdf.PromEscapeLabelForTest(v))
		sm := parsePromSample(t, 1, line)
		if got := sm.labels["l"]; got != v {
			t.Errorf("label %q round-tripped to %q", v, got)
		}
	}
}
