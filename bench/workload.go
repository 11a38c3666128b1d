package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
)

const lubmNS = "http://lubm/"

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string { return [...]string{"read", "insert", "delete"}[k] }

// queryText is one distinct read text of a run.
type queryText struct {
	text string
	tmpl int // index into templateNames
	// exp is the reference answer; nil for the texts of
	// lubm_cold_compile outside the 1-in-64 sample, which are checked
	// for errors only.
	exp *expect
	// wire is the same answer as bytes on the wire (http_mixed_rw).
	wire *expect
}

// writeBatch is one INSERT DATA of 20 fresh triples (4 entities of 5
// properties) and the DELETE DATA that takes it back.
type writeBatch struct {
	id        string
	insert    string
	delete    string
	userBytes int64 // N-Triples bytes of the 20 triples
}

const batchTriples = 20

// op is one operation of a client's pre-built sequence.
type op struct {
	kind  opKind
	q     int32 // reads: index into plan.texts
	batch int32 // writes: index into plan.batches
}

// plan is everything --seed decides: the distinct texts, the write
// bodies and each client's operation sequence. Read-only sequences are
// cyclic (a client wraps around until the clock stops); a sequence
// with writes is linear, because a batch can be inserted once.
type plan struct {
	workload string
	texts    []queryText
	batches  []writeBatch
	seqs     [][]op
	cyclic   bool
	// cursor is where each client's next pass starts: a traced pass
	// carries on where the untraced pass before it stopped, so neither
	// plan-cache state nor inserted batches repeat.
	cursor []int
}

// lubmPoint lists the selective LUBM templates. Each is the text
// gen.LUBMQueries ships with its hard-coded constant swapped for a
// seeded one drawn from the entities of the named class.
//
// The four lookups (one or two patterns, ~60us) are asked twice as
// often as the four joins (130-400us). With even shares the median
// read would fall on the gap between the two groups and jump from one
// to the other between runs; this way it sits inside the lookups'
// latencies and the 95th percentile inside LQ8's.
var lubmPoint = []struct {
	name, constant, pool string
	weight               int
}{
	{"LQ1", "Course5.D0.U0", "course", 2},
	{"LQ3", "AssistantProfessor0.D0.U0", "professor", 2},
	{"LQ4", "Dept0.U0", "dept", 1},
	{"LQ5", "Dept0.U0", "dept", 2},
	{"LQ7", "AssociateProfessor0.D0.U0", "professor", 1},
	{"LQ8", "University0", "university", 1},
	{"LQ10", "Course5.D0.U0", "course", 2},
	{"LQ13", "University0", "university", 1},
}

var lubmWide = []string{"LQ6", "LQ14"}

// sp2bScan is SP2Bench without the sub-millisecond lookups (SQ1, SQ10,
// SQ12*) and without SQ4, whose quadratic result takes over 30 s at
// this scale and would be the whole run.
var sp2bScan = []string{"SQ2", "SQ3a", "SQ3b", "SQ3c", "SQ5a", "SQ5b", "SQ6", "SQ7", "SQ8", "SQ9", "SQ11"}

const (
	warmConstants = 24   // per template: 8 x 24 = 192 texts, inside the 256-entry plan cache
	coldTexts     = 8192 // 32 x the plan cache, visited cyclically, so LRU never hits
	coldSample    = 64   // 1 in 64 cold texts has a reference answer
)

func templateID(name string) int {
	for i, n := range templateNames {
		if n == name {
			return i
		}
	}
	panic("bench: unknown template " + name)
}

func queryByName(qs []gen.Query, name string) string {
	for _, q := range qs {
		if q.Name == name {
			return q.SPARQL
		}
	}
	panic("bench: gen has no query " + name)
}

// lubmPools lists, in dataset order, the IRIs each template constant
// is drawn from.
func lubmPools(triples []rdf.Triple) map[string][]string {
	class := map[string]string{
		lubmNS + "GraduateCourse":     "course",
		lubmNS + "FullProfessor":      "professor",
		lubmNS + "AssociateProfessor": "professor",
		lubmNS + "AssistantProfessor": "professor",
		lubmNS + "Department":         "dept",
		lubmNS + "University":         "university",
	}
	pools := map[string][]string{}
	for _, t := range triples {
		if t.P.Value != rdf.RDFType {
			continue
		}
		if p, ok := class[t.O.Value]; ok {
			pools[p] = append(pools[p], t.S.Value)
		}
	}
	return pools
}

// lubmTexts draws up to perTemplate[i] distinct seeded constants for
// template i and returns the instantiated texts, template-major.
func lubmTexts(r *rand.Rand, pools map[string][]string, perTemplate []int) ([]queryText, error) {
	queries := gen.LUBMQueries()
	var out []queryText
	for i, tp := range lubmPoint {
		base := queryByName(queries, tp.name)
		old := "<" + lubmNS + tp.constant + ">"
		if !strings.Contains(base, old) {
			return nil, fmt.Errorf("gen %s no longer contains %s", tp.name, old)
		}
		pool := pools[tp.pool]
		perm := r.Perm(len(pool))
		n := perTemplate[i]
		if n > len(pool) {
			n = len(pool)
		}
		for _, j := range perm[:n] {
			out = append(out, queryText{
				text: strings.ReplaceAll(base, old, "<"+pool[j]+">"),
				tmpl: templateID(tp.name),
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset has no constants for the LUBM templates")
	}
	return out, nil
}

// warmQuotas gives every template warmConstants texts.
func warmQuotas() []int {
	quotas := make([]int, len(lubmPoint))
	for i := range quotas {
		quotas[i] = warmConstants
	}
	return quotas
}

// coldQuotas splits total texts over the templates: a template whose
// pool is smaller than an even share (100 universities, ~500
// departments) gives all it has and the others share the rest.
func coldQuotas(pools map[string][]string, total int) []int {
	order := make([]int, len(lubmPoint))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(pools[lubmPoint[order[a]].pool]) < len(pools[lubmPoint[order[b]].pool])
	})
	quotas := make([]int, len(lubmPoint))
	for k, i := range order {
		share := total / (len(order) - k)
		if n := len(pools[lubmPoint[i].pool]); n < share {
			share = n
		}
		quotas[i] = share
		total -= share
	}
	return quotas
}

// shuffledCycle returns reps copies of deck, each copy in its own
// seeded order, so every text keeps its share of any long prefix.
func shuffledCycle(r *rand.Rand, deck []int32, reps int) []op {
	seq := make([]op, 0, len(deck)*reps)
	for c := 0; c < reps; c++ {
		for _, i := range r.Perm(len(deck)) {
			seq = append(seq, op{q: deck[i]})
		}
	}
	return seq
}

// evenDeck holds each of n texts once.
func evenDeck(n int) []int32 {
	deck := make([]int32, n)
	for i := range deck {
		deck[i] = int32(i)
	}
	return deck
}

// pointDeck holds each point text as often as its template's weight.
func pointDeck(texts []queryText) []int32 {
	weight := map[int]int{}
	for _, tp := range lubmPoint {
		weight[templateID(tp.name)] = tp.weight
	}
	var deck []int32
	for i, q := range texts {
		for w := 0; w < weight[q.tmpl]; w++ {
			deck = append(deck, int32(i))
		}
	}
	return deck
}

// buildPlan derives the run's inputs from the seed. maxOps bounds the
// length of a linear (write-carrying) sequence.
func buildPlan(workload string, ds *dataset, seed int64, clients, maxOps int) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload, cyclic: true}
	var err error
	switch workload {
	case wlWarm:
		if p.texts, err = lubmTexts(r, lubmPools(ds.triples), warmQuotas()); err != nil {
			return nil, err
		}
		deck := pointDeck(p.texts)
		for c := 0; c < clients; c++ {
			p.seqs = append(p.seqs, shuffledCycle(r, deck, 16))
		}
	case wlCold:
		pools := lubmPools(ds.triples)
		if p.texts, err = lubmTexts(r, pools, coldQuotas(pools, coldTexts)); err != nil {
			return nil, err
		}
		// One seeded permutation; the clients walk it from evenly
		// spaced offsets, so a text comes round again only after every
		// other text has been compiled in between.
		cycle := shuffledCycle(r, evenDeck(len(p.texts)), 1)
		for c := 0; c < clients; c++ {
			off := c * len(cycle) / clients
			p.seqs = append(p.seqs, append(append([]op(nil), cycle[off:]...), cycle[:off]...))
		}
	case wlSP2B:
		queries := gen.SP2BQueries()
		for _, name := range sp2bScan {
			p.texts = append(p.texts, queryText{text: queryByName(queries, name), tmpl: templateID(name)})
		}
		for c := 0; c < clients; c++ {
			p.seqs = append(p.seqs, shuffledCycle(r, evenDeck(len(p.texts)), 16))
		}
	case wlHTTP:
		if p.texts, err = lubmTexts(r, lubmPools(ds.triples), warmQuotas()); err != nil {
			return nil, err
		}
		points := pointDeck(p.texts)
		wide := int32(len(p.texts))
		queries := gen.LUBMQueries()
		for _, name := range lubmWide {
			p.texts = append(p.texts, queryText{text: queryByName(queries, name), tmpl: templateID(name)})
		}
		p.cyclic = false
		for c := 0; c < clients; c++ {
			p.seqs = append(p.seqs, p.mixedSequence(r, c, points, wide, maxOps))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	p.cursor = make([]int, clients)
	return p, nil
}

// mixedSequence builds one client's 80/10/10 sequence: point reads,
// wide reads, updates. Two of three wide reads are LQ6 and one is
// LQ14, so the 95th percentile of reads falls inside LQ6's latencies
// and not on the gap between the two. Every third update deletes the
// oldest batch this client still has inserted.
func (p *plan) mixedSequence(r *rand.Rand, client int, points []int32, wide int32, n int) []op {
	seq := make([]op, 0, n)
	var live []int32
	writes := 0
	for len(seq) < n {
		switch x := r.Intn(10); {
		case x < 8:
			seq = append(seq, op{q: points[r.Intn(len(points))]})
		case x == 8:
			q := wide // LQ6
			if r.Intn(3) == 0 {
				q = wide + 1 // LQ14
			}
			seq = append(seq, op{q: q})
		default:
			writes++
			if writes%3 == 0 && len(live) > 0 {
				seq = append(seq, op{kind: opDelete, q: -1, batch: live[0]})
				live = live[1:]
				continue
			}
			b := int32(len(p.batches))
			p.batches = append(p.batches, newBatch(fmt.Sprintf("c%d.b%d", client, len(p.batches))))
			live = append(live, b)
			seq = append(seq, op{kind: opInsert, q: -1, batch: b})
		}
	}
	return seq
}

const writeNS = "http://bench/w/"

// newBatch writes the bodies of one batch. Its triples live under
// writeNS, which no read template touches, so reference answers of
// reads hold whatever the writers do.
func newBatch(id string) writeBatch {
	var data strings.Builder
	for s := 0; s < 4; s++ {
		subj := fmt.Sprintf("<%s%s/s%d>", writeNS, id, s)
		fmt.Fprintf(&data, "%s <%sbatch> %q .\n", subj, writeNS, id)
		for pr := 0; pr < 4; pr++ {
			fmt.Fprintf(&data, "%s <%sp%d> \"v%d of %s\" .\n", subj, writeNS, pr, pr, id)
		}
	}
	return writeBatch{
		id:        id,
		insert:    "INSERT DATA {\n" + data.String() + "}",
		delete:    "DELETE DATA {\n" + data.String() + "}",
		userBytes: int64(data.Len()),
	}
}

// batchProbe is the query that must return all 20 triples of a live
// batch and none of a deleted one.
func batchProbe(id string) string {
	return fmt.Sprintf("SELECT ?s ?p ?o WHERE { ?s <%sbatch> %q . ?s ?p ?o }", writeNS, id)
}
