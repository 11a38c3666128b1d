package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"db2rdf"
	"db2rdf/internal/gen"
	"db2rdf/internal/rdf"
)

// dataset is the generated input of a run. The generators in
// internal/gen keep their own fixed seeds; --seed decides what is
// asked of the data, not the data.
type dataset struct {
	triples   []rdf.Triple
	userBytes int64 // size as N-Triples, the "user bytes" of the space ratios
	genS      float64
}

func generate(workload string, scale float64) *dataset {
	t0 := time.Now()
	var ds *gen.Dataset
	if workload == wlSP2B {
		ds = gen.SP2B(int(math.Max(2000, 200000*scale)))
	} else {
		ds = gen.LUBM(int(math.Max(1, math.Round(100*scale))))
	}
	return &dataset{triples: ds.Triples, genS: time.Since(t0).Seconds()}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeNTriples serialises the dataset to w and records its size.
func (ds *dataset) writeNTriples(w io.Writer) error {
	cw := &countingWriter{w: w}
	nt := rdf.NewWriter(cw)
	for _, t := range ds.triples {
		if err := nt.Write(t); err != nil {
			return err
		}
	}
	if err := nt.Flush(); err != nil {
		return err
	}
	ds.userBytes = cw.n
	return nil
}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

// openLoaded is one in-process set-up: open, load, warm up, collect.
// The load is the sequential one, so resident bytes and optimizer
// statistics repeat exactly; http_mixed_rw covers the parallel loader,
// which the server uses.
func openLoaded(ds *dataset, p *plan) (st *db2rdf.Store, loadS, setupS float64, err error) {
	t0 := time.Now()
	if st, err = db2rdf.Open(db2rdf.Options{}); err != nil {
		return nil, 0, 0, err
	}
	if err = st.LoadTriples(ds.triples); err != nil {
		return nil, 0, 0, err
	}
	loadS = time.Since(t0).Seconds()
	if p.workload != wlCold { // a cold workload has nothing to warm
		for i := range p.texts {
			if _, err = st.Query(p.texts[i].text); err != nil {
				return nil, 0, 0, fmt.Errorf("warm-up %s: %w", templateNames[p.texts[i].tmpl], err)
			}
		}
	}
	runtime.GC()
	return st, loadS, time.Since(t0).Seconds(), nil
}

// setupInproc sets up `repeats` times and keeps the last store.
func setupInproc(ds *dataset, p *plan, repeats int) (st *db2rdf.Store, loadS, setupS float64, err error) {
	var setups []float64
	for i := 0; i < repeats; i++ {
		st = nil // let the previous store go before loading the next
		var s float64
		if st, loadS, s, err = openLoaded(ds, p); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, s)
	}
	return st, loadS, medianFloat(setups), nil
}

// clientLog is what one closed-loop client measured. lat[i] belongs to
// op first+i of its sequence (modulo the length when cyclic).
type clientLog struct {
	first  int     // position in the sequence of lat[0]
	lat    []int64 // ns per op, in issue order
	done   []int64 // ns from the start of the phase to the op's end
	failed int
	busy   time.Duration // sum of lat
	wall   time.Duration
}

// doOp performs one op and reports its latency and whether the answer
// was right. The clock covers the call alone; checking happens after.
type doOp func(client int, o op) (time.Duration, bool)

// closedLoop runs every client's sequence until the clock stops: a
// client sends its next op only when the previous one has answered.
func closedLoop(p *plan, clients int, d time.Duration, do doOp) []clientLog {
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := p.seqs[c]
			log := &logs[c]
			log.lat = make([]int64, 0, 1<<16)
			log.done = make([]int64, 0, 1<<16)
			first := p.cursor[c]
			log.first = first
			for i := first; time.Now().Before(deadline); i++ {
				if i >= len(seq) && !p.cyclic {
					break
				}
				p.cursor[c] = i + 1
				dt, ok := do(c, seq[i%len(seq)])
				log.lat = append(log.lat, int64(dt))
				log.done = append(log.done, int64(time.Since(start)))
				log.busy += dt
				if !ok {
					log.failed++
				}
			}
			log.wall = time.Since(start)
		}(c)
	}
	wg.Wait()
	return logs
}

// queryOp is the in-process op: Store.QueryContext and the answer check.
func queryOp(st *db2rdf.Store, p *plan) doOp {
	ctx := context.Background()
	return func(_ int, o op) (time.Duration, bool) {
		q := &p.texts[o.q]
		t0 := time.Now()
		res, err := st.QueryContext(ctx, q.text)
		dt := time.Since(t0)
		return dt, err == nil && q.correct(res)
	}
}

// summary folds the client logs into the numbers the metrics need.
type summary struct {
	attempted, failed int
	wallS             float64 // longest client
	reads, writes     []int64 // sorted ns
	byTemplate        map[int][]int64
	overheadUs        float64 // generator time per op outside the timed call
	slices            []slice
}

// slice is one stretch of the measured phase. The end-to-end latency
// and throughput metrics are medians over the slices, so that a burst
// of interference from outside (the sandbox shares its cores) moves
// one slice and not the run's result.
type slice struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50Us   float64 `json:"read_p50_us"`
	P95Us   float64 `json:"read_p95_us"`
	reads   []int64
	ops     int
}

// Slices are as many as maxSlices, but hold minSliceReads reads each
// at least: a 95th percentile wants a few hundred samples, and
// sp2b_scan_join, with a few hundred reads in all, stays in one piece.
const (
	maxSlices     = 20
	minSliceReads = 400
)

func summarise(p *plan, logs []clientLog) *summary {
	s := &summary{byTemplate: map[int][]int64{}}
	var busy, wall time.Duration
	reads := 0
	for c, log := range logs {
		s.attempted += len(log.lat)
		s.failed += log.failed
		busy += log.busy
		wall += log.wall
		s.wallS = math.Max(s.wallS, log.wall.Seconds())
		for i := range log.lat {
			if p.seqs[c][(log.first+i)%len(p.seqs[c])].kind == opRead {
				reads++
			}
		}
	}
	n := max(1, min(reads/minSliceReads, maxSlices))
	s.slices = make([]slice, n)
	for c, log := range logs {
		seq := p.seqs[c]
		for i, ns := range log.lat {
			sl := &s.slices[min(n-1, int(float64(log.done[i])/1e9/s.wallS*float64(n)))]
			sl.ops++
			o := seq[(log.first+i)%len(seq)]
			if o.kind != opRead {
				s.writes = append(s.writes, ns)
				continue
			}
			sl.reads = append(sl.reads, ns)
			s.reads = append(s.reads, ns)
			t := p.texts[o.q].tmpl
			s.byTemplate[t] = append(s.byTemplate[t], ns)
		}
	}
	for i := range s.slices {
		sl := &s.slices[i]
		sortInt64(sl.reads)
		sl.OpsPerS = float64(sl.ops) / (s.wallS / float64(n))
		sl.P50Us = usec(percentile(sl.reads, 50))
		sl.P95Us = usec(percentile(sl.reads, 95))
	}
	sortInt64(s.reads)
	sortInt64(s.writes)
	for _, v := range s.byTemplate {
		sortInt64(v)
	}
	if s.attempted > 0 {
		s.overheadUs = usec(float64(wall-busy)) / float64(s.attempted)
	}
	return s
}

// overSlices is the median over the slices of one of their figures.
func (s *summary) overSlices(f func(*slice) float64) float64 {
	v := make([]float64, len(s.slices))
	for i := range s.slices {
		v[i] = f(&s.slices[i])
	}
	return medianFloat(v)
}

// endToEndMetrics fills the latency and throughput metrics every
// workload shares. Failed operations do not count as throughput.
func (s *summary) endToEndMetrics(m metricSet) {
	good := float64(s.attempted-s.failed) / math.Max(1, float64(s.attempted))
	m.set("ops_per_s", good*s.overSlices(func(sl *slice) float64 { return sl.OpsPerS }))
	m.set("read_p50_us", s.overSlices(func(sl *slice) float64 { return sl.P50Us }))
	m.set("read_p95_us", s.overSlices(func(sl *slice) float64 { return sl.P95Us }))
}

// clientMetrics fills the generator's diagnostics.
func (s *summary) clientMetrics(m metricSet, clients int) {
	m.set("client.error_rate", float64(s.failed)/math.Max(1, float64(s.attempted)))
	m.set("client.read_p99_us", usec(percentile(s.reads, 99)))
	if n := len(s.reads); n > 0 {
		m.set("client.read_max_us", usec(float64(s.reads[n-1])))
	}
	m.set("client.write_p50_us", usec(percentile(s.writes, 50)))
	m.set("client.write_p95_us", usec(percentile(s.writes, 95)))
	m.set("client.overhead_us", s.overheadUs)
	m.set("client.clients", float64(clients))
	for t, lat := range s.byTemplate {
		m.set("client.q."+templateNames[t]+".p50_us", usec(percentile(lat, 50)))
	}
}

// overheadLimit is the share of read_p50_us the generator may spend
// per op outside the timed call on lubm_warm_point before the run
// fails: beyond it the loop measures the generator, not the store.
const overheadLimit = 0.05

func (s *summary) checkOverhead(workload string) error {
	if p50 := usec(percentile(s.reads, 50)); workload == wlWarm && s.overheadUs > overheadLimit*p50 {
		return fmt.Errorf("generator overhead %.2fus per op exceeds %.0f%% of read_p50_us (%.2fus)", s.overheadUs, overheadLimit*100, p50)
	}
	return nil
}
