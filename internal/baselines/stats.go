package baselines

import (
	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
)

// counts is the baselines' own optimizer statistics (§3.1, input 2):
// the triple total and exact per-subject and per-object counts, kept
// next to seen as triples arrive. It shares nothing with the DB2RDF
// store, so the baselines stay independent referees.
type counts struct {
	dict   *dict.Dict
	total  int64
	bySubj map[int64]int64
	byObj  map[int64]int64
}

func newCounts(d *dict.Dict) *counts {
	return &counts{dict: d, bySubj: make(map[int64]int64), byObj: make(map[int64]int64)}
}

// record counts one fresh triple.
func (c *counts) record(sid, oid int64) {
	c.total++
	c.bySubj[sid]++
	c.byObj[oid]++
}

// TotalTriples implements optimizer.Stats.
func (c *counts) TotalTriples() float64 { return float64(c.total) }

// AvgPerSubject implements optimizer.Stats.
func (c *counts) AvgPerSubject() float64 { return c.avg(c.bySubj) }

// AvgPerObject implements optimizer.Stats.
func (c *counts) AvgPerObject() float64 { return c.avg(c.byObj) }

func (c *counts) avg(m map[int64]int64) float64 {
	if len(m) == 0 {
		return 1
	}
	return float64(c.total) / float64(len(m))
}

// SubjectCount implements optimizer.Stats.
func (c *counts) SubjectCount(t rdf.Term) (float64, bool) { return c.count(c.bySubj, t), true }

// ObjectCount implements optimizer.Stats.
func (c *counts) ObjectCount(t rdf.Term) (float64, bool) { return c.count(c.byObj, t), true }

func (c *counts) count(m map[int64]int64, t rdf.Term) float64 {
	id, ok := c.dict.Lookup(t)
	if !ok {
		return 0
	}
	return float64(m[id])
}
