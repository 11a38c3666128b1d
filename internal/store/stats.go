package store

import (
	"fmt"
	"sort"

	"db2rdf/internal/dict"
	"db2rdf/internal/rdf"
	"db2rdf/internal/rel"
)

// Optimizer statistics (§3.1, input 2) derived from a snapshot. TMC
// needs the triple total, the average triples per subject and per
// object, and exact per-constant subject and object counts. The total
// is a counter the writer keeps and installLocked captures; the entity
// counts come with the snapshot; a per-constant count is one probe of
// the snapshot's DPH/RPH entry index. No second copy of the data is
// kept, so a plan compiled against a held snapshot is costed the same
// way however long it is held.

// StatsView implements optimizer.Stats over one snapshot.
type StatsView struct{ sn *Snapshot }

// StatsView returns the optimizer statistics as of this snapshot.
func (sn *Snapshot) StatsView() StatsView { return StatsView{sn} }

// StatsView returns the optimizer statistics as of the latest
// published snapshot.
func (s *Store) StatsView() StatsView { return s.Snapshot().StatsView() }

// TotalTriples implements optimizer.Stats.
func (v StatsView) TotalTriples() float64 { return float64(v.sn.triples) }

// AvgPerSubject implements optimizer.Stats.
func (v StatsView) AvgPerSubject() float64 { return v.avg(false) }

// AvgPerObject implements optimizer.Stats.
func (v StatsView) AvgPerObject() float64 { return v.avg(true) }

func (v StatsView) avg(reverse bool) float64 {
	n := v.sn.EntityCount(reverse)
	if n == 0 {
		return 1
	}
	return float64(v.sn.triples) / float64(n)
}

// SubjectCount implements optimizer.Stats. Every count is exact, so
// the second result is always true.
func (v StatsView) SubjectCount(t rdf.Term) (float64, bool) { return v.count(t, false), true }

// ObjectCount implements optimizer.Stats.
func (v StatsView) ObjectCount(t rdf.Term) (float64, bool) { return v.count(t, true), true }

func (v StatsView) count(t rdf.Term, reverse bool) float64 {
	id, ok := v.sn.LookupID(t)
	if !ok {
		return 0 // absent from the dictionary, so from the data
	}
	sv := v.sn.side(reverse)
	return float64(entityTriples(sv.primary, sv.secondary, v.sn.K(reverse), id))
}

// entityTriples counts the triples of one entity on one side: each
// live value cell of the entity's primary rows (found through the entry
// index) is one triple, and a lid cell is as many as its DS/RS list has
// members (the lid index's posting count). Deleted rows are unindexed
// when deleted, so only live rows and members are seen.
func entityTriples(primary, secondary *rel.Table, k int, entity int64) int {
	rows, _ := primary.IndexLookup("entry", entity)
	n := 0
	for _, ri := range rows {
		for c := 0; c < k; c++ {
			v := primary.CellAt(int(ri), 2+2*c+1)
			switch {
			case v.IsNull():
			case dict.IsLid(v.I):
				members, _ := secondary.IndexLookup("lid", v.I)
				n += len(members)
			default:
				n++
			}
		}
	}
	return n
}

// TopConstants returns the k constants with the most triples as
// subject or as object, as of this snapshot, for diagnostic output. It
// scans the DPH/RPH entry keys and counts each entity with the
// function the optimizer's per-constant statistics use.
func (sn *Snapshot) TopConstants(k int) []string {
	type pair struct {
		id int64
		n  int
	}
	var all []pair
	for _, reverse := range []bool{false, true} {
		sv := sn.side(reverse)
		seen := make(map[int64]bool)
		for i, rows := 0, sv.primary.Len(); i < rows; i++ {
			ev := sv.primary.CellAt(i, 0)
			if ev.IsNull() || seen[ev.I] {
				continue
			}
			seen[ev.I] = true
			if n := entityTriples(sv.primary, sv.secondary, sn.K(reverse), ev.I); n > 0 {
				all = append(all, pair{ev.I, n})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].id < all[j].id
	})
	var out []string
	seen := make(map[int64]bool)
	for _, p := range all {
		if len(out) >= k {
			break
		}
		if seen[p.id] {
			continue
		}
		seen[p.id] = true
		if t, err := sn.Decode(p.id); err == nil {
			out = append(out, fmt.Sprintf("%s: %d", t, p.n))
		}
	}
	return out
}
