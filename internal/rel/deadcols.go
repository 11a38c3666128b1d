package rel

import (
	"fmt"
	"strings"
)

// Dead-column pruning across a query's CTE chain. The SPARQL
// translator builds queries as pipelines of CTEs, and intermediate
// columns (extracted predicate values, spill-resolved lids) often go
// unused by the final SELECT — but each costs a compiled CASE or
// COALESCE evaluation per row. When a query is bound (bind.go), this
// analysis computes which output columns of each CTE any later select
// can actually observe; the bound form marks the rest dead, and the
// projection step then skips dead expression items, leaving NULL in
// their slot — and the columns only they read are not gathered from
// the base table. Row counts, join multiplicities and column shapes
// are untouched, so the pruned execution is indistinguishable to any
// consumer of the live columns.
//
// The analysis over-approximates uses: anything it cannot resolve
// precisely (unqualified references, star projections, UNION /
// DISTINCT / ORDER BY selects, forward references) marks the relevant
// CTEs fully live.

// cteLiveColumns returns one live-column set per CTE, aligned with
// q.CTEs; a nil entry keeps everything. lower lower-cases identifiers.
func cteLiveColumns(q *Query, lower func(string) string) []map[string]bool {
	if len(q.CTEs) == 0 {
		return nil
	}
	type state struct {
		all  bool
		cols map[string]bool
	}
	used := make(map[string]*state, len(q.CTEs))
	index := make(map[string]int, len(q.CTEs))
	for i, cte := range q.CTEs {
		name := lower(cte.Name)
		used[name] = &state{cols: map[string]bool{}}
		index[name] = i
	}
	markAll := func(name string) {
		if s, ok := used[name]; ok {
			s.all = true
		}
	}
	markCol := func(name, col string) {
		if s, ok := used[name]; ok {
			s.cols[col] = true
		}
	}

	// collect records every CTE column the given select can observe.
	// live bounds which of the select's own output items are
	// evaluated (nil = all); minIndex guards against forward
	// references — a referenced CTE at or past it is marked fully
	// live, since its pruning decision has already been taken.
	var collect func(s *Select, live map[string]bool, minIndex int)
	collect = func(s *Select, live map[string]bool, minIndex int) {
		if s == nil {
			return
		}
		if len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0 {
			live = nil // dedup/ordering observe every column
		}
		for _, core := range s.Cores {
			for _, item := range core.Items {
				if item.Star {
					// Star expansion shifts positional fallback names;
					// treat every item of this select as live.
					live = nil
				}
			}
		}
		for _, core := range s.Cores {
			// alias -> referenced CTE name, for this core's FROM units.
			aliases := map[string]string{}
			var walkFrom func(fi FromItem)
			walkFrom = func(fi FromItem) {
				if fi.Sub != nil {
					collect(fi.Sub, nil, minIndex)
				} else if fi.Lateral == nil {
					tbl := lower(fi.Table)
					if _, ok := used[tbl]; ok {
						a := lower(fi.Alias)
						if a == "" {
							a = tbl
						}
						aliases[a] = tbl
						if idx, ok := index[tbl]; ok && idx >= minIndex {
							markAll(tbl)
						}
					}
				}
				for _, j := range fi.Joins {
					walkFrom(j.Right)
				}
			}
			for _, fi := range core.From {
				walkFrom(fi)
			}
			useExpr := func(e Expr) {
				for _, c := range colRefs(e, nil) {
					alias, col := c.alias, c.column
					if alias == "" {
						// Unqualified: could resolve into any unit.
						for _, cte := range aliases {
							markAll(cte)
						}
						continue
					}
					if cte, ok := aliases[alias]; ok {
						markCol(cte, col)
					}
				}
			}
			for i, item := range core.Items {
				if item.Star {
					// Star observes whole units.
					sa := lower(item.StarAlias)
					for a, cte := range aliases {
						if sa == "" || sa == a {
							markAll(cte)
						}
					}
					continue
				}
				if live != nil && !live[itemName(item, i)] {
					continue // dead item: its inputs are not uses
				}
				useExpr(item.Expr)
			}
			if core.Where != nil {
				useExpr(core.Where)
			}
			for _, fi := range core.From {
				if fi.Lateral != nil {
					// The cells read the item they correlate to.
					for _, row := range fi.Lateral.Rows {
						for _, cell := range row {
							useExpr(cell)
						}
					}
				}
			}
			var walkOn func(fi FromItem)
			walkOn = func(fi FromItem) {
				for _, j := range fi.Joins {
					if j.On != nil {
						useExpr(j.On)
					}
					walkOn(j.Right)
				}
			}
			for _, fi := range core.From {
				walkOn(fi)
			}
		}
	}

	// Body first (everything it projects is live), then CTEs from last
	// to first so liveness propagates transitively up the chain.
	collect(q.Body, nil, len(q.CTEs))
	for i := len(q.CTEs) - 1; i >= 0; i-- {
		name := lower(q.CTEs[i].Name)
		st := used[name]
		var live map[string]bool
		if !st.all {
			live = st.cols
		}
		collect(q.CTEs[i].Select, live, i)
	}

	out := make([]map[string]bool, len(q.CTEs))
	for i, cte := range q.CTEs {
		st := used[lower(cte.Name)]
		if st.all {
			out[i] = nil
		} else {
			out[i] = st.cols
		}
	}
	return out
}

// itemName computes the output column name of a non-star select item,
// mirroring project's naming (lower-cased; positional fallback).
func itemName(item SelectItem, pos int) string {
	if item.Alias != "" {
		return strings.ToLower(item.Alias)
	}
	if cr, ok := item.Expr.(*ColRef); ok {
		return cr.column
	}
	return fmt.Sprintf("col%d", pos+1)
}
