package rel

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
// Every column reference inside a core is qualified, so each use names
// the CTE behind its alias exactly. The analysis over-approximates only
// where a select observes its whole output (UNION ALL, DISTINCT, ORDER
// BY) and for forward references, which mark the CTE fully live.

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

	// collect records every CTE column the given select can observe.
	// live bounds which of the select's own output items are
	// evaluated (nil = all); minIndex guards against forward
	// references — a referenced CTE at or past it is marked fully
	// live, since its pruning decision has already been taken.
	collect := func(s *Select, live map[string]bool, minIndex int) {
		if observesAll(s) {
			live = nil
		}
		for _, core := range s.Cores {
			// alias -> referenced CTE name, for this core's FROM items.
			aliases := map[string]string{}
			var ons []Expr
			see := func(fi FromItem) {
				tbl := lower(fi.Table)
				if st, ok := used[tbl]; ok {
					aliases[lower(fi.Alias)] = tbl
					if index[tbl] >= minIndex {
						st.all = true
					}
				}
			}
			for _, fi := range core.From {
				see(fi)
				for _, j := range fi.Joins {
					see(j.Right)
					ons = append(ons, j.On)
				}
			}
			use := func(e Expr) {
				eachColRef(e, func(c *ColRef) {
					if cte, ok := aliases[c.alias]; ok {
						used[cte].cols[c.column] = true
					}
				})
			}
			for _, item := range core.Items {
				if live == nil || live[lower(item.Alias)] {
					use(item.Expr) // a dead item's inputs are not uses
				}
			}
			use(core.Where)
			for _, on := range ons {
				use(on)
			}
		}
	}

	// Body first (everything it projects is live), then CTEs from last
	// to first so liveness propagates transitively up the chain.
	collect(q.Body, nil, len(q.CTEs))
	for i := len(q.CTEs) - 1; i >= 0; i-- {
		st := used[lower(q.CTEs[i].Name)]
		var live map[string]bool
		if !st.all {
			live = st.cols
		}
		collect(q.CTEs[i].Select, live, i)
	}

	out := make([]map[string]bool, len(q.CTEs))
	for i, cte := range q.CTEs {
		if st := used[lower(cte.Name)]; !st.all {
			out[i] = st.cols
		}
	}
	return out
}
