package rel

import (
	"slices"
	"strings"
)

// The bound form of a Query: everything the executor needs to know
// about a statement that does not depend on the database it runs
// against, worked out once by ParseQuery. Per SELECT core that is the
// WHERE clause split into conjuncts with each conjunct's alias set,
// the columns every FROM alias is referenced by (items, WHERE and
// every JOIN … ON), the output names, and which items the CTE
// dead-column analysis (deadcols.go) found unobservable; identifiers
// are lower-cased here and nowhere at run time.
//
// The referenced-column sets are what lets the executor read narrow:
// a base-table relation is shaped from its alias's set only, so a
// 66-column DPH row costs the 3–7 columns the SQL names. An alias gets
// every column when the core cannot say which it means: `*` (every
// alias of the core), `T.*` (alias T), or any unqualified column
// reference (every alias of the core, since resolution by unique
// suffix needs all the names in view to find — or refuse — a match).
// The columns only the cells of a lateral TABLE(VALUES …) item name
// are kept apart (latCols): the unpivot kernel reads them straight
// from the chunks, so they never widen the rows of the item they
// correlate to.
//
// Nothing in a bound form is written after bindQuery returns. A
// cached plan is executed by many goroutines at once; they share this
// structure without synchronization.

type boundQuery struct {
	ctes []boundCTE
	body *boundSelect
}

type boundCTE struct {
	name string // lower-cased
	sel  *boundSelect
}

type boundSelect struct {
	sel   *Select
	cores []*boundCore
}

type boundCore struct {
	core  *SelectCore
	conjs []boundConj  // WHERE, split on top-level AND
	from  []*boundFrom // aligned with core.From
	prims []*boundFrom // from, flattened: every item and every right side of its join chain
	// names are the output column names, nil when a star item makes
	// them depend on the input shape.
	names []string
	// dead marks items no later select can observe (nil = none): an
	// expression item that is dead is not evaluated, its slot left NULL.
	dead []bool
}

// boundConj is one conjunct of a WHERE or ON clause.
type boundConj struct {
	expr    Expr
	aliases []string // distinct aliases referenced
	bare    []string // unqualified column names referenced
	// l and r are set for `colref = colref`, the join-link shape.
	l, r *ColRef
	// col and constant are set for `colref = <expr without column
	// references>` (either way round), the index-lookup shape.
	col      *ColRef
	constant Expr
}

// boundFrom is one table reference, CTE reference, derived table or
// lateral item.
type boundFrom struct {
	alias string       // lower-cased
	table string       // lower-cased; "" for a derived table or lateral item
	sub   *boundSelect // derived table
	lat   *boundLateral
	// cols are the columns the core references through alias; all
	// overrides it (see the header comment). latCols are the columns
	// only lateral cells reference.
	cols    []string
	latCols []string
	all     bool
	joins   []boundJoin
	// laterals are the lateral items of the core that correlate to an
	// alias of this item's join chain (or to one of its own columns,
	// when the item is itself lateral), in FROM order. They are
	// evaluated as part of this item's unit.
	laterals []*boundFrom
}

// boundLateral is a TABLE(VALUES …) AS alias(names…) item: rows of
// cells over the columns of dep, the alias it correlates to.
type boundLateral struct {
	names []string // lower-cased
	rows  [][]Expr // *ColRef on dep, or *Lit
	dep   string
	// hosted is false when no earlier FROM item introduces dep, which
	// the parser rejects; only a hand-built Query can get here.
	hosted bool
}

type boundJoin struct {
	left  bool // LEFT OUTER JOIN
	right *boundFrom
	on    []boundConj
}

// primaries appends f and every right side of its join chain to out.
func (f *boundFrom) primaries(out []*boundFrom) []*boundFrom {
	out = append(out, f)
	for i := range f.joins {
		out = f.joins[i].right.primaries(out)
	}
	return out
}

func bindQuery(q *Query) *boundQuery {
	live := cteLiveColumns(q)
	b := &boundQuery{ctes: make([]boundCTE, len(q.CTEs))}
	for i, cte := range q.CTEs {
		b.ctes[i] = boundCTE{name: strings.ToLower(cte.Name), sel: bindSelect(cte.Select, live[i])}
	}
	b.body = bindSelect(q.Body, nil)
	return b
}

// bindSelect binds s. live (nil = all) names the output columns a
// later select can observe; it only applies when s cannot observe its
// own dead columns, which rules out UNION, DISTINCT and ORDER BY.
func bindSelect(s *Select, live map[string]bool) *boundSelect {
	if len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0 {
		live = nil
	}
	bs := &boundSelect{sel: s, cores: make([]*boundCore, len(s.Cores))}
	for i, core := range s.Cores {
		bs.cores[i] = bindCore(core, live)
	}
	return bs
}

func bindCore(core *SelectCore, live map[string]bool) *boundCore {
	bc := &boundCore{core: core, from: make([]*boundFrom, len(core.From))}
	star := false
	for _, item := range core.Items {
		star = star || item.Star
	}
	if !star {
		bc.names = make([]string, len(core.Items))
		for i, item := range core.Items {
			bc.names[i] = itemName(item, i)
		}
		// Star expansion would shift the positional names the liveness
		// analysis used, so pruning needs a star-free item list.
		if live != nil {
			bc.dead = make([]bool, len(core.Items))
			for i, name := range bc.names {
				bc.dead[i] = !live[name]
			}
		}
	}
	for i, fi := range core.From {
		bc.from[i] = bindFrom(fi)
		if bc.from[i].lat != nil {
			bindLateral(bc, bc.from[i])
		}
		bc.prims = bc.from[i].primaries(bc.prims)
	}
	if core.Where != nil {
		bc.conjs = bindConjuncts(core.Where)
	}

	// Referenced columns per alias.
	var refs []*ColRef
	everything := false
	for i, item := range core.Items {
		if item.Star {
			sa := strings.ToLower(item.StarAlias)
			if sa == "" {
				everything = true
			}
			for _, f := range bc.prims {
				if f.alias == sa {
					f.all = true
				}
			}
			continue
		}
		if _, direct := item.Expr.(*ColRef); !direct && bc.dead != nil && bc.dead[i] {
			continue // never evaluated, so its inputs are not reads
		}
		refs = colRefs(item.Expr, refs)
	}
	if core.Where != nil {
		refs = colRefs(core.Where, refs)
	}
	for _, f := range bc.prims {
		for _, j := range f.joins {
			for _, c := range j.on {
				refs = colRefs(c.expr, refs)
			}
		}
	}
	for _, c := range refs {
		alias, col := c.lowered()
		if alias == "" {
			everything = true
			continue
		}
		for _, f := range bc.prims {
			if f.alias == alias && !slices.Contains(f.cols, col) {
				f.cols = append(f.cols, col)
			}
		}
	}
	if everything {
		for _, f := range bc.prims {
			f.all = true
		}
	}
	return bc
}

// bindLateral attaches lateral item f to the earlier FROM item that
// introduces the alias its cells correlate to, and records the columns
// the cells name on that alias.
func bindLateral(bc *boundCore, f *boundFrom) {
	for _, host := range bc.from {
		if host == nil || host == f {
			break
		}
		for _, prim := range host.primaries(nil) {
			if prim.alias != f.lat.dep {
				continue
			}
			host.laterals = append(host.laterals, f)
			f.lat.hosted = true
			for _, row := range f.lat.rows {
				for _, cell := range row {
					if c, ok := cell.(*ColRef); ok {
						if _, col := c.lowered(); !slices.Contains(prim.latCols, col) {
							prim.latCols = append(prim.latCols, col)
						}
					}
				}
			}
			return
		}
	}
}

func bindFrom(fi FromItem) *boundFrom {
	f := &boundFrom{alias: strings.ToLower(fi.Alias), table: strings.ToLower(fi.Table)}
	if fi.Sub != nil {
		f.sub = bindSelect(fi.Sub, nil)
	}
	if l := fi.Lateral; l != nil {
		f.lat = &boundLateral{names: make([]string, len(l.Cols)), rows: l.Rows}
		for i, name := range l.Cols {
			f.lat.names[i] = strings.ToLower(name)
		}
		for _, row := range l.Rows {
			for _, cell := range row {
				if c, ok := cell.(*ColRef); ok {
					f.lat.dep, _ = c.lowered()
				}
			}
		}
	}
	for _, jc := range fi.Joins {
		f.joins = append(f.joins, boundJoin{left: jc.Left, right: bindFrom(jc.Right), on: bindConjuncts(jc.On)})
	}
	return f
}

func bindConjuncts(e Expr) []boundConj {
	exprs := conjuncts(e, nil)
	out := make([]boundConj, len(exprs))
	for i, c := range exprs {
		bc := boundConj{expr: c}
		for _, cr := range colRefs(c, nil) {
			alias, col := cr.lowered()
			switch {
			case alias == "":
				bc.bare = append(bc.bare, col)
			case !slices.Contains(bc.aliases, alias):
				bc.aliases = append(bc.aliases, alias)
			}
		}
		if b, ok := c.(*BinOp); ok && b.Op == "=" {
			l, lok := b.L.(*ColRef)
			r, rok := b.R.(*ColRef)
			switch {
			case lok && rok:
				bc.l, bc.r = l, r
			case lok && !hasColRef(b.R):
				bc.col, bc.constant = l, b.R
			case rok && !hasColRef(b.L):
				bc.col, bc.constant = r, b.L
			}
		}
		out[i] = bc
	}
	return out
}

func hasColRef(e Expr) bool { return len(colRefs(e, nil)) > 0 }
