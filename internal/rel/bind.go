package rel

import (
	"fmt"
	"slices"
	"strings"
)

// The bound form of a Query: everything the executor needs to know
// about a statement that does not depend on the database it runs
// against, worked out once by Bind. Per SELECT core that is the
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
// Nothing in a bound form, or in the Query it binds, is written after
// Bind returns. A cached plan is executed by many goroutines at once;
// they share both without synchronization.

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
// cells over the columns of dep, the alias it correlates to, which an
// earlier FROM item of its core introduces.
type boundLateral struct {
	names []string // lower-cased
	rows  [][]Expr // *ColRef on dep, or *Lit
	dep   string
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

// Bind checks q and attaches its bound form, lower-casing every column
// reference. It is the only way a Query becomes executable: ParseQuery
// calls it, and a Query built in code calls it once, before it is
// executed or shared. It rejects a lateral item that does not name
// qualified columns of one alias introduced by an earlier FROM item of
// its core, whose rows do not match its column list, or that is the
// right side of a JOIN.
func Bind(q *Query) error {
	if q.Body == nil {
		return fmt.Errorf("sql: query has no SELECT")
	}
	b := &binder{}
	for _, cte := range q.CTEs {
		if err := b.check(cte.Select); err != nil {
			return err
		}
	}
	if err := b.check(q.Body); err != nil {
		return err
	}
	q.bound = b.query(q)
	return nil
}

// lateralError is a lateral item Bind rejects; ParseQuery adds the
// item's source offset.
type lateralError struct {
	lat *Lateral
	msg string
}

func (e *lateralError) Error() string { return "sql: " + e.msg }

func latErr(fi FromItem, format string, args ...any) error {
	return &lateralError{lat: fi.Lateral, msg: "TABLE(VALUES ...) " + fmt.Sprintf(format, args...)}
}

// binder lower-cases identifiers, each distinct one once per query.
type binder struct{ low map[string]string }

func (b *binder) lower(s string) string {
	if l, ok := b.low[s]; ok {
		return l
	}
	l := strings.ToLower(s)
	if b.low == nil {
		b.low = map[string]string{}
	}
	b.low[s] = l
	return l
}

func (b *binder) lowerRef(c *ColRef) { c.alias, c.column = b.lower(c.Alias), b.lower(c.Column) }

// check validates s's lateral items and lower-cases its column
// references.
func (b *binder) check(s *Select) error {
	for _, core := range s.Cores {
		for _, item := range core.Items {
			eachColRef(item.Expr, b.lowerRef)
		}
		eachColRef(core.Where, b.lowerRef)
		for i, fi := range core.From {
			if err := b.checkFrom(fi, core.From[:i], false); err != nil {
				return err
			}
		}
	}
	for _, o := range s.OrderBy {
		eachColRef(o.Expr, b.lowerRef)
	}
	return nil
}

// checkFrom checks fi, which follows the items before in its core (or
// is the right side of a JOIN when joined), and its join chain.
func (b *binder) checkFrom(fi FromItem, before []FromItem, joined bool) error {
	if fi.Sub != nil {
		if err := b.check(fi.Sub); err != nil {
			return err
		}
	}
	if fi.Lateral != nil {
		if joined {
			// A lateral item depends on the rows to its left, which
			// ON-driven join kernels do not feed it.
			return latErr(fi, "cannot be the right side of a JOIN")
		}
		if err := b.checkLateral(fi, before); err != nil {
			return err
		}
	}
	for _, j := range fi.Joins {
		eachColRef(j.On, b.lowerRef)
		if err := b.checkFrom(j.Right, nil, true); err != nil {
			return err
		}
	}
	return nil
}

// checkLateral verifies that lateral item fi has rows as wide as its
// column list, of literals and qualified column references to one
// alias that the FROM items before it introduce.
func (b *binder) checkLateral(fi FromItem, before []FromItem) error {
	lat := fi.Lateral
	dep := ""
	for i, row := range lat.Rows {
		if len(row) != len(lat.Cols) {
			return latErr(fi, "row %d has %d values, AS %s names %d columns", i+1, len(row), fi.Alias, len(lat.Cols))
		}
		for _, cell := range row {
			switch c := cell.(type) {
			case *Lit:
			case *ColRef:
				if c.Alias == "" {
					return latErr(fi, "column %s must be qualified", c.Column)
				}
				b.lowerRef(c)
				if dep == "" {
					dep = c.alias
				} else if c.alias != dep {
					return latErr(fi, "AS %s refers to both %s and %s; one FROM item is supported", fi.Alias, dep, c.alias)
				}
			default:
				return latErr(fi, "cells must be column references or literals")
			}
		}
	}
	if dep == "" {
		return latErr(fi, "AS %s refers to no FROM item", fi.Alias)
	}
	var known func(fi FromItem) bool
	known = func(fi FromItem) bool {
		if b.lower(fi.Alias) == dep {
			return true
		}
		return slices.ContainsFunc(fi.Joins, func(j JoinClause) bool { return known(j.Right) })
	}
	if !slices.ContainsFunc(before, known) {
		return latErr(fi, "AS %s refers to unknown alias %q", fi.Alias, dep)
	}
	return nil
}

func (b *binder) query(q *Query) *boundQuery {
	live := cteLiveColumns(q, b.lower)
	bq := &boundQuery{ctes: make([]boundCTE, len(q.CTEs))}
	for i, cte := range q.CTEs {
		bq.ctes[i] = boundCTE{name: b.lower(cte.Name), sel: b.selectStmt(cte.Select, live[i])}
	}
	bq.body = b.selectStmt(q.Body, nil)
	return bq
}

// selectStmt binds s. live (nil = all) names the output columns a
// later select can observe; it only applies when s cannot observe its
// own dead columns, which rules out UNION, DISTINCT and ORDER BY.
func (b *binder) selectStmt(s *Select, live map[string]bool) *boundSelect {
	if len(s.Cores) > 1 || s.Cores[0].Distinct || len(s.OrderBy) > 0 {
		live = nil
	}
	bs := &boundSelect{sel: s, cores: make([]*boundCore, len(s.Cores))}
	for i, core := range s.Cores {
		bs.cores[i] = b.core(core, live)
	}
	return bs
}

func (b *binder) core(core *SelectCore, live map[string]bool) *boundCore {
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
		bc.from[i] = b.from(fi)
		if bc.from[i].lat != nil {
			hostLateral(bc, bc.from[i])
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
			sa := b.lower(item.StarAlias)
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
		if c.alias == "" {
			everything = true
			continue
		}
		for _, f := range bc.prims {
			if f.alias == c.alias && !slices.Contains(f.cols, c.column) {
				if f.cols == nil {
					f.cols = make([]string, 0, 8) // room for a typical core's columns
				}
				f.cols = append(f.cols, c.column)
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

// hostLateral attaches lateral item f to the earlier FROM item that
// introduces the alias its cells correlate to (Bind has checked there
// is one), and records the columns the cells name on that alias.
func hostLateral(bc *boundCore, f *boundFrom) {
	for _, host := range bc.from {
		if host == nil || host == f {
			break
		}
		for _, prim := range host.primaries(nil) {
			if prim.alias != f.lat.dep {
				continue
			}
			host.laterals = append(host.laterals, f)
			for _, row := range f.lat.rows {
				for _, cell := range row {
					if c, ok := cell.(*ColRef); ok && !slices.Contains(prim.latCols, c.column) {
						prim.latCols = append(prim.latCols, c.column)
					}
				}
			}
			return
		}
	}
}

func (b *binder) from(fi FromItem) *boundFrom {
	f := &boundFrom{alias: b.lower(fi.Alias), table: b.lower(fi.Table)}
	if fi.Sub != nil {
		f.sub = b.selectStmt(fi.Sub, nil)
	}
	if l := fi.Lateral; l != nil {
		f.lat = &boundLateral{names: make([]string, len(l.Cols)), rows: l.Rows}
		for i, name := range l.Cols {
			f.lat.names[i] = b.lower(name)
		}
		for _, row := range l.Rows {
			for _, cell := range row {
				if c, ok := cell.(*ColRef); ok {
					f.lat.dep = c.alias
				}
			}
		}
	}
	for _, jc := range fi.Joins {
		f.joins = append(f.joins, boundJoin{left: jc.Left, right: b.from(jc.Right), on: bindConjuncts(jc.On)})
	}
	return f
}

func bindConjuncts(e Expr) []boundConj {
	exprs := conjuncts(e, nil)
	out := make([]boundConj, len(exprs))
	for i, c := range exprs {
		bc := boundConj{expr: c}
		for _, cr := range colRefs(c, nil) {
			switch {
			case cr.alias == "":
				bc.bare = append(bc.bare, cr.column)
			case !slices.Contains(bc.aliases, cr.alias):
				bc.aliases = append(bc.aliases, cr.alias)
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
